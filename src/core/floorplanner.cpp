#include "core/floorplanner.hpp"

#include <algorithm>
#include <limits>

#include "obs/trace.hpp"
#include "route/two_pin.hpp"
#include "util/stopwatch.hpp"

namespace ficon {

Floorplanner::Floorplanner(const Netlist& netlist, FloorplanOptions options)
    : netlist_(&netlist),
      options_(options),
      packer_(netlist),
      sp_packer_(netlist) {
  FICON_REQUIRE(options_.objective.alpha >= 0.0 &&
                    options_.objective.beta >= 0.0 &&
                    options_.objective.gamma >= 0.0,
                "objective weights must be non-negative");
  FICON_REQUIRE(options_.effort > 0.0, "effort must be positive");
  // Moves per temperature: 10 * effort * modules by default, else effort
  // times the caller's count. Range-checked in double, because casting an
  // out-of-range double to int is undefined behavior.
  const bool default_moves = options_.anneal.moves_per_temperature <= 0;
  const double moves =
      default_moves
          ? 10.0 * options_.effort *
                static_cast<double>(netlist.module_count())
          : options_.effort * options_.anneal.moves_per_temperature;
  FICON_REQUIRE(moves <= static_cast<double>(std::numeric_limits<int>::max()),
                "effort too large: moves per temperature must fit in an int");
  options_.anneal.moves_per_temperature =
      std::max(default_moves ? 10 : 1, static_cast<int>(moves));
  // The per-net scoring memo is part of the incremental pipeline; turning
  // the pipeline off must also turn the memo off so the baseline path
  // measured by bench_incremental is the genuine PR-1 evaluation.
  if (!options_.incremental) {
    options_.objective.irregular.score_cache_capacity = 0;
  }
  model_ = make_congestion_model(options_.objective.model,
                                 options_.objective.irregular,
                                 options_.objective.fixed);

  // Normalization baselines from a short random walk over the active
  // representation (fixed derived seed so the objective itself is
  // deterministic and independent of run()).
  Rng rng(SplitMix64(options_.seed ^ 0xA5A5A5A5DEADBEEFull).next());
  const int samples =
      std::max(30, 2 * static_cast<int>(netlist.module_count()));
  const bool want_congestion =
      options_.objective.model != CongestionModelKind::kNone &&
      options_.objective.gamma > 0.0;
  double area_sum = 0.0, wire_sum = 0.0, cgt_sum = 0.0;
  const auto sample_placement = [&](const Placement& placement,
                                    double area) {
    area_sum += area;
    if (options_.incremental) {
      // Decompose once and share the nets between both terms; total_length
      // sums the same edges in the same order as mst_wirelength.
      const std::span<const TwoPinNet> nets =
          decomposer_.decompose(netlist, placement);
      wire_sum += total_length(nets);
      if (want_congestion) cgt_sum += congestion_of(nets, placement.chip);
    } else {
      wire_sum += mst_wirelength(netlist, placement);
      if (want_congestion) {
        const auto nets = decompose_to_two_pin(netlist, placement);
        cgt_sum += congestion_of(nets, placement.chip);
      }
    }
  };
  if (options_.engine == FloorplanEngine::kPolishExpression) {
    PolishExpression expr =
        PolishExpression::initial(static_cast<int>(netlist.module_count()));
    for (int i = 0; i < samples; ++i) {
      expr.random_move(rng);
      if (options_.incremental) {
        const SlicingResult& packed = packer_.pack_cached_ref(expr);
        sample_placement(packed.placement, packed.area);
      } else {
        const SlicingResult packed = packer_.pack(expr);
        sample_placement(packed.placement, packed.area);
      }
    }
  } else {
    SequencePair pair =
        SequencePair::initial(static_cast<int>(netlist.module_count()));
    for (int i = 0; i < samples; ++i) {
      pair.random_move(rng);
      const SequencePairPacker::Result packed = sp_packer_.pack(pair);
      sample_placement(packed.placement, packed.area);
    }
  }
  area_scale_ = std::max(area_sum / samples, 1e-12);
  wire_scale_ = std::max(wire_sum / samples, 1e-12);
  congestion_scale_ = std::max(cgt_sum / samples, 1e-12);
}

double Floorplanner::congestion_of(std::span<const TwoPinNet> nets,
                                   const Rect& chip) const {
  if (model_ == nullptr) return 0.0;
  const obs::ScopedPhase timer(obs::Phase::kCongestion);
  return model_->cost(nets, chip);
}

double Floorplanner::raw_cost(const FloorplanMetrics& m) const {
  const FloorplanObjective& o = options_.objective;
  const double weight_sum =
      o.alpha + o.beta +
      (o.model != CongestionModelKind::kNone ? o.gamma : 0.0);
  double cost = o.alpha * (m.area / area_scale_) +
                o.beta * (m.wirelength / wire_scale_);
  if (o.model != CongestionModelKind::kNone && o.gamma > 0.0) {
    cost += o.gamma * (m.congestion / congestion_scale_);
  }
  return weight_sum > 0.0 ? cost / weight_sum : cost;
}

FloorplanMetrics Floorplanner::evaluate_placement(
    const Placement& placement) const {
  FloorplanMetrics m;
  m.area = placement.chip.area();
  const bool want_congestion =
      options_.objective.model != CongestionModelKind::kNone &&
      options_.objective.gamma > 0.0;
  if (options_.incremental) {
    // One decomposition feeds both the wirelength and congestion terms
    // (the baseline path decomposes twice); edge order is identical, so
    // both terms are bit-identical to the baseline's.
    const std::span<const TwoPinNet> nets = [&] {
      const obs::ScopedPhase timer(obs::Phase::kDecompose);
      return decomposer_.decompose(*netlist_, placement);
    }();
    m.wirelength = total_length(nets);
    if (want_congestion) m.congestion = congestion_of(nets, placement.chip);
  } else {
    {
      const obs::ScopedPhase timer(obs::Phase::kDecompose);
      m.wirelength = mst_wirelength(*netlist_, placement);
    }
    if (want_congestion) {
      const auto nets = [&] {
        const obs::ScopedPhase timer(obs::Phase::kDecompose);
        return decompose_to_two_pin(*netlist_, placement);
      }();
      m.congestion = congestion_of(nets, placement.chip);
    }
  }
  m.cost = raw_cost(m);
  return m;
}

FloorplanMetrics Floorplanner::evaluate(const PolishExpression& expr) const {
  if (options_.incremental) {
    const SlicingResult* packed = nullptr;
    {
      const obs::ScopedPhase timer(obs::Phase::kPack);
      packed = &packer_.pack_cached_ref(expr);
    }
    return evaluate_placement(packed->placement);
  }
  const SlicingResult packed = [&] {
    const obs::ScopedPhase timer(obs::Phase::kPack);
    return packer_.pack(expr);
  }();
  return evaluate_placement(packed.placement);
}

FloorplanMetrics Floorplanner::evaluate(const SequencePair& pair) const {
  const SequencePairPacker::Result packed = [&] {
    const obs::ScopedPhase timer(obs::Phase::kPack);
    return sp_packer_.pack(pair);
  }();
  return evaluate_placement(packed.placement);
}

FloorplanSolution Floorplanner::run(const SnapshotFn& snapshot) const {
  return options_.engine == FloorplanEngine::kPolishExpression
             ? run_polish(snapshot)
             : run_sequence_pair(snapshot);
}

FloorplanSolution Floorplanner::run_polish(const SnapshotFn& snapshot) const {
  Stopwatch timer;
  Annealer<PolishExpression> annealer(
      [this](const PolishExpression& e) { return evaluate(e).cost; },
      [](const PolishExpression& e, Rng& rng) {
        PolishExpression next = e;
        const int kind = next.random_move(rng);
        if (obs::trace_enabled()) obs::note_move_kind(kind);
        return next;
      },
      options_.anneal);

  Annealer<PolishExpression>::SnapshotFn hook;
  if (snapshot) {
    hook = [this, &snapshot](int step, double temperature,
                             const PolishExpression& state, double) {
      TemperatureSnapshot snap;
      snap.step = step;
      snap.temperature = temperature;
      snap.placement = packer_.pack(state).placement;
      snap.metrics = evaluate_placement(snap.placement);
      snapshot(snap);
    };
  }

  Rng rng(options_.seed);
  auto result = annealer.run(
      PolishExpression::initial(static_cast<int>(netlist_->module_count())),
      rng, hook);

  FloorplanSolution solution;
  solution.expression = result.best;
  solution.representation = result.best.to_string();
  solution.placement = packer_.pack(result.best).placement;
  solution.metrics = evaluate_placement(solution.placement);
  solution.seconds = timer.seconds();
  solution.stats = result.stats;
  return solution;
}

FloorplanSolution Floorplanner::run_sequence_pair(
    const SnapshotFn& snapshot) const {
  Stopwatch timer;
  Annealer<SequencePair> annealer(
      [this](const SequencePair& p) { return evaluate(p).cost; },
      [](const SequencePair& p, Rng& rng) {
        SequencePair next = p;
        const int kind = next.random_move(rng);
        if (obs::trace_enabled()) obs::note_move_kind(kind);
        return next;
      },
      options_.anneal);

  Annealer<SequencePair>::SnapshotFn hook;
  if (snapshot) {
    hook = [this, &snapshot](int step, double temperature,
                             const SequencePair& state, double) {
      TemperatureSnapshot snap;
      snap.step = step;
      snap.temperature = temperature;
      snap.placement = sp_packer_.pack(state).placement;
      snap.metrics = evaluate_placement(snap.placement);
      snapshot(snap);
    };
  }

  Rng rng(options_.seed);
  auto result = annealer.run(
      SequencePair::initial(static_cast<int>(netlist_->module_count())), rng,
      hook);

  FloorplanSolution solution;
  solution.representation = result.best.to_string();
  solution.placement = sp_packer_.pack(result.best).placement;
  solution.metrics = evaluate_placement(solution.placement);
  solution.seconds = timer.seconds();
  solution.stats = result.stats;
  return solution;
}

}  // namespace ficon
