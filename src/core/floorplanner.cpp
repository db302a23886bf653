#include "core/floorplanner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/trace.hpp"
#include "route/two_pin.hpp"
#include "util/stopwatch.hpp"

namespace ficon {

EvalContext::EvalContext(const Netlist& netlist)
    : netlist_(&netlist), packer_(netlist), sp_packer_(netlist) {}

FloorplanMetrics EvalContext::evaluate(const PolishExpression& expr,
                                       const CongestionModel* model) {
  const SlicingResult* packed = nullptr;
  {
    const obs::ScopedPhase timer(obs::Phase::kPack);
    packed = &packer_.pack_cached_ref(expr);
  }
  return evaluate(packed->placement, model);
}

FloorplanMetrics EvalContext::evaluate(const SequencePair& pair,
                                       const CongestionModel* model) {
  const SlicingResult packed = [&] {
    const obs::ScopedPhase timer(obs::Phase::kPack);
    return sp_packer_.pack(pair);
  }();
  return evaluate(packed.placement, model);
}

FloorplanMetrics EvalContext::evaluate(const Placement& placement,
                                       const CongestionModel* model) {
  FloorplanMetrics m;
  // Both packers set area = width * height with the chip at the origin,
  // so chip.area() is that value bit for bit.
  m.area = placement.chip.area();
  // One decomposition feeds both the wirelength and congestion terms;
  // total_length sums the same edges in the same order as mst_wirelength.
  const std::span<const TwoPinNet> nets = [&] {
    const obs::ScopedPhase timer(obs::Phase::kDecompose);
    return decomposer_.decompose(*netlist_, placement);
  }();
  m.wirelength = total_length(nets);
  if (model != nullptr) {
    const obs::ScopedPhase timer(obs::Phase::kCongestion);
    m.congestion = model->cost(nets, placement.chip);
  }
  return m;
}

Floorplanner::Floorplanner(const Netlist& netlist, FloorplanOptions options)
    : options_(options), context_(netlist) {
  options_.objective.validate();
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
  model_ = make_congestion_model(options_.objective.model,
                                 options_.objective.irregular,
                                 options_.objective.fixed);

  // Normalization baselines from a short random walk over the active
  // representation (fixed derived seed so the objective itself is
  // deterministic and independent of run()).
  Rng rng(SplitMix64(options_.seed ^ 0xA5A5A5A5DEADBEEFull).next());
  const int samples =
      std::max(30, 2 * static_cast<int>(netlist.module_count()));
  double area_sum = 0.0, wire_sum = 0.0, cgt_sum = 0.0;
  const auto walk = [&](auto state) {
    for (int i = 0; i < samples; ++i) {
      state.random_move(rng);
      const FloorplanMetrics m = context_.evaluate(state, scoring_model());
      area_sum += m.area;
      wire_sum += m.wirelength;
      cgt_sum += m.congestion;
    }
  };
  const int modules = static_cast<int>(netlist.module_count());
  if (options_.engine == FloorplanEngine::kPolishExpression) {
    walk(PolishExpression::initial(modules));
  } else {
    walk(SequencePair::initial(modules));
  }
  area_scale_ = std::max(area_sum / samples, 1e-12);
  wire_scale_ = std::max(wire_sum / samples, 1e-12);
  congestion_scale_ = std::max(cgt_sum / samples, 1e-12);
  // Geometry whose metrics overflow (a 1e300 module, say) would anneal
  // toward inf/nan costs; stop here, before the run.
  for (const auto& [name, scale] :
       {std::pair{"area", area_scale_}, std::pair{"wirelength", wire_scale_},
        std::pair{"congestion", congestion_scale_}}) {
    FICON_REQUIRE(std::isfinite(scale), std::string("normalization ") +
                                            name + " is not finite");
  }
}

double Floorplanner::normalized_cost(const FloorplanMetrics& m) const {
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

template <typename State>
FloorplanMetrics Floorplanner::score(const State& state) const {
  FloorplanMetrics m = context_.evaluate(state, scoring_model());
  m.cost = normalized_cost(m);
  return m;
}

FloorplanMetrics Floorplanner::evaluate(const PolishExpression& expr) const {
  return score(expr);
}

FloorplanMetrics Floorplanner::evaluate(const SequencePair& pair) const {
  return score(pair);
}

FloorplanSolution Floorplanner::run(const SnapshotFn& snapshot) const {
  return options_.engine == FloorplanEngine::kPolishExpression
             ? run_engine<PolishExpression>(snapshot)
             : run_engine<SequencePair>(snapshot);
}

template <typename State>
FloorplanSolution Floorplanner::run_engine(const SnapshotFn& snapshot) const {
  Stopwatch timer;
  Annealer<State> annealer(
      [this](const State& s) { return evaluate(s).cost; },
      [](const State& s, Rng& rng) {
        State next = s;
        const int kind = next.random_move(rng);
        if (obs::trace_enabled()) obs::note_move_kind(kind);
        return next;
      },
      options_.anneal);

  typename Annealer<State>::SnapshotFn hook;
  if (snapshot) {
    hook = [this, &snapshot](int step, double temperature, const State& state,
                             double) {
      TemperatureSnapshot snap;
      snap.step = step;
      snap.temperature = temperature;
      snap.placement = context_.place(state);
      snap.metrics = score(snap.placement);
      snapshot(snap);
    };
  }

  Rng rng(options_.seed);
  auto result = annealer.run(
      State::initial(static_cast<int>(netlist().module_count())), rng, hook);

  FloorplanSolution solution;
  if constexpr (std::is_same_v<State, PolishExpression>) {
    solution.expression = result.best;
  }
  solution.representation = result.best.to_string();
  solution.placement = context_.place(result.best);
  solution.metrics = score(solution.placement);
  solution.seconds = timer.seconds();
  solution.stats = result.stats;
  return solution;
}

}  // namespace ficon
