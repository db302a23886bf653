// Routability-driven floorplanner facade — the system the paper embeds its
// congestion model into.
//
// Cost function (paper section 5):
//     alpha * Area + beta * Wirelength + gamma * Congestion
// with each term normalized by its average over a warm-up random walk so
// the weights are scale-free across circuits. The congestion term is
// pluggable: none (Experiment 1 baseline), the Irregular-Grid model (the
// paper's contribution) or the fixed-size-grid model (the Experiment 3
// baseline). Multi-pin nets are decomposed by minimum spanning tree and the
// wirelength column reports the decomposed Manhattan length, as in the
// paper's tables.
#pragma once

#include <cmath>
#include <functional>
#include <memory>

#include "anneal/annealer.hpp"
#include "circuit/netlist.hpp"
#include "congestion/fixed_grid.hpp"
#include "congestion/irregular_grid.hpp"
#include "congestion/model.hpp"
#include "floorplan/polish.hpp"
#include "floorplan/sequence_pair.hpp"
#include "floorplan/slicing.hpp"
#include "route/two_pin.hpp"
#include "util/check.hpp"

namespace ficon {

/// Floorplan representation driving the annealer. The paper uses
/// normalized Polish expressions [7]; the sequence-pair engine exists to
/// demonstrate the congestion model is floorplanner-agnostic (section 4.6:
/// "can be embedded into any general floorplanners").
enum class FloorplanEngine {
  kPolishExpression,  ///< Wong-Liu slicing floorplans (the paper's host)
  kSequencePair,      ///< Murata et al. non-slicing floorplans
};

/// @brief The annealing objective: alpha*Area + beta*Wire +
/// gamma*Congestion, each term normalized by a random-walk baseline.
struct FloorplanObjective {
  double alpha = 1.0;  ///< area weight
  double beta = 1.0;   ///< wirelength weight
  double gamma = 0.0;  ///< congestion weight (ignored for kNone)
  CongestionModelKind model = CongestionModelKind::kNone;
  IrregularGridParams irregular{};  ///< params when model == kIrregularGrid
  FixedGridParams fixed{};          ///< params when model == kFixedGrid

  /// Every weight must be finite and >= 0: a negative weight rewards what
  /// the objective penalizes. The Floorplanner constructor and the
  /// service's evaluate call this and surface a std::invalid_argument.
  void validate() const {
    for (const double w : {alpha, beta, gamma}) {
      FICON_REQUIRE(std::isfinite(w) && w >= 0.0,
                    "objective weights must be non-negative");
    }
  }
};

/// @brief Everything a Floorplanner run depends on; two runs with equal
/// options produce identical solutions regardless of FICON_THREADS.
struct FloorplanOptions {
  FloorplanObjective objective{};
  FloorplanEngine engine = FloorplanEngine::kPolishExpression;
  AnnealOptions anneal{};
  /// Multiplies moves_per_temperature (which itself defaults to
  /// 10 * module_count when left at 0). FICON_SCALE maps here. Must be
  /// positive, and the product must fit in an int; the Floorplanner
  /// constructor throws std::invalid_argument otherwise.
  double effort = 1.0;
  std::uint64_t seed = 1;  ///< root of every RNG stream of the run
};

/// Metrics of one packed floorplan under a fixed objective.
struct FloorplanMetrics {
  double area = 0.0;        ///< chip area, um^2
  double wirelength = 0.0;  ///< MST-decomposed Manhattan length, um
  double congestion = 0.0;  ///< objective-model cost (0 for kNone)
  /// Weighted cost: walk-normalized for a Floorplanner, raw
  /// alpha*A + beta*W + gamma*C for a service evaluate.
  double cost = 0.0;
};

struct FloorplanSolution {
  /// Final Polish expression (kPolishExpression engine only; empty for the
  /// sequence-pair engine — see `representation` for either).
  PolishExpression expression;
  /// Human-readable final representation, engine-agnostic.
  std::string representation;
  Placement placement;
  FloorplanMetrics metrics;
  double seconds = 0.0;  ///< wall-clock annealing time
  AnnealStats stats;
};

/// Per-temperature intermediate solution (Experiment 2 / Figure 9 hook).
struct TemperatureSnapshot {
  int step = 0;
  double temperature = 0.0;
  Placement placement;
  FloorplanMetrics metrics;
};

/// @brief The one evaluation pipeline: pack a floorplan state, decompose
/// every multi-pin net by MST once, and score area, wirelength and
/// (given a model) congestion. The Floorplanner and the service's
/// evaluate requests both score through it and differ only in the cost
/// they form from the metrics.
///
/// Polish expressions re-pack over cached slicing shape curves
/// (SlicingPacker::pack_cached_ref), and one caching decomposition
/// (TwoPinDecomposer) feeds both the wirelength and the congestion term.
/// Each cached value is a pure function of its key, so results equal the
/// from-scratch references (SlicingPacker::pack, mst_wirelength,
/// decompose_to_two_pin) bit for bit. The pack, decompose and congestion
/// steps are traced as obs::Phase::kPack, kDecompose and kCongestion.
///
/// Not internally synchronized: one context per thread.
class EvalContext {
 public:
  /// @param netlist circuit to score; must outlive the context.
  explicit EvalContext(const Netlist& netlist);

  /// @brief Area, MST wirelength and, when `model` is non-null, its
  /// congestion cost of one state. `cost` is left at 0: the caller owns
  /// the cost rule.
  FloorplanMetrics evaluate(const PolishExpression& expr,
                            const CongestionModel* model);
  FloorplanMetrics evaluate(const SequencePair& pair,
                            const CongestionModel* model);
  /// Same for an already-packed placement (chip at the origin).
  FloorplanMetrics evaluate(const Placement& placement,
                            const CongestionModel* model);

  /// From-scratch placement of a state, for snapshots and final
  /// solutions.
  Placement place(const PolishExpression& expr) const {
    return packer_.pack(expr).placement;
  }
  Placement place(const SequencePair& pair) const {
    return sp_packer_.pack(pair).placement;
  }

  const Netlist& netlist() const { return *netlist_; }

 private:
  const Netlist* netlist_;
  SlicingPacker packer_;
  SequencePairPacker sp_packer_;
  TwoPinDecomposer decomposer_;
};

/// @brief One simulated-annealing floorplanning engine bound to a netlist
/// and an objective.
///
/// Every move, the normalization walk, each snapshot and the final
/// solution are scored by one EvalContext; the Floorplanner adds only the
/// walk-normalized cost rule on top of its metrics.
///
/// Not internally synchronized — construct one instance per thread (the
/// seed sweep in exp/experiment.hpp does exactly that). The congestion
/// models it calls are themselves parallel over the global ThreadPool;
/// when the sweep already owns the pool those nested evaluations run
/// inline (see util/thread_pool.hpp).
class Floorplanner {
 public:
  /// @param netlist circuit to place; must outlive the Floorplanner.
  /// @param options objective, engine, schedule and seed (copied).
  Floorplanner(const Netlist& netlist, FloorplanOptions options);

  /// Per-temperature observer (Experiment 2 / Figure 9 hook).
  using SnapshotFn = std::function<void(const TemperatureSnapshot&)>;

  /// @brief Run one annealing optimization; deterministic in options.seed.
  /// @param snapshot optional per-temperature callback.
  /// @return best solution found, with metrics and annealing statistics.
  FloorplanSolution run(const SnapshotFn& snapshot = {}) const;

  /// @brief Pack and score a single expression under this objective
  /// (exposed for tests and examples).
  FloorplanMetrics evaluate(const PolishExpression& expr) const;

  /// @brief Same for a sequence pair (kSequencePair engine).
  FloorplanMetrics evaluate(const SequencePair& pair) const;

  const Netlist& netlist() const { return context_.netlist(); }
  const FloorplanOptions& options() const { return options_; }

  /// @brief The congestion estimator behind the gamma term, dispatched
  /// through the unified CongestionModel interface (nullptr for kNone).
  const CongestionModel* congestion_model() const { return model_.get(); }

 private:
  /// The annealing run shared by both engines (State is PolishExpression
  /// or SequencePair).
  template <typename State>
  FloorplanSolution run_engine(const SnapshotFn& snapshot) const;
  /// Metrics of a state (or placement) with the normalized cost filled in.
  template <typename State>
  FloorplanMetrics score(const State& state) const;
  /// The model the objective scores with: model_ when gamma > 0, else
  /// none (model_ still backs congestion_model() at gamma = 0).
  const CongestionModel* scoring_model() const {
    return options_.objective.gamma > 0.0 ? model_.get() : nullptr;
  }
  double normalized_cost(const FloorplanMetrics& m) const;

  FloorplanOptions options_;
  // Mutable because the pipeline keeps per-instance caches warm across
  // const evaluations. The class is documented as not internally
  // synchronized, so this does not widen the threading contract.
  mutable EvalContext context_;
  /// Unified congestion estimator (nullptr for kNone); built once by
  /// make_congestion_model() from the objective's kind + params.
  std::unique_ptr<CongestionModel> model_;
  // Normalization baselines, estimated once in the constructor from a
  // seeded random walk (independent of run()'s RNG stream).
  double area_scale_ = 1.0;
  double wire_scale_ = 1.0;
  double congestion_scale_ = 1.0;
};

}  // namespace ficon
