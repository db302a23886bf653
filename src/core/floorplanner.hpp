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

#include <functional>
#include <memory>
#include <span>

#include "anneal/annealer.hpp"
#include "circuit/netlist.hpp"
#include "congestion/fixed_grid.hpp"
#include "congestion/irregular_grid.hpp"
#include "congestion/model.hpp"
#include "floorplan/polish.hpp"
#include "floorplan/sequence_pair.hpp"
#include "floorplan/slicing.hpp"
#include "route/two_pin.hpp"

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
  double cost = 0.0;        ///< normalized weighted cost
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

/// @brief One simulated-annealing floorplanning engine bound to a netlist
/// and an objective.
///
/// Evaluation runs the incremental pipeline: Polish expressions re-pack
/// over cached slicing shape curves (SlicingPacker::pack_cached_ref), and
/// one caching decomposition (TwoPinDecomposer) feeds both the wirelength
/// and the congestion term. Each cached value is a pure function of its
/// key, so results equal the from-scratch references (SlicingPacker::pack,
/// mst_wirelength, decompose_to_two_pin) bit for bit.
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
  /// (exposed for tests, examples and the snapshot path).
  FloorplanMetrics evaluate(const PolishExpression& expr) const;

  /// @brief Same for a sequence pair (kSequencePair engine).
  FloorplanMetrics evaluate(const SequencePair& pair) const;

  /// @brief Score an already-packed placement under this objective.
  FloorplanMetrics evaluate_placement(const Placement& placement) const;

  const Netlist& netlist() const { return *netlist_; }
  const FloorplanOptions& options() const { return options_; }

  /// @brief The congestion estimator behind the gamma term, dispatched
  /// through the unified CongestionModel interface (nullptr for kNone).
  const CongestionModel* congestion_model() const { return model_.get(); }

 private:
  /// The annealing run shared by both engines (State is PolishExpression
  /// or SequencePair).
  template <typename State>
  FloorplanSolution run_engine(const SnapshotFn& snapshot) const;
  /// From-scratch placement of a state, for snapshots and the final
  /// solution.
  Placement place(const PolishExpression& expr) const {
    return packer_.pack(expr).placement;
  }
  Placement place(const SequencePair& pair) const {
    return sp_packer_.pack(pair).placement;
  }
  double congestion_of(std::span<const TwoPinNet> nets,
                       const Rect& chip) const;
  double raw_cost(const FloorplanMetrics& m) const;

  const Netlist* netlist_;
  FloorplanOptions options_;
  // The packer and decomposer are mutable because the incremental pipeline
  // keeps per-instance caches/buffers warm across const evaluations. The
  // class is documented as not internally synchronized, so const methods
  // mutating instance-local caches do not widen the threading contract.
  mutable SlicingPacker packer_;
  mutable TwoPinDecomposer decomposer_;
  SequencePairPacker sp_packer_;
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
