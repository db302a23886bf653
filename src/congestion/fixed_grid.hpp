// Fixed-size-grid probabilistic congestion model (paper section 3).
//
// This is the model of Sham & Young (ISPD'02, reference [4]) built on the
// probabilistic analysis of Lou et al. (ISPD'01, [3]): divide the chip into
// fixed-size cells, add up each net's cell-crossing probability (Formula 2)
// and score a floorplan by the mean congestion of the top 10% cells.
//
// Two roles in the reproduction:
//  * the baseline the Irregular-Grid model is compared against
//    (Experiment 3, Tables 4/5, grid sizes 100x100 and 50x50 um^2), and
//  * the *judging model* — the same estimator at a very fine 10x10 um^2
//    pitch, used as the ground-truth referee in all three experiments.
#pragma once

#include <memory>
#include <span>

#include "congestion/congestion_map.hpp"
#include "congestion/grid_spec.hpp"
#include "congestion/model.hpp"
#include "route/two_pin.hpp"

namespace ficon {

struct FixedGridParams {
  double grid_w = 100.0;       ///< cell width (um)
  double grid_h = 100.0;       ///< cell height (um)
  double top_fraction = 0.10;  ///< cost = mean of this fraction of cells
};

class FixedGridModel : public CongestionModel {
 public:
  explicit FixedGridModel(FixedGridParams params = {}) : params_(params) {
    FICON_REQUIRE(params.grid_w > 0.0 && params.grid_h > 0.0,
                  "grid pitch must be positive");
  }

  const FixedGridParams& params() const { return params_; }

  const char* name() const override { return "fixed_grid"; }

  /// @brief Build the full congestion map f(x,y) for the decomposed nets.
  ///
  /// Nets are accumulated in parallel on the global ThreadPool: blocks of
  /// nets (boundaries a function of the net count only) fill per-block
  /// partial grids that are merged in block order, so the map is
  /// bit-identical for every `FICON_THREADS` value. Thread-safe —
  /// log-factorial caches are thread_local (see docs/ARCHITECTURE.md).
  ///
  /// @param nets  decomposed 2-pin nets.
  /// @param chip  chip rectangle; defines the grid via the params' pitch.
  CongestionMap evaluate(std::span<const TwoPinNet> nets,
                         const Rect& chip) const;

  /// @brief Solution cost: mean of the top `top_fraction` most congested
  /// cells (the paper's section 3 objective).
  double cost(std::span<const TwoPinNet> nets,
              const Rect& chip) const override {
    return evaluate(nets, chip).top_fraction_cost(params_.top_fraction);
  }

  /// Type-erased view of evaluate() for CongestionModel callers.
  std::unique_ptr<FlowField> evaluate_field(std::span<const TwoPinNet> nets,
                                            const Rect& chip) const override {
    return std::make_unique<CongestionMap>(evaluate(nets, chip));
  }

 private:
  FixedGridParams params_;
};

/// The paper's judging model: fixed-grid estimator at 10x10 um^2.
inline FixedGridModel make_judging_model(double pitch = 10.0) {
  return FixedGridModel(FixedGridParams{pitch, pitch, 0.10});
}

}  // namespace ficon
