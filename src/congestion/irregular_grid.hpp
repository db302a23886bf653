// The Irregular-Grid congestion model — the paper's core contribution
// (section 4).
//
// Instead of scoring fixed-size cells everywhere, the chip is partitioned
// by the extended boundaries of every net's routing range ("cut lines");
// each resulting IR-grid is scored once with the constant-time Theorem 1
// approximation (or the exact Formula 3 in validation mode). Evaluation
// effort thus concentrates where routing ranges overlap — the places that
// can actually become congested — and the per-cell answer no longer depends
// on an arbitrary grid pitch.
//
// The fine-grid pitch parameter (grid_w/grid_h, e.g. 30x30 um^2 in the
// paper's experiments) only defines the lattice on which route probabilities
// are computed inside each routing range; it does not partition the chip.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>

#include "congestion/approx.hpp"
#include "congestion/cutlines.hpp"
#include "congestion/field.hpp"
#include "congestion/model.hpp"
#include "route/two_pin.hpp"

namespace ficon {

/// How per-IR-grid crossing probabilities are computed.
enum class IrEvalStrategy {
  /// The paper's algorithm: Theorem 1 normal approximation per IR-grid
  /// (with the section 4.5 pin rule and exact fallbacks). O(1) per region.
  kTheorem1,
  /// Exact Formula 3 per IR-grid. O(region edge length) per region;
  /// the validation reference.
  kExactPerRegion,
  /// Exact Formula 3 for ALL IR-grids of a net at once from one band pass:
  /// prefix sums of the right-exit terms at each covered IR column's last
  /// fine column (multiplicative recurrences, no binomials in the inner
  /// loop), from which every cell follows as a difference of two sums —
  /// or the transposed pass over the rows, whichever is cheaper. Same
  /// results as kExactPerRegion to floating-point accuracy but
  /// O(R + min(ncx * g2, ncy * g1)) per net for R covered IR-cells,
  /// instead of work per cell — the fast path for annealing-embedded use.
  /// An engineering improvement over the paper; see DESIGN.md ("Key
  /// design decisions").
  kBandedExact,
};

struct IrregularGridParams {
  double grid_w = 30.0;        ///< fine lattice pitch in x (um)
  double grid_h = 30.0;        ///< fine lattice pitch in y (um)
  double top_fraction = 0.10;  ///< cost = mean density over this area share
  IrEvalStrategy strategy = IrEvalStrategy::kBandedExact;
  ApproxOptions approx{};      ///< knobs for kTheorem1
  /// Cut lines closer than merge_factor * pitch are merged (alg. step 2;
  /// the paper uses "double of the width/length of a grid", i.e. 2.0).
  double merge_factor = 2.0;
  /// Capacity (entries) of the per-thread LRU memo for per-net probability
  /// matrices; 0 disables memoization. Only the region strategies and the
  /// banded strategy's per-region fallback (degenerate shapes, and nets no
  /// band pass fits) use it: the banded scorer recomputes every net, adds
  /// its cells straight into the flow grid and never looks the memo up.
  /// Hits and misses return bit-identical values, so this knob trades
  /// memory for speed without ever changing results.
  /// 4096 covers the live shape population of MCNC-scale anneals; larger
  /// capacities were measured slower (the working set outgrows the data
  /// caches faster than the hit rate rises).
  std::size_t score_cache_capacity = 4096;
};

/// Result of one Irregular-Grid evaluation: the cut lines plus the
/// accumulated crossing probability F(I) of every IR-cell.
///
/// Storage and the shared field queries come from FlowField; this class
/// binds them to the cut-line partition and keeps the section-4
/// vocabulary (flow, IR-cells).
class IrregularCongestionMap : public FlowField {
 public:
  /// @brief Empty map (all-zero flow) over the given cut lines.
  explicit IrregularCongestionMap(CutLines lines)
      : FlowField(lines.nx(), lines.ny()), lines_(std::move(lines)) {}

  /// @brief Adopt an already-accumulated flow vector (row-major, iy-major
  /// like flow()); used by the parallel evaluator's block reduction.
  IrregularCongestionMap(CutLines lines, std::vector<double> flow)
      : FlowField(lines.nx(), lines.ny(), std::move(flow)),
        lines_(std::move(lines)) {}

  const CutLines& lines() const { return lines_; }

  /// F(I): summed crossing probabilities of IR-cell (ix, iy).
  double flow(int ix, int iy) const { return value_at(ix, iy); }
  void add_flow(int ix, int iy, double p) { add_value(ix, iy, p); }

  /// Geometry of IR-cell (ix, iy), from the cut-line partition.
  Rect cell_rect(int ix, int iy) const override {
    return lines_.cell_rect(ix, iy);
  }

  /// Solution cost: area-weighted mean density over the `fraction` of chip
  /// area with the highest density ("average congestion cost of the top
  /// 10% most congested area units"). The marginal cell is taken
  /// fractionally so the cost is continuous in the cell layout.
  double top_fraction_cost(double fraction = 0.10) const {
    return top_area_fraction_density(fraction);
  }

  /// CSV dump: "xlo,ylo,xhi,yhi,flow,density" per IR-cell.
  void write_csv(std::ostream& os) const { write_density_csv(os); }

 private:
  CutLines lines_;
};

class IrregularGridModel : public CongestionModel {
 public:
  explicit IrregularGridModel(IrregularGridParams params = {})
      : params_(params) {
    FICON_REQUIRE(params.grid_w > 0.0 && params.grid_h > 0.0,
                  "fine pitch must be positive");
    FICON_REQUIRE(params.merge_factor >= 0.0, "negative merge factor");
    // Surface bad Theorem-1 knobs (odd Simpson panel counts, negative
    // thresholds) here, at model construction, not deep in a worker block.
    params.approx.validate();
  }

  const IrregularGridParams& params() const { return params_; }

  const char* name() const override { return "irregular_grid"; }

  /// @brief Run the full Congestion Information Computation algorithm
  /// (section 4.6) over the decomposed nets.
  ///
  /// Nets are scored in parallel on the global ThreadPool: they are split
  /// into blocks whose boundaries depend only on the net count, each block
  /// accumulates into its own partial flow grid, and the partials are
  /// reduced in block order — so the result is bit-identical for every
  /// `FICON_THREADS` value (see docs/ARCHITECTURE.md, "Threading model").
  /// Thread-safe: concurrent evaluate() calls on the same model are fine
  /// (log-factorial caches are thread_local).
  ///
  /// @param nets  decomposed 2-pin nets (see decompose_to_two_pin()).
  /// @param chip  chip rectangle; nets outside it are clipped/skipped.
  /// @return cut lines plus per-IR-cell accumulated crossing probability.
  IrregularCongestionMap evaluate(std::span<const TwoPinNet> nets,
                                  const Rect& chip) const;

  /// Algorithm step 5: top-10%-area mean density.
  double cost(std::span<const TwoPinNet> nets,
              const Rect& chip) const override {
    return evaluate(nets, chip).top_fraction_cost(params_.top_fraction);
  }

  /// Type-erased view of evaluate() for CongestionModel callers.
  std::unique_ptr<FlowField> evaluate_field(std::span<const TwoPinNet> nets,
                                            const Rect& chip) const override {
    return std::make_unique<IrregularCongestionMap>(evaluate(nets, chip));
  }

 private:
  IrregularGridParams params_;
};

}  // namespace ficon
