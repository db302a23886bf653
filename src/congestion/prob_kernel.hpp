// ProbKernel: the paper's per-region probability policy as the annealing
// loop runs it (algorithm steps 3.1-3.3, sections 4.4-4.5), one region per
// call:
//
//   region_probability()   — pin rule, structural certainty, exact
//                            Formula 3 fallbacks, then Theorem 1; what
//                            IrregularGridModel's kTheorem1 strategy runs
//                            for every IR-cell of a net,
//   theorem1()             — raw Theorem 1 in the type I frame (nullopt
//                            where a Simpson sample is invalid),
//   eval_top_exit_terms() /
//   eval_right_exit_terms() — Function (1)/(2) integrand samples over an
//                            array of abscissae (NaN = the section 4.5
//                            invalid cells),
//   for_each_cell_row()    — the fixed-grid mirror: Formula 2 for one net
//                            row by row via the multiplicative recurrence
//                            (what FixedGridModel runs).
//
// The probability stack is three classes, one job each: PathProbability
// (exact Formula 3 and the oracles), ApproxRegionProbability (Theorem 1 on
// libm plus the Figure 8 probes; the test reference), and this kernel.
// Every Simpson sample of a region flows through the vector exp of
// numeric/kernel.hpp. Fallback decisions (validity of samples) use the
// reference's IEEE predicates and are bit-identical to it; approximated
// values agree with it to the bound asserted in prob_property_test.
//
// A ProbKernel owns per-call scratch, so it is cheap to keep per
// block-scorer (as IrregularGridModel does) and safe to use from one
// thread at a time, like the rest of the scoring stack.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "congestion/approx.hpp"
#include "congestion/path_prob.hpp"
#include "geom/rect.hpp"

namespace ficon {

class ProbKernel {
 public:
  /// `exact` is copied (it is a cheap handle onto a shared log-factorial
  /// table; the table must outlive the kernel). Throws std::invalid_argument
  /// on invalid options (ApproxOptions::validate()).
  explicit ProbKernel(const PathProbability& exact, ApproxOptions options = {})
      : exact_(exact), options_(options) {
    options_.validate();
  }

  /// The paper's full per-region policy for one region of a net: the
  /// crossing probability of `region` (raw, possibly out-of-range rects
  /// are clamped to the routing range first).
  double region_probability(const NetGridShape& s, const GridRect& region);

  /// Raw Theorem 1 for one region in the canonical type I frame: both
  /// exit-edge integrals are planned up front and all of the region's
  /// Simpson samples flow through one setup/sqrt/pdf pipeline; nullopt on
  /// any invalid sample (the caller decides the fallback). No clamping, no
  /// pin rule — callers pass in-range rects.
  std::optional<double> theorem1(int g1, int g2, const GridRect& region);

  /// Function (1) samples: out[i] = normal-approximated top-exit term at
  /// x = xs[i] for exit row y2 (type I frame); NaN where the approximation
  /// is invalid (exactly where the scalar probe returns nullopt).
  void eval_top_exit_terms(int g1, int g2, int y2, std::span<const double> xs,
                           std::span<double> out);

  /// Function (2) samples: the right-exit mirror at y = ys[i], exit
  /// column x2.
  void eval_right_exit_terms(int g1, int g2, int x2,
                             std::span<const double> ys,
                             std::span<double> out);

  /// Fixed-grid mirror: Formula 2 for one non-degenerate net, emitted row
  /// by row in the canonical type I frame. `emit(ly, row)` receives each
  /// fine row's g1 cell probabilities (the span is kernel scratch, valid
  /// only during the call). Each row starts at its first normal cell
  /// (first_normal_term), so rows of long routing ranges no longer
  /// underflow to 0; a row whose first cell is normal keeps the bits of
  /// the historical inline recurrence in fixed_grid.cpp.
  template <typename RowFn>
  void for_each_cell_row(const NetGridShape& s, RowFn&& emit) {
    const int g1 = s.g1;
    const int g2 = s.g2;
    LogFactorialTable& table = exact_.table();
    row_.resize(static_cast<std::size_t>(g1));
    const double log_total = exact_.log_total(s);
    for (int ly = 0; ly < g2; ++ly) {
      // Start at the row's first normal P(lx, ly) (P(0, ly) = Tb(0, ly) /
      // Total unless that underflows), then advance along the row by the
      // exact ratio P(x+1,y)/P(x,y) = (x+y+1)/(x+1) * a/(a+b).
      const FirstNormalTerm first =
          first_normal_term(table, ly, g2 - 1 - ly, g1 - 1, log_total);
      std::fill(row_.begin(), row_.begin() + std::min(first.index, g1), 0.0);
      double p = first.value;
      for (int lx = first.index; lx < g1; ++lx) {
        row_[static_cast<std::size_t>(lx)] = p;
        if (lx < g1 - 1) {
          const double a = static_cast<double>(g1 - 1 - lx);
          const double b = static_cast<double>(g2 - 1 - ly);
          p *= (static_cast<double>(lx + ly) + 1.0) /
               (static_cast<double>(lx) + 1.0) * a / (a + b);
        }
      }
      emit(ly, std::span<const double>(row_.data(),
                                       static_cast<std::size_t>(g1)));
    }
  }

  /// The exact engine behind the fallbacks; IrregularGridModel's
  /// kExactPerRegion strategy scores with it directly.
  const PathProbability& exact() const { return exact_; }

 private:
  PathProbability exact_;
  ApproxOptions options_;
  // Scratch reused across calls (one net's samples / rows at a time).
  std::vector<double> xs_, mus_, inv_sigmas_, terms_, row_;
};

}  // namespace ficon
