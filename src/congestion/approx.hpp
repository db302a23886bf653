// Theorem 1: constant-time approximation of the IR-grid crossing
// probability (paper section 4.4) plus the precision rules of section 4.5.
//
// The exact Formula 3 sums Ta*Tb products along the exit edges of an
// IR-grid, which costs O(edge length). The paper observes that each
// normalized exit term is a hypergeometric-like function h(x, r, R, Q) with
// Q = x + y2, R = g1+g2-3, r = g1-1, approximates it by a normal density
// (hypergeometric -> binomial -> normal), and integrates with Simpson's
// rule — making the per-region cost independent of region size.
//
// Section 4.5 identifies where the approximation breaks: whenever
// (x + y2)/(g1+g2-3) hits 0 or >= 1, i.e. exactly the four cells
// {(0,0), (g1-2,g2-1), (g1-1,g2-2), (g1-1,g2-1)} adjacent to the two pins
// of a type I net. The algorithm sidesteps them by assigning probability 1
// to IR-grids that cover a pin; any *other* invalid sample (possible only
// for very small ranges) falls back to the exact formula.
#pragma once

#include <optional>

#include "congestion/path_prob.hpp"
#include "geom/rect.hpp"
#include "util/check.hpp"

namespace ficon {

/// Tuning knobs for the Theorem 1 evaluation.
struct ApproxOptions {
  /// Approximate sum_{x1..x2} f(x) by the integral over
  /// [x1-1/2, x2+1/2] instead of the paper's literal [x1, x2]. Markedly
  /// more accurate (see bench_fig8_precision); on by default.
  bool continuity_correction = true;
  /// Simpson panels per integral; even, >= 2. Fixed => O(1) per region.
  int simpson_panels = 16;
  /// Ranges with g1+g2 below this use exact Formula 3 outright — the
  /// normal approximation needs a few cells of headroom and the exact sum
  /// is trivially cheap there anyway.
  int small_range_threshold = 8;
  /// Regions whose exit-edge length (x-span + y-span in cells) is at most
  /// this also use exact Formula 3: its cost is O(edge length), so for
  /// small regions exact is as fast as the fixed-panel Simpson evaluation
  /// and strictly more accurate. Theorem 1 earns its keep on LARGE
  /// regions, which is exactly where it is applied.
  int small_region_threshold = 12;
  /// Ranges narrower than this in their thin direction (min(g1,g2)) also
  /// use exact Formula 3: the hypergeometric-to-normal chain has too little
  /// support there (deviations up to ~0.12 on e.g. 6x40 ranges), and the
  /// exact sums are bounded by the thin dimension anyway.
  int narrow_range_threshold = 12;

  /// Explicit construction-time validation: every evaluator that consumes
  /// these options (ApproxRegionProbability, ProbKernel,
  /// IrregularGridModel) calls this and surfaces a std::invalid_argument
  /// instead of silently misbehaving on odd Simpson panel counts or
  /// negative thresholds.
  void validate() const {
    FICON_REQUIRE(simpson_panels >= 2 && simpson_panels % 2 == 0,
                  "ApproxOptions: simpson_panels must be even and >= 2");
    FICON_REQUIRE(small_range_threshold >= 0,
                  "ApproxOptions: small_range_threshold must be >= 0");
    FICON_REQUIRE(small_region_threshold >= 0,
                  "ApproxOptions: small_region_threshold must be >= 0");
    FICON_REQUIRE(narrow_range_threshold >= 0,
                  "ApproxOptions: narrow_range_threshold must be >= 0");
  }
};

/// Theorem 1 evaluator — the scalar libm reference that the tests hold
/// ProbKernel against.
///
/// INTERNAL: outside src/congestion/ and the tests, include
/// congestion/prob_kernel.hpp, which brings this class in; ficon_lint rule
/// F008 enforces the include boundary. The exposed per-term functions
/// exist so that the Figure 8 precision experiment (exact-vs-approximated
/// curves) and the tests can probe the integrand pointwise.
class ApproxRegionProbability {
 public:
  ApproxRegionProbability(PathProbability exact, ApproxOptions options = {})
      : exact_(exact), options_(options) {
    options_.validate();
  }

  /// Exact value of Function (1): the normalized top-edge exit term
  ///   Ta(x, y2) * Tb(x, y2+1) / Ta(g1-1, g2-1)
  /// in the type I frame. Zero when the crossing is out of range.
  double top_exit_term_exact(int g1, int g2, int x, int y2) const;

  /// Normal-approximated Function (1) at (possibly fractional) x.
  /// nullopt where the approximation is invalid (mu ratio outside (0,1)
  /// or non-positive variance) — the gray cells of Figure 7.
  std::optional<double> top_exit_term_approx(int g1, int g2, double x,
                                             int y2) const;

  /// Exact value of Function (2): the normalized right-edge exit term
  ///   Ta(x2, y) * Tb(x2+1, y) / Ta(g1-1, g2-1), type I frame.
  double right_exit_term_exact(int g1, int g2, int x2, int y) const;

  /// Normal-approximated Function (2) at (possibly fractional) y.
  std::optional<double> right_exit_term_approx(int g1, int g2, int x2,
                                               double y) const;

  /// Theorem 1 as written: approximate crossing probability for a region
  /// in the type I frame. Returns nullopt if any Simpson sample hits an
  /// invalid integrand (caller falls back to exact).
  std::optional<double> theorem1(int g1, int g2, const GridRect& region) const;

 private:
  PathProbability exact_;
  ApproxOptions options_;
};

}  // namespace ficon
