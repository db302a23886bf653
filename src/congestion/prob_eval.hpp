// ProbabilityEvaluator — the one documented front door for every
// probability query of the paper's math (Formulas 1–3, Theorem 1, and the
// batched kernel).
//
// Historically callers picked between three overlapping per-pair entry
// points (PathProbability::region_probability_exact / _oracle and
// ApproxRegionProbability::region_probability) and had to wire up the
// shared LogFactorialTable themselves. This facade owns the table and the
// three engines, exposes the per-pair reference surface AND the batched
// kernel surface, and is what examples, benches and downstream tools
// should construct. The deep headers (congestion/path_prob.hpp,
// congestion/approx.hpp) are internal outside src/congestion/ and the
// tests — ficon_lint rule F008 enforces that boundary.
//
// Threading: like the underlying engines, one evaluator is safe to use
// from one thread at a time (the batched methods mutate kernel scratch,
// and the log-factorial table grows unsynchronized). Use one instance per
// thread, exactly as IrregularGridModel does internally.
#pragma once

#include <optional>
#include <span>

#include "congestion/approx.hpp"
#include "congestion/path_prob.hpp"
#include "congestion/prob_kernel.hpp"
#include "geom/rect.hpp"
#include "numeric/factorial.hpp"

namespace ficon {

class ProbabilityEvaluator {
 public:
  /// Throws std::invalid_argument on invalid options
  /// (ApproxOptions::validate()).
  explicit ProbabilityEvaluator(ApproxOptions options = {})
      : exact_(table_), approx_(exact_, options), kernel_(exact_, options) {}

  // The engines hold pointers into the owned table; copying would dangle.
  ProbabilityEvaluator(const ProbabilityEvaluator&) = delete;
  ProbabilityEvaluator& operator=(const ProbabilityEvaluator&) = delete;

  // --- Per-pair reference surface (exact Formulas 1–3 and the oracles).

  /// Formula 2: probability that the net passes through cell (x, y).
  double cell_probability(const NetGridShape& s, int x, int y) const {
    return exact_.cell_probability(s, x, y);
  }

  /// Formula 3, exact: probability that the net crosses the region.
  double region_probability_exact(const NetGridShape& s,
                                  const GridRect& region) const {
    return exact_.region_probability_exact(s, region);
  }

  /// Brute-force DP oracle for region_probability_exact (validation).
  double region_probability_oracle(const NetGridShape& s,
                                   const GridRect& region) const {
    return exact_.region_probability_oracle(s, region);
  }

  /// Path-count DP oracle for cell_probability (validation).
  double cell_probability_oracle(const NetGridShape& s, int x, int y) const {
    return exact_.cell_probability_oracle(s, x, y);
  }

  /// True iff the clipped region covers a pin cell of the net.
  bool region_covers_pin(const NetGridShape& s, const GridRect& region) const {
    return exact_.region_covers_pin(s, region);
  }

  // --- The paper's per-region policy (pin rule + fallbacks + Theorem 1).

  /// Per-pair form; a batch-of-one over the kernel.
  double region_probability(const NetGridShape& s, const GridRect& region) {
    GridRect r = region;
    double out = 0.0;
    kernel_.region_probability_batch(s, std::span<const GridRect>(&r, 1),
                                     std::span<double>(&out, 1));
    return out;
  }

  /// Batched form: one net against many regions over flat arrays.
  void region_probability_batch(const NetGridShape& s,
                                std::span<const GridRect> regions,
                                std::span<double> out) {
    kernel_.region_probability_batch(s, regions, out);
  }

  // --- Raw Theorem 1 (type I canonical frame) and its integrand probes,
  //     used by the Figure 8 precision experiment and the tests.

  /// Scalar reference Theorem 1; nullopt on any invalid Simpson sample.
  std::optional<double> theorem1(int g1, int g2, const GridRect& region) const {
    return approx_.theorem1(g1, g2, region);
  }

  /// Batched Theorem 1 on the vector kernel; NaN where invalid.
  void theorem1_batch(int g1, int g2, std::span<const GridRect> regions,
                      std::span<double> out) {
    kernel_.theorem1_batch(g1, g2, regions, out);
  }

  /// Function (1)/(2) integrand samples over an array of abscissae.
  void eval_top_exit_terms(int g1, int g2, int y2, std::span<const double> xs,
                           std::span<double> out) {
    kernel_.eval_top_exit_terms(g1, g2, y2, xs, out);
  }
  void eval_right_exit_terms(int g1, int g2, int x2,
                             std::span<const double> ys,
                             std::span<double> out) {
    kernel_.eval_right_exit_terms(g1, g2, x2, ys, out);
  }

  /// Pointwise exact/approximated exit terms (Figure 8 probes).
  double top_exit_term_exact(int g1, int g2, int x, int y2) const {
    return approx_.top_exit_term_exact(g1, g2, x, y2);
  }
  std::optional<double> top_exit_term_approx(int g1, int g2, double x,
                                             int y2) const {
    return approx_.top_exit_term_approx(g1, g2, x, y2);
  }
  double right_exit_term_exact(int g1, int g2, int x2, int y) const {
    return approx_.right_exit_term_exact(g1, g2, x2, y);
  }
  std::optional<double> right_exit_term_approx(int g1, int g2, int x2,
                                               double y) const {
    return approx_.right_exit_term_approx(g1, g2, x2, y);
  }

  // --- Plumbing.

  const ApproxOptions& options() const { return approx_.options(); }
  /// The owned log-factorial table (grows on demand; see factorial.hpp).
  LogFactorialTable& table() { return table_; }
  /// The batched kernel, for callers that drive it directly
  /// (e.g. for_each_cell_row, the fixed-grid Formula 2 mirror).
  ProbKernel& kernel() { return kernel_; }

 private:
  LogFactorialTable table_;
  PathProbability exact_;
  ApproxRegionProbability approx_;
  ProbKernel kernel_;
};

}  // namespace ficon
