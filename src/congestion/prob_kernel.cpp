#include "congestion/prob_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "numeric/kernel.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace ficon {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

// Per-sample setup for Function (1): mean and reciprocal stddev of the
// top-exit normal approximation, NaN inv_sigma marking invalid samples
// (1/sqrt(NaN) is NaN, so the select feeds sqrt/divide directly and the
// marker survives). p, var and the validity predicate are IDENTICAL IEEE
// expressions to the scalar probe (top_exit_term_approx), bit for bit, so
// which samples are invalid (and hence which regions fall back to exact
// Formula 3) matches the reference. Only the pdf evaluation differs.
// Both the public sampler and the fused Theorem 1 path below go through
// this one helper so the expressions cannot drift apart.
void setup_top_exit(int g1, int g2, int y2, std::span<const double> xs,
                    std::span<double> mus, std::span<double> inv_sigmas) {
  const double R = g1 + g2 - 3;
  const double c_var =
      (static_cast<double>(g2 - 2) / (g1 + g2 - 4)) * (g1 - 1);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double p = (xs[i] + y2) / R;
    const double var = c_var * p * (1.0 - p);
    const bool valid = p > 0.0 && p < 1.0 && var > 0.0;
    mus[i] = (g1 - 1) * p;
    inv_sigmas[i] = 1.0 / std::sqrt(valid ? var : kNaN);
  }
}

// Function (2) mirror: right-exit setup, same bit-identity contract.
void setup_right_exit(int g1, int g2, int x2, std::span<const double> ys,
                      std::span<double> mus, std::span<double> inv_sigmas) {
  const double R = g1 + g2 - 3;
  const double c_var =
      (static_cast<double>(g1 - 2) / (g1 + g2 - 4)) * (g2 - 1);
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double p = (x2 + ys[i]) / R;
    const double var = c_var * p * (1.0 - p);
    const bool valid = p > 0.0 && p < 1.0 && var > 0.0;
    mus[i] = (g2 - 1) * p;
    inv_sigmas[i] = 1.0 / std::sqrt(valid ? var : kNaN);
  }
}

// Composite-Simpson weighted sum over n = panels+1 samples, branchless:
// ends once, odd interior samples times 4, even interior times 2. Any NaN
// sample poisons the sum — the kernel's nullopt condition.
double simpson_weighted_sum(const double* t, std::size_t n) {
  double s4 = 0.0;
  double s2 = 0.0;
  for (std::size_t i = 1; i + 1 < n; i += 2) s4 += t[i];
  for (std::size_t i = 2; i + 1 < n; i += 2) s2 += t[i];
  return t[0] + t[n - 1] + 4.0 * s4 + 2.0 * s2;
}

}  // namespace

void ProbKernel::eval_top_exit_terms(int g1, int g2, int y2,
                                     std::span<const double> xs,
                                     std::span<double> out) {
  FICON_REQUIRE(xs.size() == out.size(),
                "eval_top_exit_terms: span size mismatch");
  if (g1 + g2 < 5) {
    std::fill(out.begin(), out.end(), kNaN);
    return;
  }
  const double coeff = static_cast<double>(g2 - 1) / (g1 + g2 - 2);
  mus_.resize(xs.size());
  inv_sigmas_.resize(xs.size());
  setup_top_exit(g1, g2, y2, xs, mus_, inv_sigmas_);
  kernel::normal_pdf_batch(xs, mus_, inv_sigmas_, coeff, out);
}

void ProbKernel::eval_right_exit_terms(int g1, int g2, int x2,
                                       std::span<const double> ys,
                                       std::span<double> out) {
  FICON_REQUIRE(ys.size() == out.size(),
                "eval_right_exit_terms: span size mismatch");
  if (g1 + g2 < 5) {
    std::fill(out.begin(), out.end(), kNaN);
    return;
  }
  const double coeff = static_cast<double>(g1 - 1) / (g1 + g2 - 2);
  mus_.resize(ys.size());
  inv_sigmas_.resize(ys.size());
  setup_right_exit(g1, g2, x2, ys, mus_, inv_sigmas_);
  kernel::normal_pdf_batch(ys, mus_, inv_sigmas_, coeff, out);
}

std::optional<double> ProbKernel::theorem1(int g1, int g2,
                                           const GridRect& region) {
  const double delta = options_.continuity_correction ? 0.5 : 0.0;
  const int panels = options_.simpson_panels;
  const std::size_t n = static_cast<std::size_t>(panels) + 1;

  // Plan both exit-edge integrals up front so every Simpson sample of the
  // region flows through ONE setup / sqrt / pdf pipeline — at n = 17
  // samples per edge the per-call overhead of two separate pipelines is
  // comparable to the math itself. The per-edge coefficient is hoisted
  // from the integrand to the integral (terms are plain normal pdfs here,
  // scale 1), which is the algebraically identical sum in a slightly
  // different rounding order — covered by the 1e-12 equivalence bound, not
  // the bit-identity contract (that one applies to validity decisions,
  // which setup_*_exit keeps exact).
  struct EdgePlan {
    bool active = false;
    std::size_t off = 0;
    double a = 0.0, h = 0.0, coeff = 0.0;
  };
  EdgePlan top, right;
  std::size_t total = 0;
  if (region.yhi < g2 - 1) {
    // Zero-width spans force the +-1/2 widening (see the scalar theorem1).
    const double dx = region.xlo == region.xhi ? 0.5 : delta;
    const double a = region.xlo - dx;
    const double b = region.xhi + dx;
    if (a < b) {  // degenerate intervals contribute 0, as in the scalar
      top = {true, total, a, (b - a) / panels,
             static_cast<double>(g2 - 1) / (g1 + g2 - 2)};
      total += n;
    }
  }
  if (region.xhi < g1 - 1) {
    const double dy = region.ylo == region.yhi ? 0.5 : delta;
    const double a = region.ylo - dy;
    const double b = region.yhi + dy;
    if (a < b) {
      right = {true, total, a, (b - a) / panels,
               static_cast<double>(g1 - 1) / (g1 + g2 - 2)};
      total += n;
    }
  }
  if (total == 0) return clamp01(0.0);
  // Tiny ranges make every sample invalid (the scalar probes return
  // nullopt unconditionally), so the whole region falls back to exact.
  if (g1 + g2 < 5) return std::nullopt;

  xs_.resize(total);
  mus_.resize(total);
  inv_sigmas_.resize(total);
  terms_.resize(total);
  for (const EdgePlan* e : {&top, &right}) {
    if (!e->active) continue;
    for (std::size_t i = 0; i < n; ++i) {
      xs_[e->off + i] = e->a + e->h * static_cast<double>(i);
    }
  }
  if (top.active) {
    setup_top_exit(g1, g2, region.yhi,
                   std::span<const double>(xs_.data() + top.off, n),
                   std::span<double>(mus_.data() + top.off, n),
                   std::span<double>(inv_sigmas_.data() + top.off, n));
  }
  if (right.active) {
    setup_right_exit(g1, g2, region.xhi,
                     std::span<const double>(xs_.data() + right.off, n),
                     std::span<double>(mus_.data() + right.off, n),
                     std::span<double>(inv_sigmas_.data() + right.off, n));
  }
  // NaN inv_sigmas mark invalid samples; the pdf batch carries the marker
  // into the final terms.
  kernel::normal_pdf_batch(xs_, mus_, inv_sigmas_, 1.0, terms_);

  double prob = 0.0;
  for (const EdgePlan* e : {&top, &right}) {
    if (!e->active) continue;
    const double sum = simpson_weighted_sum(terms_.data() + e->off, n);
    // Any invalid sample surfaced as NaN; the weights are positive, so one
    // NaN poisons the sum — exactly the scalar path's nullopt condition.
    if (std::isnan(sum)) return std::nullopt;
    prob += e->coeff * (sum * e->h / 3.0);
  }
  return clamp01(prob);
}

double ProbKernel::region_probability(const NetGridShape& s,
                                      const GridRect& region) {
  FICON_REQUIRE(s.g1 >= 1 && s.g2 >= 1, "empty routing range");
  const GridRect r{std::max(region.xlo, 0), std::max(region.ylo, 0),
                   std::min(region.xhi, s.g1 - 1),
                   std::min(region.yhi, s.g2 - 1)};
  if (!r.valid()) return 0.0;
  if (s.degenerate()) return 1.0;
  // Algorithm step 3.1 + section 4.5: pin-covering IR-grids get 1, which
  // also swallows the four error-making cells adjacent to the pins.
  if (exact_.region_covers_pin(s, r)) {
    obs::count(obs::Counter::kIrRegionsCertain);
    return 1.0;
  }
  // Structural certainty: a monotone route visits every row and every
  // column of its range, so a region spanning the full width (or height)
  // is crossed by every route. Theorem 1 would lose tail mass near the
  // pins on such spans; the exact answer is free.
  if ((r.xlo == 0 && r.xhi == s.g1 - 1) ||
      (r.ylo == 0 && r.yhi == s.g2 - 1)) {
    obs::count(obs::Counter::kIrRegionsCertain);
    return 1.0;
  }
  const GridRect canonical = s.type2 ? mirror_region_y(s.g2, r) : r;
  // Every path below evaluates the clamped rect `r`. The exact fallback
  // re-clips and mirrors internally, so feeding it the raw `region` happens
  // to give the same answer today — but the contract here is that Theorem 1
  // and the fallback score the *same* rect, so pass `r` explicitly.
  if (s.g1 + s.g2 < options_.small_range_threshold ||
      std::min(s.g1, s.g2) < options_.narrow_range_threshold ||
      r.nx() + r.ny() <= options_.small_region_threshold) {
    obs::count(obs::Counter::kIrTheorem1ExactFallbacks);
    return exact_.region_probability_exact(s, r);
  }
  const std::optional<double> approx = theorem1(s.g1, s.g2, canonical);
  if (approx) return *approx;
  obs::count(obs::Counter::kIrTheorem1ExactFallbacks);
  return exact_.region_probability_exact(s, r);
}

}  // namespace ficon
