#include "congestion/approx.hpp"

#include <algorithm>
#include <cmath>

#include "numeric/normal.hpp"
#include "numeric/simpson.hpp"

namespace ficon {
namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

double ApproxRegionProbability::top_exit_term_exact(int g1, int g2, int x,
                                                    int y2) const {
  const NetGridShape s{g1, g2, false};
  if (y2 + 1 > g2 - 1) return 0.0;  // no cell above: crossing impossible
  const auto ta = exact_.log_ta(s, x, y2);
  const auto tb = exact_.log_tb(s, x, y2 + 1);
  if (!ta || !tb) return 0.0;
  return std::exp(*ta + *tb - exact_.log_total(s));
}

double ApproxRegionProbability::right_exit_term_exact(int g1, int g2, int x2,
                                                      int y) const {
  const NetGridShape s{g1, g2, false};
  if (x2 + 1 > g1 - 1) return 0.0;
  const auto ta = exact_.log_ta(s, x2, y);
  const auto tb = exact_.log_tb(s, x2 + 1, y);
  if (!ta || !tb) return 0.0;
  return std::exp(*ta + *tb - exact_.log_total(s));
}

std::optional<double> ApproxRegionProbability::top_exit_term_approx(
    int g1, int g2, double x, int y2) const {
  // The binomial/normal chain needs R = g1+g2-3 >= 1 and R-1 = g1+g2-4 >= 1.
  if (g1 + g2 < 5) return std::nullopt;
  const double R = g1 + g2 - 3;
  const double p = (x + y2) / R;
  if (!(p > 0.0 && p < 1.0)) return std::nullopt;  // section 4.5 error cases
  const double var = (static_cast<double>(g2 - 2) / (g1 + g2 - 4)) *
                     (g1 - 1) * p * (1.0 - p);
  if (!(var > 0.0)) return std::nullopt;
  const double mu = (g1 - 1) * p;
  const double coeff = static_cast<double>(g2 - 1) / (g1 + g2 - 2);
  return coeff * normal_pdf(x, mu, std::sqrt(var));
}

std::optional<double> ApproxRegionProbability::right_exit_term_approx(
    int g1, int g2, int x2, double y) const {
  if (g1 + g2 < 5) return std::nullopt;
  const double R = g1 + g2 - 3;
  const double p = (x2 + y) / R;
  if (!(p > 0.0 && p < 1.0)) return std::nullopt;
  const double var = (static_cast<double>(g1 - 2) / (g1 + g2 - 4)) *
                     (g2 - 1) * p * (1.0 - p);
  if (!(var > 0.0)) return std::nullopt;
  const double mu = (g2 - 1) * p;
  const double coeff = static_cast<double>(g1 - 1) / (g1 + g2 - 2);
  return coeff * normal_pdf(y, mu, std::sqrt(var));
}

std::optional<double> ApproxRegionProbability::theorem1(
    int g1, int g2, const GridRect& region) const {
  const double delta = options_.continuity_correction ? 0.5 : 0.0;
  double prob = 0.0;
  if (region.yhi < g2 - 1) {
    // A zero-width span integrated over the literal [x1, x2] = [x, x] would
    // contribute nothing and silently drop the column's whole top-exit
    // mass; force the +-1/2 widening there (the unit-width integral around
    // x is exactly the continuity-corrected one-term sum).
    const double dx = region.xlo == region.xhi ? 0.5 : delta;
    const auto top = simpson(
        [&](double x) { return top_exit_term_approx(g1, g2, x, region.yhi); },
        region.xlo - dx, region.xhi + dx, options_.simpson_panels);
    if (!top) return std::nullopt;
    prob += *top;
  }
  if (region.xhi < g1 - 1) {
    const double dy = region.ylo == region.yhi ? 0.5 : delta;
    const auto right = simpson(
        [&](double y) { return right_exit_term_approx(g1, g2, region.xhi, y); },
        region.ylo - dy, region.yhi + dy, options_.simpson_panels);
    if (!right) return std::nullopt;
    prob += *right;
  }
  return clamp01(prob);
}

}  // namespace ficon
