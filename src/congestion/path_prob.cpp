#include "congestion/path_prob.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <vector>

#include "util/check.hpp"

namespace ficon {
namespace {

/// Clip a region to the routing range [0,g1) x [0,g2); result may be
/// invalid() when disjoint.
GridRect clip(const NetGridShape& s, const GridRect& r) {
  return GridRect{std::max(r.xlo, 0), std::max(r.ylo, 0),
                  std::min(r.xhi, s.g1 - 1), std::min(r.yhi, s.g2 - 1)};
}

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

}  // namespace

FirstNormalTerm first_normal_term(LogFactorialTable& table, int in, int out,
                                  int len, double log_total) {
  // exp() of anything below this is below DBL_MIN (ln DBL_MIN = -708.396),
  // so only terms near the threshold pay for an exp().
  constexpr double kBelowDblMin = -708.4;
  for (int i = 0; i <= len; ++i) {
    // At i = 0 the first log_choose is exactly 0, so the sum keeps the
    // bits of log_choose(out + len, out) - log_total.
    const double ln = table.log_choose(in + i, in) +
                      table.log_choose(out + (len - i), out) - log_total;
    if (ln < kBelowDblMin) continue;
    const double term = std::exp(ln);
    if (term >= DBL_MIN) return FirstNormalTerm{i, term};
  }
  return FirstNormalTerm{len + 1, 0.0};
}

std::optional<double> PathProbability::log_ta(const NetGridShape& s, int x,
                                              int y) const {
  if (x < 0 || x >= s.g1 || y < 0 || y >= s.g2) return std::nullopt;
  const int yy = s.type2 ? mirror_y(s.g2, y) : y;
  // Formula 1: type I Ta(x,y) = C(x+y, y); type II is the y-mirror.
  return table_->log_choose(x + yy, yy);
}

std::optional<double> PathProbability::log_tb(const NetGridShape& s, int x,
                                              int y) const {
  if (x < 0 || x >= s.g1 || y < 0 || y >= s.g2) return std::nullopt;
  const int yy = s.type2 ? mirror_y(s.g2, y) : y;
  // Tb(x,y) = Ta(g1-1-x, g2-1-y) in the type I frame.
  const int dx = s.g1 - 1 - x;
  const int dy = s.g2 - 1 - yy;
  return table_->log_choose(dx + dy, dy);
}

double PathProbability::log_total(const NetGridShape& s) const {
  // Total routes = C(g1+g2-2, g2-1) for both types.
  return table_->log_choose(s.g1 + s.g2 - 2, s.g2 - 1);
}

double PathProbability::cell_probability(const NetGridShape& s, int x,
                                         int y) const {
  FICON_REQUIRE(s.g1 >= 1 && s.g2 >= 1, "empty routing range");
  if (x < 0 || x >= s.g1 || y < 0 || y >= s.g2) return 0.0;
  // Degenerate ranges: the single possible route covers every cell.
  if (s.degenerate()) return 1.0;
  const auto ta = log_ta(s, x, y);
  const auto tb = log_tb(s, x, y);
  FICON_ASSERT(ta && tb, "in-range cell must have counts");
  return clamp01(std::exp(*ta + *tb - log_total(s)));
}

bool PathProbability::region_covers_pin(const NetGridShape& s,
                                        const GridRect& region) const {
  const GridRect r = clip(s, region);
  if (!r.valid()) return false;
  if (s.type2) {
    return r.contains(0, s.g2 - 1) || r.contains(s.g1 - 1, 0);
  }
  return r.contains(0, 0) || r.contains(s.g1 - 1, s.g2 - 1);
}

double PathProbability::region_probability_exact(const NetGridShape& s,
                                                 const GridRect& region) const {
  FICON_REQUIRE(s.g1 >= 1 && s.g2 >= 1, "empty routing range");
  const GridRect r = clip(s, region);
  if (!r.valid()) return 0.0;
  // Degenerate ranges: the unique route passes through every cell of the
  // range, so any non-empty intersection means probability 1.
  if (s.degenerate()) return 1.0;
  const GridRect canonical = s.type2 ? mirror_region_y(s.g2, r) : r;
  return region_probability_exact_type1(s.g1, s.g2, canonical);
}

double PathProbability::region_probability_exact_type1(
    int g1, int g2, const GridRect& r) const {
  // Frame: source pin cell (0,0), sink pin cell (g1-1, g2-1); monotone
  // up/right paths. Exit-edge counting (Formula 3) is valid whenever the
  // sink lies outside the region: each path touching the region leaves it
  // exactly once, through the top edge or the right edge.
  if (r.contains(g1 - 1, g2 - 1)) {
    if (r.contains(0, 0)) return 1.0;
    // Region covers the sink: rotate the frame 180 degrees so the covered
    // pin becomes the source, then exit-count in the rotated frame.
    const GridRect rotated{g1 - 1 - r.xhi, g2 - 1 - r.yhi, g1 - 1 - r.xlo,
                           g2 - 1 - r.ylo};
    return region_probability_exact_type1(g1, g2, rotated);
  }

  const NetGridShape s{g1, g2, false};
  const double total = log_total(s);
  double prob = 0.0;
  // Top-edge exits: (x, yhi) -> (x, yhi+1) for x in [xlo..xhi].
  if (r.yhi + 1 <= g2 - 1) {
    for (int x = r.xlo; x <= r.xhi; ++x) {
      const auto ta = log_ta(s, x, r.yhi);
      const auto tb = log_tb(s, x, r.yhi + 1);
      FICON_ASSERT(ta && tb, "edge terms must be in range");
      prob += std::exp(*ta + *tb - total);
    }
  }
  // Right-edge exits: (xhi, y) -> (xhi+1, y) for y in [ylo..yhi].
  if (r.xhi + 1 <= g1 - 1) {
    for (int y = r.ylo; y <= r.yhi; ++y) {
      const auto ta = log_ta(s, r.xhi, y);
      const auto tb = log_tb(s, r.xhi + 1, y);
      FICON_ASSERT(ta && tb, "edge terms must be in range");
      prob += std::exp(*ta + *tb - total);
    }
  }
  return clamp01(prob);
}

double PathProbability::region_probability_oracle(const NetGridShape& s,
                                                  const GridRect& region) const {
  FICON_REQUIRE(s.g1 >= 1 && s.g2 >= 1, "empty routing range");
  FICON_REQUIRE(s.g1 + s.g2 <= 2000,
                "oracle limited to small ranges (long double overflow)");
  const GridRect r = clip(s, region);
  if (!r.valid()) return 0.0;
  if (s.degenerate()) return 1.0;
  const GridRect c = s.type2 ? mirror_region_y(s.g2, r) : r;

  // Count paths (0,0) -> (g1-1,g2-1) that avoid the region entirely;
  // probability of touching = 1 - avoiding / total.
  const auto idx = [&](int x, int y) {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(s.g1) +
           static_cast<std::size_t>(x);
  };
  std::vector<long double> avoid(
      static_cast<std::size_t>(s.g1) * static_cast<std::size_t>(s.g2), 0.0L);
  std::vector<long double> all(avoid.size(), 0.0L);
  for (int y = 0; y < s.g2; ++y) {
    for (int x = 0; x < s.g1; ++x) {
      const long double from_left = x > 0 ? all[idx(x - 1, y)] : 0.0L;
      const long double from_below = y > 0 ? all[idx(x, y - 1)] : 0.0L;
      all[idx(x, y)] = (x == 0 && y == 0) ? 1.0L : from_left + from_below;
      if (c.contains(x, y)) {
        avoid[idx(x, y)] = 0.0L;
      } else {
        const long double a_left = x > 0 ? avoid[idx(x - 1, y)] : 0.0L;
        const long double a_below = y > 0 ? avoid[idx(x, y - 1)] : 0.0L;
        avoid[idx(x, y)] = (x == 0 && y == 0) ? 1.0L : a_left + a_below;
      }
    }
  }
  const long double total = all[idx(s.g1 - 1, s.g2 - 1)];
  const long double avoiding = avoid[idx(s.g1 - 1, s.g2 - 1)];
  return clamp01(static_cast<double>(1.0L - avoiding / total));
}

double PathProbability::cell_probability_oracle(const NetGridShape& s, int x,
                                                int y) const {
  return region_probability_oracle(s, GridRect{x, y, x, y});
}

}  // namespace ficon
