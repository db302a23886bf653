// Small descriptive-statistics helpers used by experiment reporting and by
// the congestion cost extraction (top-k selection).
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace ficon {

/// Running mean / min / max / stddev accumulator.
class RunningStats {
 public:
  void add(double v) {
    ++n_;
    const double delta = v - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (v - mean_);
    min_ = n_ == 1 ? v : std::min(min_, v);
    max_ = n_ == 1 ? v : std::max(max_, v);
  }

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  double min() const { return min_; }
  double max() const { return max_; }

  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

inline double max_of(std::span<const double> v) {
  FICON_REQUIRE(!v.empty(), "max_of over empty span");
  return *std::max_element(v.begin(), v.end());
}

/// Mean of the `fraction` largest values (e.g. fraction = 0.10 gives the
/// paper's "average of the top 10% most congested grids"). At least one
/// element is always taken from a non-empty input.
inline double top_fraction_mean(std::vector<double> values, double fraction) {
  FICON_REQUIRE(fraction > 0.0 && fraction <= 1.0, "fraction out of (0,1]");
  if (values.empty()) return 0.0;
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(fraction * static_cast<double>(values.size()))));
  std::nth_element(values.begin(), values.begin() + (k - 1), values.end(),
                   std::greater<>());
  return std::accumulate(values.begin(), values.begin() + k, 0.0) /
         static_cast<double>(k);
}

/// Pearson correlation of two equal-length series; 0 if either is constant.
inline double pearson(std::span<const double> a, std::span<const double> b) {
  FICON_REQUIRE(a.size() == b.size(), "series length mismatch");
  if (a.size() < 2) return 0.0;
  const double n = static_cast<double>(a.size());
  const double ma = std::accumulate(a.begin(), a.end(), 0.0) / n;
  const double mb = std::accumulate(b.begin(), b.end(), 0.0) / n;
  double num = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  if (da == 0.0 || db == 0.0) return 0.0;
  return num / std::sqrt(da * db);
}

/// Ranks of `v` from 1 in ascending order; tied values share their mean
/// rank.
inline std::vector<double> ranks(std::span<const double> v) {
  std::vector<std::size_t> order(v.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&v](std::size_t i, std::size_t j) { return v[i] < v[j]; });
  std::vector<double> rank(v.size());
  for (std::size_t i = 0; i < order.size();) {
    std::size_t j = i + 1;
    while (j < order.size() && !(v[order[i]] < v[order[j]])) ++j;
    // Positions i .. j - 1 hold one value: ranks i + 1 .. j, mean below.
    for (std::size_t t = i; t < j; ++t) {
      rank[order[t]] = 0.5 * static_cast<double>(i + 1 + j);
    }
    i = j;
  }
  return rank;
}

/// Spearman rank correlation of two equal-length series: the Pearson
/// correlation of their ranks, ties at their mean rank.
inline double spearman(std::span<const double> a, std::span<const double> b) {
  FICON_REQUIRE(a.size() == b.size(), "series length mismatch");
  return pearson(ranks(a), ranks(b));
}

}  // namespace ficon
