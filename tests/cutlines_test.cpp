// Cut-line construction and merging (algorithm steps 1-2, Figure 5).
#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "congestion/cutlines.hpp"
#include "util/rng.hpp"

namespace ficon {
namespace {

const Rect kChip{0, 0, 1000, 1000};

TEST(MergeLines, KeepsWellSeparatedLines) {
  const auto merged = merge_lines({200, 500, 800}, 0, 1000, 60);
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_DOUBLE_EQ(merged.front(), 0);
  EXPECT_DOUBLE_EQ(merged[1], 200);
  EXPECT_DOUBLE_EQ(merged[2], 500);
  EXPECT_DOUBLE_EQ(merged[3], 800);
  EXPECT_DOUBLE_EQ(merged.back(), 1000);
}

TEST(MergeLines, ClustersCloseLinesToTheirMean) {
  const auto merged = merge_lines({300, 310, 320, 700}, 0, 1000, 60);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_DOUBLE_EQ(merged[1], 310);  // mean of the cluster
  EXPECT_DOUBLE_EQ(merged[2], 700);
}

TEST(MergeLines, PinsChipBoundaries) {
  // Lines hugging a boundary are swallowed by it.
  const auto merged = merge_lines({10, 20, 990}, 0, 1000, 60);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged.front(), 0);
  EXPECT_DOUBLE_EQ(merged.back(), 1000);
  // So is one exactly min_gap from a boundary, and it pulls no neighbour
  // into a cluster with it.
  const auto exact = merge_lines({60, 100, 900, 940}, 0, 1000, 60);
  ASSERT_EQ(exact.size(), 4u);
  EXPECT_DOUBLE_EQ(exact[1], 100);
  EXPECT_DOUBLE_EQ(exact[2], 900);
}

TEST(MergeLines, ZeroGapKeepsAllDistinctLines) {
  // Regression: min_gap == 0 (merging disabled) must terminate and keep
  // every distinct interior coordinate.
  const auto merged = merge_lines({100, 100, 250, 400, 400, 990}, 0, 1000, 0);
  ASSERT_EQ(merged.size(), 6u);  // lo, 100, 250, 400, 990, hi
  EXPECT_DOUBLE_EQ(merged[1], 100);
  EXPECT_DOUBLE_EQ(merged[2], 250);
  EXPECT_DOUBLE_EQ(merged[3], 400);
  EXPECT_DOUBLE_EQ(merged[4], 990);
}

TEST(MergeLines, ResultSortedWithMinimumSpacing) {
  // Property the model relies on: NO two merged lines — interior or
  // boundary — are closer than the full merge gap, so every IR-cell is at
  // least min_gap wide. (Regression: the pre-pooling implementation only
  // rejected representatives within half a gap of their predecessor, so
  // chained clusters produced thinner cells.)
  Rng rng(41);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> coords;
    const int n = rng.uniform_int(0, 60);
    for (int i = 0; i < n; ++i) coords.push_back(rng.uniform(0, 1000));
    const double gap = rng.uniform(10, 120);
    const auto merged = merge_lines(coords, 0, 1000, gap);
    ASSERT_GE(merged.size(), 2u);
    EXPECT_DOUBLE_EQ(merged.front(), 0);
    EXPECT_DOUBLE_EQ(merged.back(), 1000);
    for (std::size_t i = 1; i < merged.size(); ++i) {
      EXPECT_GE(merged[i] - merged[i - 1], gap - 1e-9)
          << "trial " << trial << " i=" << i;
    }
  }
}

TEST(MergeLines, ChainedClustersStillRespectGap) {
  // Regression for the half-gap guard: greedy clustering splits
  // {500, 590, 600} at 600 (600 - 500 >= gap), and the two cluster means
  // (545 and 600) are 55 apart — more than gap/2, so the old guard kept
  // both and produced a 55-wide IR-cell. Pooling merges them into one
  // weighted mean instead.
  const auto merged = merge_lines({500, 590, 600}, 0, 1000, 100);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_NEAR(merged[1], (500.0 + 590.0 + 600.0) / 3.0, 1e-12);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_GE(merged[i] - merged[i - 1], 100.0 - 1e-9);
  }
}

TEST(MergeLines, EveryInputSnapsWithinTwoGaps) {
  // A pooled cluster spans at most a few gap-widths, so no original cut
  // line may end up farther than two merge gaps from a representative.
  // (One gap was the bound before backward pooling; the extra slack is the
  // price of guaranteeing full-gap cell widths above.)
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> coords;
    for (int i = 0; i < 40; ++i) coords.push_back(rng.uniform(0, 1000));
    const double gap = 50;
    const auto merged = merge_lines(coords, 0, 1000, gap);
    for (const double c : coords) {
      double nearest = 1e300;
      for (const double m : merged) nearest = std::min(nearest, std::abs(m - c));
      EXPECT_LE(nearest, 2 * gap + 1e-9) << "coord " << c;
    }
  }
}

// With merging disabled the merged axis must be exactly lo, the sorted
// distinct interior values, then hi, bit for bit. A repeated value pools
// to its mean, which is exact for the integers the callers repeat.
void expect_every_distinct_line(const std::vector<double>& coords, double lo,
                                double hi, const std::string& what) {
  std::vector<double> expected;
  for (const double c : coords) {
    if (c > lo && c < hi) expected.push_back(c);
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  expected.insert(expected.begin(), lo);
  expected.push_back(hi);

  const std::vector<double> merged = merge_lines(coords, lo, hi, 0);
  ASSERT_EQ(merged.size(), expected.size()) << what;
  std::size_t differing = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(merged[i]) !=
        std::bit_cast<std::uint64_t>(expected[i])) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u) << what << ": " << differing << " of "
                           << merged.size() << " lines differ";
}

// `n` values from `draw`, none repeated, in draw order.
template <class Draw>
std::vector<double> distinct_values(int n, Draw draw) {
  std::vector<double> values;
  std::set<double> seen;
  while (static_cast<int>(values.size()) < n) {
    const double v = draw();
    if (seen.insert(v).second) values.push_back(v);
  }
  return values;
}

TEST(MergeLines, LargeInputKeepsEveryDistinctLine) {
  // Tens of thousands of coordinates, as many as a generated tier's axis:
  // integers with duplicates and both boundary values.
  Rng rng(43);
  for (const int n : {20000, 40000}) {
    std::vector<double> coords;
    for (int i = 0; i < n; ++i) {
      coords.push_back(static_cast<double>(rng.uniform_int(0, 5000)));
    }
    coords.push_back(0.0);
    coords.push_back(5000.0);
    expect_every_distinct_line(coords, 0, 5000,
                               "integers n=" + std::to_string(n));
  }

  // Full-mantissa fractions: every low digit of the sort key varies.
  expect_every_distinct_line(
      distinct_values(40000, [&] { return rng.uniform(0, 5000); }), 0, 5000,
      "fractions");

  // Nine decades, so the exponent digits vary too.
  expect_every_distinct_line(distinct_values(40000,
                                             [&] {
                                               return std::exp(rng.uniform(
                                                   std::log(1e-3),
                                                   std::log(1e6)));
                                             }),
                             0, 2e6, "1e-3 to 1e6");

  // An axis below zero: negative keys are bit-inverted, and coordinates
  // on both sides of the boundaries are dropped.
  std::vector<double> negative =
      distinct_values(20000, [&] { return rng.uniform(-6000, -1); });
  for (int i = 0; i < 20000; ++i) {
    negative.push_back(static_cast<double>(rng.uniform_int(-6000, 1500)));
  }
  expect_every_distinct_line(negative, -5000, -100, "negative axis");

  // Sizes around one digit's bucket count, all interior so that the sort
  // sees every one, mixed with repeats; and the same value everywhere,
  // where every pass is skipped.
  for (const int n : {0, 1, 2, 2047, 2048, 2049}) {
    std::vector<double> coords = distinct_values(
        n - n / 4, [&] { return rng.uniform(1, 999); });
    for (int i = 0; i < n / 4; ++i) {
      coords.push_back(static_cast<double>(rng.uniform_int(1, 999)));
    }
    expect_every_distinct_line(coords, 0, 1000, "n=" + std::to_string(n));
    expect_every_distinct_line(
        std::vector<double>(static_cast<std::size_t>(n), 250.0), 0, 1000,
        "n=" + std::to_string(n) + " equal");
  }
}

TEST(MergeLines, SignedZerosGiveOnePositiveZeroLine) {
  // -0.0 and +0.0 compare equal, so they are one line; the sort puts -0.0
  // first, and the cluster sum, starting at +0.0, gives +0.0 either way.
  const std::vector<std::vector<double>> inputs{
      {-0.0, 0.0}, {0.0, -0.0}, {-0.0, -0.0, 0.0}, {0.0, 0.0, -0.0, -0.0}};
  for (const std::vector<double>& coords : inputs) {
    const std::vector<double> merged = merge_lines(coords, -1, 1, 0);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(merged[1]),
              std::bit_cast<std::uint64_t>(0.0));
  }
  const std::vector<double> merged =
      merge_lines({0.5, -0.0, -0.5, 0.0, -0.0}, -1, 1, 0);
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[1], -0.5);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(merged[2]),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(merged[3], 0.5);
}

TEST(CutLines, NearestLookup) {
  const CutLines lines({0, 100, 250, 1000}, {0, 400, 1000});
  EXPECT_EQ(lines.nearest_x(-50), 0);
  EXPECT_EQ(lines.nearest_x(40), 0);
  EXPECT_EQ(lines.nearest_x(60), 1);
  EXPECT_EQ(lines.nearest_x(100), 1);
  EXPECT_EQ(lines.nearest_x(180), 2);
  EXPECT_EQ(lines.nearest_x(9999), 3);
  EXPECT_EQ(lines.nearest_y(400), 1);
}

/// The snap as std::lower_bound gives it, with the tie rule
/// (v - below) <= (above - v): the reference for the bucket index.
int lower_bound_nearest(const std::vector<double>& lines, double v) {
  const auto it = std::lower_bound(lines.begin(), lines.end(), v);
  if (it == lines.begin()) return 0;
  if (it == lines.end()) return static_cast<int>(lines.size()) - 1;
  const auto prev = it - 1;
  const bool take_prev = (v - *prev) <= (*it - v);
  return static_cast<int>((take_prev ? prev : it) - lines.begin());
}

/// Expects nearest_x and nearest_y to match the reference on every line,
/// a hair to either side of it, every midpoint (ties), points outside
/// the lines, infinities, NaN and `extra`.
void expect_nearest_matches(const std::vector<double>& lines,
                            const std::vector<double>& extra) {
  const CutLines cl(lines, lines);
  std::vector<double> probes = extra;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    probes.push_back(lines[i]);
    probes.push_back(std::nextafter(lines[i], -INFINITY));
    probes.push_back(std::nextafter(lines[i], INFINITY));
    if (i + 1 < lines.size()) {
      probes.push_back(0.5 * (lines[i] + lines[i + 1]));
      probes.push_back(lines[i] + 0.25 * (lines[i + 1] - lines[i]));
    }
  }
  probes.push_back(INFINITY);
  probes.push_back(-INFINITY);
  probes.push_back(NAN);
  for (const double v : probes) {
    const int want = lower_bound_nearest(lines, v);
    EXPECT_EQ(cl.nearest_x(v), want) << std::hexfloat << "v = " << v;
    EXPECT_EQ(cl.nearest_y(v), want) << std::hexfloat << "v = " << v;
  }
}

TEST(CutLines, NearestMatchesLowerBoundThroughTheIndex) {
  // The bucket index must land on std::lower_bound's position for every
  // coordinate: evenly and unevenly spread lines, dense clusters inside
  // one bucket, duplicates, negative axes, exact ties at midpoints.
  Rng rng(83);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = trial < 10 ? 2 + trial : rng.uniform_int(2, 300);
    const double lo = rng.uniform(-5000, 5000);
    const double extent = trial % 7 == 0 ? 1e-6 : rng.uniform(1, 20000);
    std::vector<double> lines{lo, lo + extent};
    for (int i = 2; i < n; ++i) {
      // A third of the lines cluster near a few centers.
      const double at = trial % 3 == 0 && i % 3 == 0
                            ? lo + extent * (0.5 + 1e-7 * rng.uniform(0, 1))
                            : lo + extent * rng.uniform(0, 1);
      lines.push_back(at);
      if (i % 11 == 0) lines.push_back(at);  // duplicate
    }
    std::sort(lines.begin(), lines.end());
    std::vector<double> extra;
    for (int i = 0; i < 200; ++i) {
      extra.push_back(lo + extent * rng.uniform(-0.1, 1.1));
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    expect_nearest_matches(lines, extra);
  }
  // Integer lines whose midpoints are exact ties.
  expect_nearest_matches({0, 100, 250, 300, 301, 1000}, {50, 175, 275, 300.5});
  // Axes the buckets cannot scale to: one bucket, scanned from the first
  // line. A subnormal extent, an infinite extent, and all-equal lines.
  expect_nearest_matches({0, 5e-324}, {});
  expect_nearest_matches({-1e308, -1e300, 0, 1e300, 1e308}, {1, -1});
  expect_nearest_matches({3, 3, 3}, {2, 4});
  expect_nearest_matches({-DBL_MAX, DBL_MAX}, {0});
}

TEST(CutLines, CellGeometry) {
  const CutLines lines({0, 100, 250, 1000}, {0, 400, 1000});
  EXPECT_EQ(lines.nx(), 3);
  EXPECT_EQ(lines.ny(), 2);
  EXPECT_EQ(lines.cell_count(), 6);
  EXPECT_EQ(lines.cell_rect(0, 0), (Rect{0, 0, 100, 400}));
  EXPECT_EQ(lines.cell_rect(2, 1), (Rect{250, 400, 1000, 1000}));
  EXPECT_THROW(lines.cell_rect(3, 0), std::invalid_argument);
}

TEST(CutLines, RejectsUnsortedOrEmpty) {
  EXPECT_THROW(CutLines({100, 0}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(CutLines({0}, {0, 1}), std::invalid_argument);
}

TEST(BuildCutlines, FigureFiveStructure) {
  // Two disjoint routing ranges: each contributes two lines per axis; with
  // the chip boundary that is up to 6 lines per axis (5x5 IR-cells).
  const std::vector<TwoPinNet> nets{
      {Point{100, 100}, Point{300, 400}, 0},
      {Point{600, 500}, Point{900, 800}, 1},
  };
  const CutLines lines = build_cutlines(nets, kChip, 20, 20);
  EXPECT_EQ(lines.xs().size(), 6u);
  EXPECT_EQ(lines.ys().size(), 6u);
  // Every routing-range boundary must be present as a cut line.
  for (const double v : {100.0, 300.0, 600.0, 900.0}) {
    double nearest = 1e300;
    for (const double m : lines.xs()) nearest = std::min(nearest, std::abs(m - v));
    EXPECT_LE(nearest, 1e-9) << v;
  }
}

TEST(BuildCutlines, SharedBoundariesDeduplicate) {
  // Nets sharing a pin x-coordinate produce one line, not two.
  const std::vector<TwoPinNet> nets{
      {Point{200, 100}, Point{500, 300}, 0},
      {Point{200, 600}, Point{700, 900}, 1},
  };
  const CutLines lines = build_cutlines(nets, kChip, 20, 20);
  int near_200 = 0;
  for (const double m : lines.xs()) {
    if (std::abs(m - 200) < 1e-9) ++near_200;
  }
  EXPECT_EQ(near_200, 1);
}

TEST(BuildCutlines, ClampsRangesOutsideChip) {
  const std::vector<TwoPinNet> nets{{Point{-50, 200}, Point{1200, 700}, 0}};
  const CutLines lines = build_cutlines(nets, kChip, 20, 20);
  EXPECT_DOUBLE_EQ(lines.xs().front(), 0);
  EXPECT_DOUBLE_EQ(lines.xs().back(), 1000);
  for (const double x : lines.xs()) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1000.0);
  }
}

TEST(BuildCutlines, EmptyNetListGivesSingleCell) {
  const CutLines lines = build_cutlines({}, kChip, 20, 20);
  EXPECT_EQ(lines.cell_count(), 1);
}

TEST(BuildCutlines, AxisBlockErrorsReachTheCaller) {
  // Each axis merges in its own pool block; a block's failed requirement
  // is rethrown on the calling thread, whichever thread ran the block.
  const std::vector<TwoPinNet> nets{{Point{100, 100}, Point{300, 400}, 0}};
  EXPECT_THROW(build_cutlines(nets, kChip, -1, 20), std::invalid_argument);
  EXPECT_THROW(build_cutlines(nets, kChip, 20, -1), std::invalid_argument);
}

}  // namespace
}  // namespace ficon
