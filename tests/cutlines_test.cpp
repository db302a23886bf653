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
#include "util/thread_pool.hpp"

namespace ficon {
namespace {

const Rect kChip{0, 0, 1000, 1000};

namespace reference {

/// One axis merged as it was before the bucket sort: std::sort over the
/// interior coordinates, then greedy clusters with backward pooling. The
/// reference for the sorted order and every cluster sum.
std::vector<double> merge_lines(const std::vector<double>& coords, double lo,
                                double hi, double min_gap) {
  std::vector<double> sorted;
  for (const double c : coords) {
    if (c > lo + min_gap && c < hi - min_gap) sorted.push_back(c);
  }
  std::sort(sorted.begin(), sorted.end());
  struct Cluster {
    double sum = 0.0;
    double count = 0.0;
    double rep() const { return sum / count; }
  };
  std::vector<Cluster> kept;
  std::size_t i = 0;
  while (i < sorted.size()) {
    const double start = sorted[i];
    Cluster cluster;
    do {
      cluster.sum += sorted[i];
      cluster.count += 1.0;
      ++i;
    } while (i < sorted.size() && sorted[i] - start < min_gap);
    while (!kept.empty()) {
      const double gap = cluster.rep() - kept.back().rep();
      if (gap >= min_gap && gap > 0.0) break;
      cluster.sum += kept.back().sum;
      cluster.count += kept.back().count;
      kept.pop_back();
    }
    kept.push_back(cluster);
  }
  std::vector<double> merged{lo};
  for (const Cluster& c : kept) {
    const double rep = c.rep();
    if (rep > lo + min_gap && rep < hi - min_gap) merged.push_back(rep);
  }
  merged.push_back(hi);
  return merged;
}

/// build_cutlines() from the reference merge: both ends of every routing
/// range per axis.
CutLines build_cutlines(const std::vector<TwoPinNet>& nets, const Rect& chip,
                        double min_dx, double min_dy) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (const TwoPinNet& net : nets) {
    const Rect r = net.routing_range();
    xs.push_back(r.xlo);
    xs.push_back(r.xhi);
    ys.push_back(r.ylo);
    ys.push_back(r.yhi);
  }
  return CutLines(merge_lines(xs, chip.xlo, chip.xhi, min_dx),
                  merge_lines(ys, chip.ylo, chip.yhi, min_dy));
}

}  // namespace reference

/// The bit patterns of `lines`, so that EXPECT_EQ compares bit for bit.
std::vector<std::uint64_t> bits(const std::vector<double>& lines) {
  std::vector<std::uint64_t> out;
  for (const double v : lines) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// One axis merged by build_cutlines(): each coordinate gets its own net,
/// whose other pin sits on `lo`, on the chip [lo, hi] x [lo, hi]. The
/// boundary swallows `lo`, so both axes merge exactly `coords`; returns
/// the x lines after expecting the y lines to equal them bit for bit.
std::vector<double> merge_lines(const std::vector<double>& coords, double lo,
                                double hi, double min_gap) {
  std::vector<TwoPinNet> nets;
  for (const double c : coords) {
    nets.push_back(TwoPinNet{Point{c, c}, Point{lo, lo},
                             static_cast<int>(nets.size())});
  }
  const CutLines lines =
      build_cutlines(nets, Rect{lo, lo, hi, hi}, min_gap, min_gap);
  EXPECT_EQ(bits(lines.ys()), bits(lines.xs()));
  return lines.xs();
}

/// The pool thread counts every comparison runs at, then an 8-thread pool
/// under a ThreadPool::InlineScope, as a request executor runs it;
/// restores the pool.
class AtEveryThreadCount {
 public:
  ~AtEveryThreadCount() {
    ThreadPool::set_global_threads(ThreadPool::env_threads());
  }
  template <class Fn>
  void run(Fn&& fn) {
    for (const int threads : {1, 2, 4, 8}) {
      ThreadPool::set_global_threads(threads);
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      fn();
    }
    const ThreadPool::InlineScope inline_scope;
    SCOPED_TRACE("threads=8 under InlineScope");
    fn();
  }
};

/// Expects merge_lines() to equal the reference bit for bit at 1, 2, 4
/// and 8 pool threads and under an InlineScope.
void expect_merge_matches(const std::vector<double>& coords, double lo,
                          double hi, double min_gap, const std::string& what) {
  SCOPED_TRACE(what);
  const std::vector<std::uint64_t> want =
      bits(reference::merge_lines(coords, lo, hi, min_gap));
  AtEveryThreadCount().run([&] {
    EXPECT_EQ(bits(merge_lines(coords, lo, hi, min_gap)), want);
  });
}

/// Expects build_cutlines() to equal the reference bit for bit at 1, 2, 4
/// and 8 pool threads and under an InlineScope.
void expect_cutlines_match(const std::vector<TwoPinNet>& nets,
                           const Rect& chip, double min_dx, double min_dy,
                           const std::string& what) {
  SCOPED_TRACE(what);
  const CutLines want = reference::build_cutlines(nets, chip, min_dx, min_dy);
  AtEveryThreadCount().run([&] {
    const CutLines got = build_cutlines(nets, chip, min_dx, min_dy);
    EXPECT_EQ(bits(got.xs()), bits(want.xs()));
    EXPECT_EQ(bits(got.ys()), bits(want.ys()));
  });
}

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

/// Net counts whose candidates, two per net and axis, lie on both sides
/// of the split threshold: half of it, two below it, at it, two above it
/// and three times it.
std::vector<std::size_t> sizes_around_the_split() {
  const std::size_t split = kCutLineSplitCoordinates / 2;
  return {split / 2, split - 1, split, split + 1, 3 * split};
}

TEST(MergeLines, MatchesTheReferenceAtEveryThreadCount) {
  // One net per coordinate, so n coordinates are 2n candidates per axis.
  Rng rng(97);
  for (const std::size_t n : sizes_around_the_split()) {
    const std::string size = " n=" + std::to_string(n);
    // Integers with many repeats: duplicates pool, and with merging
    // they cluster.
    std::vector<double> integers;
    while (integers.size() < n) {
      integers.push_back(static_cast<double>(rng.uniform_int(1, 999)));
    }
    expect_merge_matches(integers, 0, 1000, 0, "duplicates" + size);
    expect_merge_matches(integers, 0, 1000, 3, "duplicates, gap 3" + size);

    // On [0, 1024] the value ranges split at exact multiples of
    // 1024 / kCutLineRanges: coordinates on each split and one ulp to
    // either side, at lo + gap and hi - gap and one ulp inside them,
    // among random fill.
    std::vector<double> splits;
    for (int r = 1; r < kCutLineRanges; ++r) {
      const double at = 1024.0 * r / kCutLineRanges;
      for (int k = 0; k < 3; ++k) {
        splits.push_back(at);
        splits.push_back(std::nextafter(at, -INFINITY));
        splits.push_back(std::nextafter(at, INFINITY));
      }
    }
    for (const double at : {2.0, 1022.0}) {
      splits.push_back(at);
      splits.push_back(std::nextafter(at, -INFINITY));
      splits.push_back(std::nextafter(at, INFINITY));
    }
    while (splits.size() < n) splits.push_back(rng.uniform(0, 1024));
    expect_merge_matches(splits, 0, 1024, 2, "splits" + size);
    expect_merge_matches(splits, 0, 1024, 0, "splits, gap 0" + size);

    // The same split values where the collecting blocks meet: at and next
    // to every eighth of the items, so that equal and adjacent
    // coordinates come from different blocks.
    std::vector<double> edges;
    while (edges.size() < n) edges.push_back(rng.uniform(0, 1024));
    for (std::size_t k = 1; k < 8; ++k) {
      const std::size_t at = n * k / 8;
      const double v = 1024.0 * static_cast<double>(k % kCutLineRanges) /
                       kCutLineRanges;
      for (std::size_t i = at - 1; i <= at + 1 && i < n; ++i) {
        edges[i] = i == at ? v : std::nextafter(v, i < at ? 0.0 : 1024.0);
      }
      edges[n - 1 - at] = v;
    }
    expect_merge_matches(edges, 0, 1024, 0, "block edges, gap 0" + size);
    expect_merge_matches(edges, 0, 1024, 3, "block edges, gap 3" + size);

    // Signed zeros on an axis that straddles 0, where 0 is a split.
    std::vector<double> zeros;
    while (zeros.size() < n) {
      zeros.push_back(zeros.size() % 3 == 0   ? -0.0
                      : zeros.size() % 3 == 1 ? 0.0
                                              : rng.uniform(-1024, 1024));
    }
    expect_merge_matches(zeros, -1024, 1024, 0, "signed zeros" + size);
    expect_merge_matches(zeros, -1024, 1024, 0.5,
                         "signed zeros, gap 0.5" + size);

    // Distinct full-mantissa values, merging off, on a negative axis.
    std::vector<double> negative;
    while (negative.size() < n) negative.push_back(rng.uniform(-6000, -50));
    expect_merge_matches(negative, -5000, -100, 0, "negative axis" + size);

    // Coordinates bunched far tighter than the buckets: long runs.
    std::vector<double> bunched;
    while (bunched.size() < n) {
      bunched.push_back(bunched.size() % 4 == 0
                            ? rng.uniform(0, 1e6)
                            : 5e5 + rng.uniform(0, 1e-3));
    }
    expect_merge_matches(bunched, 0, 1e6, 0, "bunched" + size);
    expect_merge_matches(bunched, 0, 1e6, 1e-4, "bunched, gap 1e-4" + size);

    // Axes whose bucket scale is not finite: an extent that overflows,
    // and a subnormal one whose scale does. Every coordinate shares one
    // bucket.
    std::vector<double> wide;
    while (wide.size() < n) {
      wide.push_back(std::ldexp(rng.uniform(-1, 1), rng.uniform_int(0, 1023)));
    }
    expect_merge_matches(wide, -DBL_MAX, DBL_MAX, 0, "infinite extent" + size);
    std::vector<double> tiny;
    while (tiny.size() < n) {
      tiny.push_back(5e-324 * static_cast<double>(rng.uniform_int(0, 20000)));
    }
    expect_merge_matches(tiny, 0, 5e-324 * 20001, 0, "subnormal extent" + size);
  }
}

/// `n` random nets on `chip`: a quarter degenerate, some reaching out of
/// the chip, and some ending on `on`.
std::vector<TwoPinNet> random_nets(Rng& rng, std::size_t n, const Rect& chip,
                                   const std::vector<double>& on) {
  std::vector<TwoPinNet> nets;
  const auto coord = [&](double lo, double hi) {
    const int pick = rng.uniform_int(0, 19);
    if (pick == 0 && !on.empty()) {
      return on[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(on.size()) - 1))];
    }
    const double extent = hi - lo;
    if (pick == 1) return lo - 0.01 * extent;  // outside the chip
    return lo + extent * rng.uniform(0, 1);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Point a{coord(chip.xlo, chip.xhi), coord(chip.ylo, chip.yhi)};
    Point b{coord(chip.xlo, chip.xhi), coord(chip.ylo, chip.yhi)};
    if (i % 8 == 0) b.x = a.x;
    if (i % 8 == 1) b.y = a.y;
    nets.push_back(TwoPinNet{a, b, static_cast<int>(i)});
  }
  return nets;
}

TEST(BuildCutlines, MatchesTheReferenceAtEveryThreadCount) {
  Rng rng(98);
  for (const std::size_t net_count : sizes_around_the_split()) {
    const std::string size = " nets=" + std::to_string(net_count);
    // On a 1024-wide chip the splits and the boundary gaps are exact.
    const Rect chip{0, 0, 1024, 1024};
    const std::vector<double> on{256, 512, 768, std::nextafter(512.0, 0.0),
                                 3, 1021};
    const std::vector<TwoPinNet> nets = random_nets(rng, net_count, chip, on);
    expect_cutlines_match(nets, chip, 3, 3, "1024 chip" + size);
    expect_cutlines_match(nets, chip, 0, 7, "gap 0 in x" + size);

    const Rect centered{-1024, -1024, 1024, 1024};
    expect_cutlines_match(random_nets(rng, net_count, centered, {-0.0, 0.0}),
                          centered, 1, 1, "straddling 0" + size);

    const Rect huge{-DBL_MAX, -DBL_MAX, DBL_MAX, DBL_MAX};
    expect_cutlines_match(random_nets(rng, net_count, kChip, {}), huge, 1, 1,
                          "infinite extent" + size);
  }
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

TEST(BuildCutlines, RejectsANegativeGapAtEveryThreadCount) {
  // A negative or NaN merge gap is an error on either side of the split
  // threshold, at every pool size, and for an empty net list too.
  Rng rng(99);
  const std::vector<std::vector<TwoPinNet>> net_lists{
      {},
      {{Point{100, 100}, Point{300, 400}, 0}},
      random_nets(rng, kCutLineSplitCoordinates, kChip, {})};
  AtEveryThreadCount().run([&] {
    for (const std::vector<TwoPinNet>& nets : net_lists) {
      SCOPED_TRACE(::testing::Message() << "nets=" << nets.size());
      EXPECT_THROW(build_cutlines(nets, kChip, -1, 20), std::invalid_argument);
      EXPECT_THROW(build_cutlines(nets, kChip, 20, -1), std::invalid_argument);
      EXPECT_THROW(build_cutlines(nets, kChip, NAN, 20),
                   std::invalid_argument);
    }
  });
}

}  // namespace
}  // namespace ficon
