#include "congestion/cutlines.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "util/thread_pool.hpp"

namespace ficon {

CutLines::CutLines(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  FICON_REQUIRE(xs_.size() >= 2 && ys_.size() >= 2,
                "need at least the chip boundary lines");
  FICON_REQUIRE(std::is_sorted(xs_.begin(), xs_.end()) &&
                    std::is_sorted(ys_.begin(), ys_.end()),
                "cut lines must be sorted");
  x_index_ = build_index(xs_);
  y_index_ = build_index(ys_);
}

UniformBuckets::UniformBuckets(double lo, double hi, int count)
    : origin(lo) {
  // (v - origin) * scale stays finite for every v on the axis only when
  // the extent and the scale are finite.
  const double extent = hi - lo;
  const double per_um = static_cast<double>(count) / extent;
  if (extent > 0.0 && std::isfinite(extent) && std::isfinite(per_um)) {
    scale = per_um;
    last = count - 1;
  }
}

CutLines::Index CutLines::build_index(const std::vector<double>& lines) {
  // Eight buckets per line: the scan from a bucket's first line then
  // almost never moves, so its branch predicts (measured against two and
  // four per line on the stream tier's snaps). The count must fit an int.
  constexpr int kBucketsPerLine = 8;
  FICON_REQUIRE(lines.size() <= static_cast<std::size_t>(
                                    std::numeric_limits<int>::max() /
                                    kBucketsPerLine),
                "too many cut lines");
  const int n = static_cast<int>(lines.size());
  Index index{UniformBuckets(lines.front(), lines.back(), kBucketsPerLine * n),
              {}};
  const UniformBuckets& b = index.buckets;
  index.first.resize(static_cast<std::size_t>(b.last) + 1);
  int i = 0;
  for (int k = 0; k <= b.last; ++k) {
    while (i < n - 1 && b.bucket(lines[static_cast<std::size_t>(i)]) < k) ++i;
    index.first[static_cast<std::size_t>(k)] = i;
  }
  return index;
}

namespace {

// Interior cluster: coordinate sum and count; its representative is the
// (weighted) mean of every coordinate merged into it.
struct Cluster {
  double sum = 0.0;
  double count = 0.0;
  double rep() const { return sum / count; }
};

/// The split path collects the candidates in this many parts, one pool
/// block each.
constexpr int kCollectParts = 4;

/// One axis to merge: its bounds and gap, its sort buckets, and its
/// scratch: the collected coordinates, where each collecting part's
/// stretch of them starts, how many each part put in each value range,
/// and the cluster buffer. The buckets are uniform over [lo, hi] and form
/// equal runs of 2^shift, one per value range, so bucket >> shift is a
/// coordinate's range; sorting each bucket and reading them in order
/// sorts the axis. Part q's coordinates sit in its own stretch, grouped by
/// value range; each range's block then writes the range back into the
/// same places in sorted order, so reading range by range and part by
/// part reads the axis sorted.
struct Axis {
  double lo = 0.0;
  double hi = 0.0;
  double min_gap = 0.0;
  UniformBuckets buckets;
  int shift = 0;  ///< log2 of the buckets per value range
  std::vector<double> coords;
  std::array<std::size_t, kCollectParts> stretch{};
  std::array<std::array<std::uint32_t, kCutLineRanges>, kCollectParts> runs{};
  std::vector<Cluster> kept;

  /// Sizes the buckets for `candidates` coordinates in `ranges` value
  /// ranges, one to two buckets per candidate. Fewer buckets leave more
  /// to the insertion pass: half as many took the stream tier's cut lines
  /// 1.15-1.18 ms against 1.07-1.09 on a 4-thread pool (4 Xeon vCPUs,
  /// gcc 12 Release).
  void size_buckets(std::size_t candidates, int ranges) {
    constexpr int kMaxShift = 20;  // at most 2^20 buckets per range
    const std::size_t wanted = std::max<std::size_t>(
        2 * candidates / static_cast<std::size_t>(ranges), 1);
    shift = std::min(static_cast<int>(std::bit_width(wanted)) - 1, kMaxShift);
    buckets = UniformBuckets(lo, hi, (1 << shift) * ranges);
  }
  /// Part q's run of value range r.
  std::span<double> run(std::size_t q, std::size_t r) {
    std::size_t at = stretch[q];
    for (std::size_t k = 0; k < r; ++k) at += runs[q][k];
    return {coords.data() + at, runs[q][r]};
  }
};

/// An axis's interior bounds and buckets as the collecting loops read
/// them: copies, so that stores into the coordinate buffers cannot alias
/// them and they stay in registers.
struct Interior {
  double above;  ///< lo + min_gap
  double below;  ///< hi - min_gap
  UniformBuckets buckets;
  int shift;

  explicit Interior(const Axis& a)
      : above(a.lo + a.min_gap),
        below(a.hi - a.min_gap),
        buckets(a.buckets),
        shift(a.shift) {}
  /// A coordinate at or within min_gap of a boundary, or outside the
  /// chip, is swallowed by the boundary, so it is never sorted.
  bool contains(double c) const { return c > above && c < below; }
  int range(double c) const { return buckets.bucket(c) >> shift; }
};

/// Calls fn(axis, c) for both ends of the routing range of nets
/// [begin, end), on axis 0 (x) and axis 1 (y).
template <class Fn>
void for_each_end(std::span<const TwoPinNet> nets, std::size_t begin,
                  std::size_t end, Fn&& fn) {
  const std::integral_constant<std::size_t, 0> x;
  const std::integral_constant<std::size_t, 1> y;
  for (std::size_t i = begin; i < end; ++i) {
    const Rect r = nets[i].routing_range();
    fn(x, r.xlo);
    fn(x, r.xhi);
    fn(y, r.ylo);
    fn(y, r.yhi);
  }
}

/// Collecting part q over nets [begin, end): writes the interior
/// coordinates of both axes into the part's stretch of the axis's coords,
/// grouped by value range. With more than one range it counts each range
/// in a first read of the nets and places every coordinate in its range's
/// run in a second, so that no second buffer is needed. With one range,
/// as every inline pool runs it, it collects in one read: the two-read
/// form took bench_micro_models' cutlines/ami49x80 3.06-3.18 ms against
/// 2.27-2.62 ms at one pool thread (4 Xeon vCPUs, gcc 12 Release, one
/// CPU, medians of 5, two runs each).
void collect_part(std::span<const TwoPinNet> nets, std::array<Axis, 2>& axes,
                  int ranges, std::size_t q, std::size_t begin,
                  std::size_t end) {
  const std::array<Interior, 2> interior{Interior(axes[0]),
                                         Interior(axes[1])};
  if (ranges == 1) {
    std::array<double*, 2> out;
    for (std::size_t i = 0; i < 2; ++i) {
      out[i] = axes[i].coords.data() + axes[i].stretch[q];
    }
    for_each_end(nets, begin, end, [&](auto i, double c) {
      if (interior[i].contains(c)) *out[i]++ = c;
    });
    for (std::size_t i = 0; i < 2; ++i) {
      Axis& a = axes[i];
      a.runs[q] = {};
      a.runs[q][0] = static_cast<std::uint32_t>(
          out[i] - (a.coords.data() + a.stretch[q]));
    }
    return;
  }
  std::array<std::array<std::uint32_t, kCutLineRanges>, 2> count{};
  for_each_end(nets, begin, end, [&](auto i, double c) {
    if (interior[i].contains(c)) {
      ++count[i][static_cast<std::size_t>(interior[i].range(c))];
    }
  });
  std::array<std::array<double*, kCutLineRanges>, 2> next;
  for (std::size_t i = 0; i < 2; ++i) {
    axes[i].runs[q] = count[i];
    double* at = axes[i].coords.data() + axes[i].stretch[q];
    for (std::size_t r = 0; r < kCutLineRanges; ++r) {
      next[i][r] = at;
      at += count[i][r];
    }
  }
  for_each_end(nets, begin, end, [&](auto i, double c) {
    if (interior[i].contains(c)) {
      *next[i][static_cast<std::size_t>(interior[i].range(c))]++ = c;
    }
  });
}

/// Sorts value range r of axis `a`, from every part's run of it, and
/// writes it back into those runs in part order. It counts the range's
/// buckets, places each coordinate in its bucket's run in a scratch buffer
/// of this thread, sorts inside the runs and copies the scratch back. The
/// coordinates come out in `<` order, as a comparison sort leaves them:
/// among finite values only -0.0 and +0.0 compare equal with different
/// bits, they share a bucket, and a cluster sum starting at +0.0 adds them
/// to +0.0 in either order.
void sort_range(Axis& a, int parts, std::size_t r) {
  // A run longer than this is sorted on its own before the insertion
  // pass, which then moves nothing in it.
  constexpr std::uint32_t kShortRun = 32;
  // The scratch of the thread that runs the block: one range at a time.
  struct Scratch {
    std::vector<double> sorted;
    std::vector<std::uint32_t> counts;
  };
  thread_local Scratch s;
  const UniformBuckets& b = a.buckets;
  const int first = static_cast<int>(r) << a.shift;
  const auto buckets = std::size_t{1} << a.shift;
  s.counts.assign(buckets, 0u);
  std::uint32_t* const count = s.counts.data();
  const auto q_end = static_cast<std::size_t>(parts);
  for (std::size_t q = 0; q < q_end; ++q) {
    for (const double c : a.run(q, r)) ++count[b.bucket(c) - first];
  }
  std::uint32_t n = 0;
  std::uint32_t longest = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    const std::uint32_t size = count[k];
    count[k] = n;
    n += size;
    longest = std::max(longest, size);
  }
  // Grow in small steps: the ranges' sizes vary a little from call to
  // call, and this buffer is held by every thread that sorts a range.
  if (n > s.sorted.capacity()) s.sorted.reserve(n + n / 8);
  s.sorted.resize(n);
  double* const out = s.sorted.data();
  for (std::size_t q = 0; q < q_end; ++q) {
    for (const double c : a.run(q, r)) out[count[b.bucket(c) - first]++] = c;
  }
  // count[k] is now the end of bucket k's run. Long runs come only from
  // coordinates bunched far tighter than the buckets (or an axis whose
  // scale is not finite).
  if (longest > kShortRun) {
    std::uint32_t begin = 0;
    for (std::size_t k = 0; k < buckets; ++k) {
      const std::uint32_t end = count[k];
      if (end - begin > kShortRun) std::sort(out + begin, out + end);
      begin = end;
    }
  }
  // One insertion pass sorts inside every run: an earlier run holds only
  // smaller coordinates, so nothing moves past its own run's start, and a
  // run it has to sort holds at most kShortRun coordinates.
  for (std::uint32_t i = 1; i < n; ++i) {
    const double v = out[i];
    if (!(v < out[i - 1])) continue;
    std::uint32_t j = i;
    do {
      out[j] = out[j - 1];
      --j;
    } while (j > 0 && v < out[j - 1]);
    out[j] = v;
  }
  const double* from = out;
  for (std::size_t q = 0; q < q_end; ++q) {
    const std::span<double> run = a.run(q, r);
    std::copy_n(from, run.size(), run.data());
    from += run.size();
  }
}

/// Clusters axis `a`, read range by range and part by part, and writes its
/// merged lines, lo and hi included, to `merged`.
void cluster(Axis& a, int parts, int ranges, std::vector<double>& merged) {
  const double min_gap = a.min_gap;
  std::vector<Cluster>& kept = a.kept;
  kept.clear();
  // Chained clusters can still land representatives closer than min_gap
  // (cluster A ends where cluster B starts, but their means are nearer).
  // Pool backwards until the new representative clears the previous one
  // by at least min_gap, so every interior IR-cell is at least min_gap
  // wide. Duplicates (gap 0) pool even when min_gap == 0.
  const auto keep = [&](Cluster c) {
    while (!kept.empty()) {
      const double gap = c.rep() - kept.back().rep();
      if (gap >= min_gap && gap > 0.0) break;
      c.sum += kept.back().sum;
      c.count += kept.back().count;
      kept.pop_back();
    }
    kept.push_back(c);
  };
  // Greedy clusters: everything within min_gap of the cluster start. The
  // first coordinate not within it opens the next cluster, so each
  // cluster holds at least one coordinate, also for min_gap == 0 (no
  // merging). A cluster may go on from one run into the next. Interior
  // coordinates are finite, so the first one opens the first cluster.
  Cluster open;
  double start = -std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < static_cast<std::size_t>(ranges); ++r) {
    for (std::size_t q = 0; q < static_cast<std::size_t>(parts); ++q) {
      const std::span<const double> run = a.run(q, r);
      const double* c = run.data();
      const double* const end = c + run.size();
      for (; c != end && *c - start < min_gap; ++c) {
        open.sum += *c;
        open.count += 1.0;
      }
      while (c != end) {
        if (open.count > 0.0) keep(open);
        start = *c;
        open = Cluster{};
        do {
          open.sum += *c;
          open.count += 1.0;
          ++c;
        } while (c != end && *c - start < min_gap);
      }
    }
  }
  if (open.count > 0.0) keep(open);

  merged.clear();
  merged.push_back(a.lo);
  for (const Cluster& c : kept) {
    // Pooling can drag a representative into a boundary's exclusion zone;
    // such lines are swallowed by the boundary like their raw coordinates.
    const double rep = c.rep();
    if (rep > a.lo + min_gap && rep < a.hi - min_gap) merged.push_back(rep);
  }
  merged.push_back(a.hi);
}

}  // namespace

CutLines build_cutlines(std::span<const TwoPinNet> nets, const Rect& chip,
                        double min_dx, double min_dy) {
  FICON_REQUIRE(chip.is_proper(), "chip must have positive area");
  FICON_REQUIRE(min_dx >= 0.0 && min_dy >= 0.0, "negative merge gap");
  const std::size_t items = nets.size();
  FICON_REQUIRE(items <= std::numeric_limits<std::uint32_t>::max() / 2,
                "too many cut-line coordinates");
  // Both axes merge on the global pool: collecting parts of the nets, then
  // one block per axis and value range that sorts the range, where the
  // last range of an axis to finish clusters the axis. With at least
  // kCutLineSplitCoordinates candidates per axis on a pool that runs in
  // parallel there are kCollectParts parts and kCutLineRanges ranges;
  // otherwise one of each, so every net is read once and each axis is one
  // block. The split reads the nets twice and sorts in more blocks, which
  // pays off only in parallel. The sorted order is unique, so the lines
  // do not depend on the split or on which thread ran which block.
  const std::size_t candidates = 2 * items;
  ThreadPool& pool = ThreadPool::global();
  const bool split =
      candidates >= kCutLineSplitCoordinates && !pool.runs_inline();
  const int parts = split ? kCollectParts : 1;
  const int ranges = split ? kCutLineRanges : 1;
  // Coordinate and cluster buffers are scratch of the calling thread, one
  // set per axis: this runs once per proposed annealing move, and the raw
  // line count (2 per net per axis) dwarfs the merged output that the
  // CutLines object owns. The blocks reach them through the local
  // reference: a thread_local named inside a block would be the worker's
  // instance, not the caller's.
  thread_local std::array<Axis, 2> scratch;
  std::array<Axis, 2>& axes = scratch;
  axes[0].lo = chip.xlo;
  axes[0].hi = chip.xhi;
  axes[0].min_gap = min_dx;
  axes[1].lo = chip.ylo;
  axes[1].hi = chip.yhi;
  axes[1].min_gap = min_dy;
  for (Axis& a : axes) {
    a.size_buckets(candidates, ranges);
    a.coords.resize(candidates);
    for (int q = 0; q < parts; ++q) {
      a.stretch[static_cast<std::size_t>(q)] =
          2 * block_range(items, parts, q).begin;
    }
  }
  pool.run(parts, [&](int q) {
    const BlockRange part = block_range(items, parts, q);
    collect_part(nets, axes, ranges, static_cast<std::size_t>(q), part.begin,
                 part.end);
  });
  std::array<std::vector<double>, 2> merged;
  std::array<std::atomic<int>, 2> sorted_ranges{};
  pool.run(2 * ranges, [&](int block) {
    const auto i = static_cast<std::size_t>(block / ranges);
    Axis& a = axes[i];
    sort_range(a, parts, static_cast<std::size_t>(block % ranges));
    // The last range in sees every other range's writes (acq_rel).
    if (sorted_ranges[i].fetch_add(1, std::memory_order_acq_rel) ==
        ranges - 1) {
      cluster(a, parts, ranges, merged[i]);
    }
  });
  return CutLines(std::move(merged[0]), std::move(merged[1]));
}

}  // namespace ficon
