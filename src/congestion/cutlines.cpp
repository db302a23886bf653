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

CutLines::Index CutLines::build_index(const std::vector<double>& lines) {
  // Eight buckets per line: the scan from a bucket's first line then
  // almost never moves, so its branch predicts (measured against two and
  // four per line on the stream tier's snaps). The count must fit an int.
  constexpr int kBucketsPerLine = 8;
  FICON_REQUIRE(lines.size() <= static_cast<std::size_t>(
                                    std::numeric_limits<int>::max() /
                                    kBucketsPerLine),
                "too many cut lines");
  Index index;
  index.origin = lines.front();
  const int n = static_cast<int>(lines.size());
  // (v - origin) * scale stays finite for every v on the axis only when
  // the extent and the scale are finite; otherwise one bucket holds all
  // lines and the scan runs from the first.
  const double extent = lines.back() - lines.front();
  const double scale = static_cast<double>(kBucketsPerLine) * n / extent;
  if (extent > 0.0 && std::isfinite(extent) && std::isfinite(scale)) {
    index.scale = scale;
    index.last = kBucketsPerLine * n - 1;
  }
  index.first.resize(static_cast<std::size_t>(index.last) + 1);
  int i = 0;
  for (int k = 0; k <= index.last; ++k) {
    while (i < n - 1 && index.bucket(lines[static_cast<std::size_t>(i)]) < k) {
      ++i;
    }
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

/// One axis's sort buckets, a monotone map of the coordinate like
/// CutLines::Index's: bucket (c - origin) * scale, truncated and capped at
/// `last`. A larger coordinate never lands in an earlier bucket, so
/// sorting each bucket and reading them in order sorts the axis. The
/// buckets form equal runs of 2^shift, one per value range, so
/// bucket >> shift is a coordinate's range.
struct Buckets {
  double origin = 0.0;
  double scale = 0.0;  ///< buckets per um; 0 puts every coordinate in bucket 0
  int last = 0;        ///< the last bucket
  int shift = 0;       ///< log2 of the buckets per range

  /// Callers pass interior coordinates only: c > origin, so the product
  /// is >= 0 or NaN, and the cast sees only values below `last`.
  int bucket(double c) const {
    const double t = (c - origin) * scale;
    return t < last ? static_cast<int>(t) : last;
  }
  int range(double c) const { return bucket(c) >> shift; }
  int per_range() const { return 1 << shift; }
};

/// Buckets over [lo, hi] in `ranges` runs of a power of two, one to two
/// per candidate coordinate. When the extent or the scale is not finite
/// every coordinate shares bucket 0, as in CutLines::build_index().
Buckets make_buckets(double lo, double hi, std::size_t candidates,
                     int ranges) {
  // Fewer buckets leave more to the insertion pass: half as many took the
  // stream tier's cut lines 1.15-1.18 ms against 1.07-1.09 on a 4-thread
  // pool (4 Xeon vCPUs, gcc 12 Release).
  constexpr int kMaxShift = 20;  // at most 2^20 buckets per range
  const std::size_t wanted = std::max<std::size_t>(
      2 * candidates / static_cast<std::size_t>(ranges), 1);
  Buckets b;
  b.origin = lo;
  b.shift = std::min(static_cast<int>(std::bit_width(wanted)) - 1, kMaxShift);
  const int buckets = b.per_range() * ranges;
  const double extent = hi - lo;
  const double scale = static_cast<double>(buckets) / extent;
  if (extent > 0.0 && std::isfinite(extent) && std::isfinite(scale)) {
    b.scale = scale;
    b.last = buckets - 1;
  }
  return b;
}

/// One axis to merge: its bounds, gap and buckets, and its scratch: the
/// collected coordinates, where each collecting part's stretch of them
/// starts, how many each part put in each value range, and the cluster
/// buffer. Part q's coordinates sit in its own stretch, grouped by value
/// range; each range's block then writes the range back into the same
/// places in sorted order, so reading range by range and part by part
/// reads the axis sorted.
struct Axis {
  double lo = 0.0;
  double hi = 0.0;
  double min_gap = 0.0;
  Buckets buckets;
  std::vector<double> coords;
  std::array<std::size_t, kCollectParts> stretch{};
  std::array<std::array<std::uint32_t, kCutLineRanges>, kCollectParts> runs{};
  std::vector<Cluster> kept;

  void check() const {
    FICON_REQUIRE(lo < hi, "degenerate axis");
    FICON_REQUIRE(min_gap >= 0.0, "negative merge gap");
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
  Buckets buckets;

  /// A coordinate at or within min_gap of a boundary, or outside the
  /// chip, is swallowed by the boundary, so it is never sorted.
  bool contains(double c) const { return c > above && c < below; }
};

/// Collecting part q over items [begin, end): writes the interior
/// coordinates of every axis into the part's stretch of the axis's
/// coords, grouped by value range. With one range it collects in one read
/// of the items; with more it counts each range in a first read and
/// places every coordinate in its range's run in a second, so that no
/// second buffer is needed.
template <class Source, std::size_t N>
void collect_part(const Source& source, const std::array<Axis*, N>& axes,
                  int ranges, std::size_t q, std::size_t begin,
                  std::size_t end) {
  std::array<Interior, N> interior;
  for (std::size_t i = 0; i < N; ++i) {
    const Axis& a = *axes[i];
    a.check();
    interior[i] = Interior{a.lo + a.min_gap, a.hi - a.min_gap, a.buckets};
  }
  if (ranges == 1) {
    std::array<double*, N> out;
    for (std::size_t i = 0; i < N; ++i) {
      out[i] = axes[i]->coords.data() + axes[i]->stretch[q];
    }
    source.visit(begin, end, [&](auto i, double c) {
      if (interior[i].contains(c)) *out[i]++ = c;
    });
    for (std::size_t i = 0; i < N; ++i) {
      Axis& a = *axes[i];
      a.runs[q] = {};
      a.runs[q][0] = static_cast<std::uint32_t>(
          out[i] - (a.coords.data() + a.stretch[q]));
    }
    return;
  }
  std::array<std::array<std::uint32_t, kCutLineRanges>, N> count{};
  source.visit(begin, end, [&](auto i, double c) {
    if (interior[i].contains(c)) {
      ++count[i][static_cast<std::size_t>(interior[i].buckets.range(c))];
    }
  });
  std::array<std::array<double*, kCutLineRanges>, N> next;
  for (std::size_t i = 0; i < N; ++i) {
    axes[i]->runs[q] = count[i];
    double* at = axes[i]->coords.data() + axes[i]->stretch[q];
    for (std::size_t r = 0; r < kCutLineRanges; ++r) {
      next[i][r] = at;
      at += count[i][r];
    }
  }
  source.visit(begin, end, [&](auto i, double c) {
    if (interior[i].contains(c)) {
      *next[i][static_cast<std::size_t>(interior[i].buckets.range(c))]++ = c;
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
  const Buckets& b = a.buckets;
  const int first = static_cast<int>(r) * b.per_range();
  const auto buckets = static_cast<std::size_t>(b.per_range());
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

/// build_cutlines()'s candidate coordinates: both ends of every net's
/// routing range, on axis 0 (x) and axis 1 (y).
struct NetEnds {
  static constexpr std::size_t kPerItem = 2;  ///< candidates per axis
  std::span<const TwoPinNet> nets;

  std::size_t items() const { return nets.size(); }
  template <class Fn>
  void visit(std::size_t begin, std::size_t end, Fn&& fn) const {
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
};

/// merge_lines()'s coordinates: one axis, one candidate each.
struct Coordinates {
  static constexpr std::size_t kPerItem = 1;
  std::span<const double> coords;

  std::size_t items() const { return coords.size(); }
  template <class Fn>
  void visit(std::size_t begin, std::size_t end, Fn&& fn) const {
    const std::integral_constant<std::size_t, 0> axis;
    for (std::size_t i = begin; i < end; ++i) fn(axis, coords[i]);
  }
};

/// Merges every axis of `axes` from `source`'s candidates on the global
/// pool: collecting parts of the items, then one block per axis and value
/// range that sorts the range, where the last range of an axis to finish
/// clusters the axis. With at least kCutLineSplitCoordinates candidates
/// per axis on a pool that runs in parallel there are kCollectParts parts,
/// each a pool block, and kCutLineRanges ranges; otherwise one of each, so
/// every item is read once and each axis is one block. The split reads the
/// items twice and sorts in more blocks, which pays off only in parallel.
/// The sorted order is unique, so the lines do not depend on the split or
/// on which thread ran which block.
template <class Source, std::size_t N>
void merge_axes(const Source& source, const std::array<Axis*, N>& axes,
                const std::array<std::vector<double>*, N>& merged) {
  const std::size_t items = source.items();
  FICON_REQUIRE(items <= std::numeric_limits<std::uint32_t>::max() /
                             Source::kPerItem,
                "too many cut-line coordinates");
  const std::size_t candidates = items * Source::kPerItem;
  ThreadPool& pool = ThreadPool::global();
  const bool split =
      candidates >= kCutLineSplitCoordinates && !pool.runs_inline();
  const int parts = split ? kCollectParts : 1;
  const int ranges = split ? kCutLineRanges : 1;
  for (Axis* a : axes) {
    a->buckets = make_buckets(a->lo, a->hi, candidates, ranges);
    a->coords.resize(candidates);
    for (int q = 0; q < parts; ++q) {
      a->stretch[static_cast<std::size_t>(q)] =
          block_range(items, parts, q).begin * Source::kPerItem;
    }
  }
  // One part is collected here, without the pool: the pool's work counts
  // then see the one block per axis of the sort alone.
  if (parts == 1) {
    collect_part(source, axes, ranges, 0, 0, items);
  } else {
    pool.run(parts, [&](int q) {
      const BlockRange part = block_range(items, parts, q);
      collect_part(source, axes, ranges, static_cast<std::size_t>(q),
                   part.begin, part.end);
    });
  }
  std::array<std::atomic<int>, N> sorted_ranges{};
  pool.run(static_cast<int>(N) * ranges, [&](int block) {
    const auto i = static_cast<std::size_t>(block / ranges);
    Axis& a = *axes[i];
    sort_range(a, parts, static_cast<std::size_t>(block % ranges));
    // The last range in sees every other range's writes (acq_rel).
    if (sorted_ranges[i].fetch_add(1, std::memory_order_acq_rel) ==
        ranges - 1) {
      cluster(a, parts, ranges, *merged[i]);
    }
  });
}

}  // namespace

std::vector<double> merge_lines(std::vector<double> coords, double lo,
                                double hi, double min_gap) {
  Axis axis;
  axis.lo = lo;
  axis.hi = hi;
  axis.min_gap = min_gap;
  std::vector<double> merged;
  merge_axes(Coordinates{coords}, std::array<Axis*, 1>{&axis},
             std::array<std::vector<double>*, 1>{&merged});
  return merged;
}

CutLines build_cutlines(std::span<const TwoPinNet> nets, const Rect& chip,
                        double min_dx, double min_dy) {
  FICON_REQUIRE(chip.is_proper(), "chip must have positive area");
  // Coordinate and cluster buffers are scratch of the calling thread, one
  // set per axis: this runs once per proposed annealing move, and the raw
  // line count (2 per net per axis) dwarfs the merged output that the
  // CutLines object owns. The blocks reach them through the local
  // reference: a thread_local named inside a block would be the worker's
  // instance, not the caller's.
  thread_local std::array<Axis, 2> scratch_tls;
  std::array<Axis, 2>& scratch = scratch_tls;
  scratch[0].lo = chip.xlo;
  scratch[0].hi = chip.xhi;
  scratch[0].min_gap = min_dx;
  scratch[1].lo = chip.ylo;
  scratch[1].hi = chip.yhi;
  scratch[1].min_gap = min_dy;
  std::array<std::vector<double>, 2> merged;
  merge_axes(NetEnds{nets}, std::array<Axis*, 2>{&scratch[0], &scratch[1]},
             std::array<std::vector<double>*, 2>{&merged[0], &merged[1]});
  return CutLines(std::move(merged[0]), std::move(merged[1]));
}

}  // namespace ficon
