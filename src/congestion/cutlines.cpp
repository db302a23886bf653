#include "congestion/cutlines.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

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

// LSD radix sort over 11-bit digits: six passes cover a 64-bit key, and
// one pass's 2048 counters stay in L1 while its keys are scattered.
constexpr int kDigitBits = 11;
constexpr int kDigitPasses = (64 + kDigitBits - 1) / kDigitBits;
constexpr std::size_t kDigitBuckets = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kDigitBuckets - 1;
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Order-preserving bit image of a coordinate: for non-NaN doubles,
/// unsigned key order is `<`, except that -0.0 sorts before +0.0.
std::uint64_t coord_key(double v) {
  const auto u = std::bit_cast<std::uint64_t>(v);
  return (u & kSignBit) != 0 ? ~u : (u | kSignBit);
}

/// The coordinate whose key coord_key() returned, bit for bit.
double key_coord(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? (key ^ kSignBit)
                                                     : ~key);
}

/// Appends the key of `c` when it can become an interior line. A
/// coordinate at or within min_gap of a boundary, or outside the chip, is
/// swallowed by the boundary, so it is never sorted.
void add_coord(std::vector<std::uint64_t>& keys, double c, double lo,
               double hi, double min_gap) {
  if (c > lo + min_gap && c < hi - min_gap) keys.push_back(coord_key(c));
}

/// One axis's coordinate keys, the radix sort's ping-pong buffer and
/// digit counts, and its cluster buffer.
struct AxisScratch {
  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> sorted;
  std::vector<std::uint32_t> counts;
  std::vector<Cluster> kept;
};

/// Sorts `s.keys` ascending. One read fills every pass's digit counts; a
/// pass whose digit is the same in every key moves nothing and is skipped.
/// The coordinates come out in `<` order, as a comparison sort leaves
/// them: among finite values only -0.0 and +0.0 compare equal with
/// different bits, and a cluster sum starting at +0.0 adds them to +0.0
/// in either order.
void radix_sort(AxisScratch& s) {
  const std::size_t n = s.keys.size();
  if (n < 2) return;
  FICON_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
                "too many cut-line coordinates");
  s.counts.assign(kDigitPasses * kDigitBuckets, 0);
  for (const std::uint64_t key : s.keys) {
    for (int pass = 0; pass < kDigitPasses; ++pass) {
      const std::uint64_t digit = (key >> (pass * kDigitBits)) & kDigitMask;
      ++s.counts[static_cast<std::size_t>(pass) * kDigitBuckets + digit];
    }
  }
  s.sorted.resize(n);
  for (int pass = 0; pass < kDigitPasses; ++pass) {
    const int shift = pass * kDigitBits;
    std::uint32_t* const count =
        s.counts.data() + static_cast<std::size_t>(pass) * kDigitBuckets;
    if (count[(s.keys[0] >> shift) & kDigitMask] == n) continue;
    std::uint32_t offset = 0;
    for (std::size_t b = 0; b < kDigitBuckets; ++b) {
      const std::uint32_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (const std::uint64_t key : s.keys) {
      s.sorted[count[(key >> shift) & kDigitMask]++] = key;
    }
    s.keys.swap(s.sorted);
  }
}

/// merge_lines() on caller-owned scratch: sorts the interior coordinate
/// keys add_coord() put in `s.keys`, uses `s.kept` as the cluster buffer
/// and writes the merged lines to `merged`. build_cutlines() runs once
/// per proposed annealing move, so it feeds thread_local scratch here
/// instead of allocating fresh buffers per call.
void merge_lines_into(AxisScratch& s, double lo, double hi, double min_gap,
                      std::vector<double>& merged) {
  FICON_REQUIRE(lo < hi, "degenerate axis");
  FICON_REQUIRE(min_gap >= 0.0, "negative merge gap");
  radix_sort(s);

  const std::vector<std::uint64_t>& keys = s.keys;
  const auto coord = [&keys](std::size_t i) { return key_coord(keys[i]); };
  std::vector<Cluster>& kept = s.kept;
  kept.clear();
  std::size_t i = 0;
  while (i < keys.size()) {
    // Greedy cluster: everything within min_gap of the cluster start. The
    // first coordinate is always consumed, so the loop advances even for
    // min_gap == 0 (no merging).
    const double start = coord(i);
    Cluster cluster;
    do {
      cluster.sum += coord(i);
      cluster.count += 1.0;
      ++i;
    } while (i < keys.size() && coord(i) - start < min_gap);
    // Chained clusters can still land representatives closer than min_gap
    // (cluster A ends where cluster B starts, but their means are nearer).
    // Pool backwards until the new representative clears the previous one
    // by at least min_gap, so every interior IR-cell is at least min_gap
    // wide. Duplicates (gap 0) pool even when min_gap == 0.
    while (!kept.empty()) {
      const double gap = cluster.rep() - kept.back().rep();
      if (gap >= min_gap && gap > 0.0) break;
      cluster.sum += kept.back().sum;
      cluster.count += kept.back().count;
      kept.pop_back();
    }
    kept.push_back(cluster);
  }

  merged.clear();
  merged.push_back(lo);
  for (const Cluster& c : kept) {
    // Pooling can drag a representative into a boundary's exclusion zone;
    // such lines are swallowed by the boundary like their raw coordinates.
    const double rep = c.rep();
    if (rep > lo + min_gap && rep < hi - min_gap) merged.push_back(rep);
  }
  merged.push_back(hi);
}

}  // namespace

std::vector<double> merge_lines(std::vector<double> coords, double lo,
                                double hi, double min_gap) {
  AxisScratch s;
  for (const double c : coords) add_coord(s.keys, c, lo, hi, min_gap);
  std::vector<double> merged;
  merge_lines_into(s, lo, hi, min_gap, merged);
  return merged;
}

CutLines build_cutlines(std::span<const TwoPinNet> nets, const Rect& chip,
                        double min_dx, double min_dy) {
  FICON_REQUIRE(chip.is_proper(), "chip must have positive area");
  // Coordinate keys, sort and cluster buffers are scratch of the calling
  // thread, one set per axis: this runs once per proposed annealing move,
  // and the raw line count (2 per net per axis) dwarfs the merged output
  // that the CutLines object owns. The blocks reach them through the local
  // reference: a thread_local named inside the lambda would be the
  // worker's instance, not the caller's.
  thread_local std::array<AxisScratch, 2> scratch_tls;
  std::array<AxisScratch, 2>& scratch = scratch_tls;
  std::array<std::vector<double>, 2> merged;
  // The axes are independent, so each is one block: it collects, sorts
  // and merges its own coordinates. Its lines depend on nothing else, so
  // they are the same whether the two blocks run at once or inline in
  // order.
  ThreadPool::global().run(2, [&](int axis) {
    const bool x = axis == 0;
    const double lo = x ? chip.xlo : chip.ylo;
    const double hi = x ? chip.xhi : chip.yhi;
    const double min_gap = x ? min_dx : min_dy;
    AxisScratch& s = scratch[static_cast<std::size_t>(axis)];
    s.keys.clear();
    s.keys.reserve(nets.size() * 2);
    for (const TwoPinNet& net : nets) {
      const Rect r = net.routing_range();
      add_coord(s.keys, x ? r.xlo : r.ylo, lo, hi, min_gap);
      add_coord(s.keys, x ? r.xhi : r.yhi, lo, hi, min_gap);
    }
    merge_lines_into(s, lo, hi, min_gap,
                     merged[static_cast<std::size_t>(axis)]);
  });
  return CutLines(std::move(merged[0]), std::move(merged[1]));
}

}  // namespace ficon
