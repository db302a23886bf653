#include "congestion/cutlines.hpp"

#include <algorithm>
#include <array>

#include "util/thread_pool.hpp"

namespace ficon {

CutLines::CutLines(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  FICON_REQUIRE(xs_.size() >= 2 && ys_.size() >= 2,
                "need at least the chip boundary lines");
  FICON_REQUIRE(std::is_sorted(xs_.begin(), xs_.end()) &&
                    std::is_sorted(ys_.begin(), ys_.end()),
                "cut lines must be sorted");
}

int CutLines::nearest(const std::vector<double>& lines, double v) {
  const auto it = std::lower_bound(lines.begin(), lines.end(), v);
  if (it == lines.begin()) return 0;
  if (it == lines.end()) return static_cast<int>(lines.size()) - 1;
  const auto prev = it - 1;
  const bool take_prev = (v - *prev) <= (*it - v);
  return static_cast<int>((take_prev ? prev : it) - lines.begin());
}

namespace {

// Interior cluster: coordinate sum and count; its representative is the
// (weighted) mean of every coordinate merged into it.
struct Cluster {
  double sum = 0.0;
  double count = 0.0;
  double rep() const { return sum / count; }
};

/// One axis's raw coordinates and its cluster buffer.
struct AxisScratch {
  std::vector<double> coords;
  std::vector<Cluster> kept;
};

/// merge_lines() with caller-owned scratch: sorts `coords` in place, uses
/// `kept` as the cluster buffer and writes the merged lines to `merged`.
/// build_cutlines() runs once per proposed annealing move, so it feeds
/// thread_local buffers here instead of allocating fresh ones per call.
void merge_lines_into(std::vector<double>& coords, double lo, double hi,
                      double min_gap, std::vector<Cluster>& kept,
                      std::vector<double>& merged) {
  FICON_REQUIRE(lo < hi, "degenerate axis");
  FICON_REQUIRE(min_gap >= 0.0, "negative merge gap");
  std::sort(coords.begin(), coords.end());

  kept.clear();
  std::size_t i = 0;
  while (i < coords.size()) {
    // Skip coordinates at/outside the pinned boundaries or hugging lo.
    if (coords[i] <= lo + min_gap) {
      ++i;
      continue;
    }
    if (coords[i] >= hi - min_gap) break;
    // Greedy cluster: everything within min_gap of the cluster start. The
    // first coordinate is always consumed, so the loop advances even for
    // min_gap == 0 (no merging).
    const double start = coords[i];
    Cluster cluster;
    do {
      cluster.sum += coords[i];
      cluster.count += 1.0;
      ++i;
    } while (i < coords.size() && coords[i] - start < min_gap &&
             coords[i] < hi - min_gap);
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
  std::vector<Cluster> kept;
  std::vector<double> merged;
  merge_lines_into(coords, lo, hi, min_gap, kept, merged);
  return merged;
}

CutLines build_cutlines(std::span<const TwoPinNet> nets, const Rect& chip,
                        double min_dx, double min_dy) {
  FICON_REQUIRE(chip.is_proper(), "chip must have positive area");
  // Raw coordinate and cluster buffers are scratch of the calling thread,
  // one set per axis: this runs once per proposed annealing move, and the
  // raw line count (2 per net per axis) dwarfs the merged output that the
  // CutLines object owns. The blocks reach them through the local
  // reference: a thread_local named inside the lambda would be the
  // worker's instance, not the caller's.
  thread_local std::array<AxisScratch, 2> scratch_tls;
  std::array<AxisScratch, 2>& scratch = scratch_tls;
  std::array<std::vector<double>, 2> merged;
  // The axes are independent, so each is one block: it clamps, sorts and
  // merges its own coordinates. Its lines depend on nothing else, so they
  // are the same whether the two blocks run at once or inline in order.
  ThreadPool::global().run(2, [&](int axis) {
    const bool x = axis == 0;
    const double lo = x ? chip.xlo : chip.ylo;
    const double hi = x ? chip.xhi : chip.yhi;
    AxisScratch& s = scratch[static_cast<std::size_t>(axis)];
    s.coords.clear();
    s.coords.reserve(nets.size() * 2);
    for (const TwoPinNet& net : nets) {
      const Rect r = net.routing_range();
      s.coords.push_back(std::clamp(x ? r.xlo : r.ylo, lo, hi));
      s.coords.push_back(std::clamp(x ? r.xhi : r.yhi, lo, hi));
    }
    merge_lines_into(s.coords, lo, hi, x ? min_dx : min_dy, s.kept,
                     merged[static_cast<std::size_t>(axis)]);
  });
  return CutLines(std::move(merged[0]), std::move(merged[1]));
}

}  // namespace ficon
