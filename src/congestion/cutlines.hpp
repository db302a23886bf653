// Cut-line construction for the Irregular-Grid (paper section 4.2 and
// algorithm step 1-2).
//
// Every routing range contributes two vertical and two horizontal cutting
// lines (its boundary extensions); the chip boundary contributes the outer
// four. Lines closer together than twice the fine-grid pitch are merged
// (algorithm step 2) so that no IR-grid is thinner than the probability
// math can resolve, and the associated routing ranges are snapped to the
// merged representatives. Every net snaps each of its four range edges,
// so the snap goes through a bucket index built once with the lines and
// costs O(1) per edge instead of a binary search.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/rect.hpp"
#include "route/two_pin.hpp"
#include "util/check.hpp"

namespace ficon {

/// @brief The sorted cut-line coordinates of an Irregular-Grid.
///
/// xs/ys always include the chip boundaries as first and last entries, so
/// the grid has (xs.size()-1) x (ys.size()-1) IR-cells. Immutable after
/// construction and therefore safe to share across evaluation threads.
class CutLines {
 public:
  /// @param xs sorted vertical cut-line coordinates (um), >= 2 entries.
  /// @param ys sorted horizontal cut-line coordinates (um), >= 2 entries.
  CutLines(std::vector<double> xs, std::vector<double> ys);

  /// Sorted vertical cut-line coordinates, chip boundaries included.
  const std::vector<double>& xs() const { return xs_; }
  /// Sorted horizontal cut-line coordinates, chip boundaries included.
  const std::vector<double>& ys() const { return ys_; }

  /// Number of IR-cell columns (xs().size() - 1).
  int nx() const { return static_cast<int>(xs_.size()) - 1; }
  /// Number of IR-cell rows (ys().size() - 1).
  int ny() const { return static_cast<int>(ys_.size()) - 1; }
  /// Total IR-cells — the "# of IR-grid" quantity of Table 4.
  long long cell_count() const {
    return static_cast<long long>(nx()) * static_cast<long long>(ny());
  }

  /// @brief Index of the cut line nearest to coordinate `x` — how routing
  /// ranges are snapped onto the merged grid (algorithm step 2). A tie
  /// takes the lower line; a coordinate at or below the first line (or
  /// NaN) gives 0, one above the last line the last index.
  int nearest_x(double x) const { return nearest(xs_, x_index_, x); }
  /// @brief Index of the cut line nearest to coordinate `y`.
  int nearest_y(double y) const { return nearest(ys_, y_index_, y); }

  /// @brief um rectangle of IR-cell (ix, iy).
  /// @param ix column index in [0, nx()).
  /// @param iy row index in [0, ny()).
  Rect cell_rect(int ix, int iy) const {
    FICON_REQUIRE(ix >= 0 && ix < nx() && iy >= 0 && iy < ny(),
                  "IR-cell index out of range");
    return Rect{xs_[static_cast<std::size_t>(ix)],
                ys_[static_cast<std::size_t>(iy)],
                xs_[static_cast<std::size_t>(ix) + 1],
                ys_[static_cast<std::size_t>(iy) + 1]};
  }

 private:
  /// Uniform buckets over one axis's [first line, last line]. A
  /// coordinate's bucket is (v - origin) * scale, truncated and capped at
  /// `last`: a monotone map, so every line before `first[k]`, the first
  /// line whose bucket is >= k, lies below any v in bucket k, and a
  /// forward scan from there finds std::lower_bound's position. Eight
  /// buckets per line keep that scan to a step, if any.
  struct Index {
    double origin = 0.0;
    double scale = 0.0;  ///< buckets per um; 0 puts every line in bucket 0
    int last = 0;        ///< the last bucket
    std::vector<int> first;

    int bucket(double v) const {
      const double t = (v - origin) * scale;
      return t < last ? static_cast<int>(t) : last;
    }
  };

  static Index build_index(const std::vector<double>& lines);

  /// std::lower_bound's position from the index's entry and a forward
  /// scan, then the tie rule (v - below) <= (above - v).
  static int nearest(const std::vector<double>& lines, const Index& index,
                     double v) {
    const double* line = lines.data();
    const int n = static_cast<int>(lines.size());
    if (!(v > line[0])) return 0;
    if (v > line[n - 1]) return n - 1;
    // line[0] < v <= line[n - 1], so the scan stops at a line >= v, and
    // i >= 1.
    int i = index.first[static_cast<std::size_t>(index.bucket(v))];
    while (line[i] < v) ++i;
    return (v - line[i - 1]) <= (line[i] - v) ? i - 1 : i;
  }

  std::vector<double> xs_;
  std::vector<double> ys_;
  Index x_index_;
  Index y_index_;
};

/// An axis with at least this many candidate coordinates (two per net in
/// build_cutlines()) is collected in four pool blocks and sorted in
/// kCutLineRanges value ranges, one pool block each, when the pool runs in
/// parallel; a smaller axis, or any axis when the pool runs its blocks
/// inline (ThreadPool::runs_inline()), is collected in one block and
/// sorted in one. Both give the same lines. On a 4-thread pool (4 Xeon
/// vCPUs, gcc 12 Release) with random nets, best of 400 calls in two
/// runs, the split lost at 8,192 and 12,000 candidates per axis (110
/// against 99 us, 161 against 152 us per call) and won from 16,384 up
/// (208 against 214-227 us; at 88,000, 969-998 against 1,194-1,356 us).
inline constexpr std::size_t kCutLineSplitCoordinates = 16384;
/// The value ranges of a split axis: equal parts of [lo, hi], each sorted
/// by its own pool block into scratch of the thread that runs it. Eight
/// keep that scratch near an eighth of an axis per thread; four took the
/// stream tier's cut lines 1.05-1.19 ms against 1.01-1.04 ms for eight
/// (same pool and build, best of 20 over 40 floorplans).
inline constexpr int kCutLineRanges = 8;

/// @brief Build the Irregular-Grid cut lines from the routing ranges of
/// the decomposed nets (algorithm steps 1-2).
///
/// Every net's routing range contributes its two vertical and two
/// horizontal boundary extensions; lines closer than min_dx (min_dy) are
/// merged into their cluster mean. The chip boundary lines are pinned and
/// never move.
///
/// @param nets   decomposed 2-pin nets whose ranges seed the lines.
/// @param chip   chip rectangle providing the outer, pinned boundaries.
/// @param min_dx merge threshold in x (um) — the paper uses 2x the pitch.
/// @param min_dy merge threshold in y (um).
/// @return merged, sorted cut lines covering the chip.
CutLines build_cutlines(std::span<const TwoPinNet> nets, const Rect& chip,
                        double min_dx, double min_dy);

/// @brief Merge one sorted axis worth of coordinates (exposed for tests).
///
/// @param coords candidate interior line coordinates (any order).
/// @param lo,hi  pinned chip boundaries; interior lines within min_gap of
///               a boundary collapse into the boundary.
/// @param min_gap interior clusters within this gap collapse to their
///               (weighted) mean; chained clusters whose means still land
///               closer than min_gap are pooled until the invariant holds.
/// @return sorted merged coordinates, lo and hi included; every
///         consecutive pair is at least min_gap apart, so no IR-cell is
///         narrower than the merge gap.
std::vector<double> merge_lines(std::vector<double> coords, double lo,
                                double hi, double min_gap);

}  // namespace ficon
