// One 2-pin net set up on the Irregular-Grid before any probability is
// computed: its routing range snapped to the merged cut lines (algorithm
// step 2), the fine lattice of the snapped range, the lattice span of
// every IR column and row it covers, and the band pass those spans admit
// (see NetScorer in irregular_grid.cpp for the band pass itself).
//
// The set-up produces only integers and copies of cut-line coordinates.
// Each edge snaps through CutLines' bucket index in O(1), and each
// covered cut line is mapped onto the lattice once, by integer truncation,
// in the same pass that decides whether the spans cover the lattice and
// chain for a band pass. An evaluation scores every net, most of them
// small, so this bookkeeping costs as much as the band steps of a small
// net. The spans are written in the canonical type I frame only (a type
// II net's rows mirrored), the one frame the band pass, both region
// strategies and the score memo read.
#pragma once

#include <algorithm>
#include <vector>

#include "congestion/cutlines.hpp"
#include "congestion/path_prob.hpp"
#include "geom/rect.hpp"
#include "route/two_pin.hpp"

namespace ficon {

/// The axis a banded net's single band pass runs on.
enum class BandAxis {
  kNone,     ///< no band pass fits the spans: the net is scored per region
  kColumns,  ///< one band per covered IR column but the last
  kRows,     ///< one band per covered IR row but the last, canonical order
};

/// One net's placement on the Irregular-Grid: covered IR-cell index window
/// plus the local fine lattice.
struct NetOnGrid {
  int ix1, ix2, iy1, iy2;  ///< covering cut-line indices (cells ix1..ix2-1)
  NetGridShape shape;

  int ncx() const { return ix2 - ix1; }  ///< covered IR columns
  int ncy() const { return iy2 - iy1; }  ///< covered IR rows
};

/// Set-up scratch and result for the nets of one evaluation block. The
/// span buffers are sized once for the cut lines, so a net writes its
/// spans by index.
class NetSetup {
 public:
  /// @param lines the evaluation's cut lines; must outlive this object.
  explicit NetSetup(const CutLines& lines)
      : lines_(&lines),
        lx1_(lines.xs().size()),
        lx2_(lines.xs().size()),
        ly1_(lines.ys().size()),
        ly2_(lines.ys().size()) {}

  /// Algorithm step 2 ("modify the corresponding routing ranges"): snaps
  /// each edge of `net`'s routing range, clipped to `chip`, to its nearest
  /// cut line. False when the clipped range is empty (the net lies outside
  /// the chip window).
  bool snap(const TwoPinNet& net, const Rect& chip) {
    const Rect range = net.routing_range().intersection(chip);
    if (!range.valid()) return false;
    net_.ix1 = lines_->nearest_x(range.xlo);
    net_.ix2 = lines_->nearest_x(range.xhi);
    net_.iy1 = lines_->nearest_y(range.ylo);
    net_.iy2 = lines_->nearest_y(range.yhi);
    return true;
  }

  /// True when the snapped range collapsed to a cut line or a crossing.
  bool degenerate_window() const {
    return net_.ix1 == net_.ix2 || net_.iy1 == net_.iy2;
  }

  /// The fine lattice of the snapped range, the spans of its covered IR
  /// columns and rows, and the band pass they admit. Call after a snap()
  /// whose window is not degenerate.
  void lay_out(const TwoPinNet& net, double pitch_x, double pitch_y) {
    const std::vector<double>& xs = lines_->xs();
    const std::vector<double>& ys = lines_->ys();
    const double* x_lines = xs.data() + net_.ix1;
    const double* y_lines = ys.data() + net_.iy1;
    const int ncx = net_.ncx();
    const int ncy = net_.ncy();
    // Its bound keeps the spans below in int range too.
    const int g1 = lattice_cells(x_lines[ncx] - x_lines[0], pitch_x);
    const int g2 = lattice_cells(y_lines[ncy] - y_lines[0], pitch_y);
    // Type II iff the left pin is the upper pin (Figure 1).
    const Point& left = net.a.x <= net.b.x ? net.a : net.b;
    const Point& right = net.a.x <= net.b.x ? net.b : net.a;
    net_.shape = NetGridShape{g1, g2, false};
    net_.shape.type2 = !net_.shape.degenerate() && left.y > right.y;

    const AxisPlan columns =
        map_axis<false>(x_lines, ncx, pitch_x, g1, lx1_.data(), lx2_.data());
    // Canonical frame: type II rows are mirrored and run top-down, so
    // canonical row r is IR row ncy - 1 - r.
    const AxisPlan rows =
        net_.shape.type2
            ? map_axis<true>(y_lines, ncy, pitch_y, g2, ly1_.data(),
                             ly2_.data())
            : map_axis<false>(y_lines, ncy, pitch_y, g2, ly1_.data(),
                              ly2_.data());
    // Columns or rows, whichever takes fewer band steps among those that
    // chain (a pass runs one band per span but the last); none when an
    // IR-cell covers no fine cell or neither axis chains, and none for a
    // degenerate lattice, which has no band to run.
    axis_ = BandAxis::kNone;
    if (!net_.shape.degenerate() && columns.covers && rows.covers) {
      const long long column_steps = static_cast<long long>(ncx - 1) * g2;
      const long long row_steps = static_cast<long long>(ncy - 1) * g1;
      if (rows.chains && (!columns.chains || row_steps < column_steps)) {
        axis_ = BandAxis::kRows;
      } else if (columns.chains) {
        axis_ = BandAxis::kColumns;
      }
    }
  }

  const NetOnGrid& net() const { return net_; }
  BandAxis band_axis() const { return axis_; }

  /// Local fine spans [lx1[c], lx2[c]] of covered IR column c (ncx used).
  const int* lx1() const { return lx1_.data(); }
  const int* lx2() const { return lx2_.data(); }
  /// Local fine spans [ly1[r], ly2[r]] of canonical row r (ncy used): IR
  /// row r of a type I net, and IR row ncy - 1 - r of a type II net,
  /// mirrored (fine row y is g2 - 1 - y).
  const int* ly1() const { return ly1_.data(); }
  const int* ly2() const { return ly2_.data(); }

 private:
  /// Whether an axis's spans each cover a fine cell, and whether one band
  /// pass can run across them in canonical order.
  struct AxisPlan {
    bool covers;
    bool chains;
  };

  /// Local fine-lattice spans [lo[c], hi[c]] of the n IR-cells between cut
  /// lines line[0 .. n]: line[0] is the snapped range start (the origin),
  /// line[n] its end, `pitch` the fine pitch, `g` the lattice size. Each
  /// interior line is mapped once, by raw = (line - origin) / pitch, and
  /// serves as the high edge of one cell and the low edge of the next:
  ///   lo = clamp(floor(raw + 1e-9), 0, g - 1),
  ///   hi = clamp(ceil(raw - 1e-9) - 1, 0, g - 1).
  /// Lines are sorted, so raw >= 0: floor(raw + 1e-9) is the truncation
  /// of raw + 1e-9, and ceil(x) for x = raw - 1e-9 >= -1e-9 is t + (t < x)
  /// with t the truncation of x (0 for x in [-1e-9, 0]), without the
  /// generic std::floor/std::ceil and their round trip through a double.
  /// lattice_cells() bounds g, and so raw, by 2^20 + 1, so every
  /// truncation fits an int.
  /// The end points need no mapping: raw = 0 at the origin gives lo[0] =
  /// 0, and the end's raw is the quotient lattice_cells() took g from, so
  /// hi[n - 1] = g - 1.
  ///
  /// In lattice order the spans chain when every next span starts on, or
  /// right after, the previous span's last fine cell, which is not the
  /// axis's last. With Mirror (type II rows) the spans are written
  /// mirrored and in reverse, as canonical span n - 1 - c = [g - 1 - hi,
  /// g - 1 - lo] of cell c; the steps are the same and the condition moves
  /// to the low edge: no span but the first starts at 0. Both end points
  /// stay where they are: the first span starts at 0, the last ends at
  /// g - 1.
  template <bool Mirror>
  static AxisPlan map_axis(const double* line, int n, double pitch, int g,
                           int* lo, int* hi) {
    const double origin = line[0];
    bool covers = true;
    bool chains = true;
    int prev_lo = 0;
    lo[0] = 0;
    for (int j = 1; j < n; ++j) {
      const double raw = (line[j] - origin) / pitch;
      const double x = raw - 1e-9;
      const int t = static_cast<int>(x);
      const int h = std::clamp(t + (t < x ? 1 : 0) - 1, 0, g - 1);
      const int l = std::min(static_cast<int>(raw + 1e-9), g - 1);
      if constexpr (Mirror) {
        lo[n - j] = g - 1 - h;
        hi[n - 1 - j] = g - 1 - l;
      } else {
        hi[j - 1] = h;
        lo[j] = l;
      }
      const int step = l - h;
      covers = covers && prev_lo <= h;
      chains = chains && (Mirror ? l != 0 : h != g - 1) && step >= 0 &&
               step <= 1;
      prev_lo = l;
    }
    hi[n - 1] = g - 1;
    return AxisPlan{covers, chains};
  }

  const CutLines* lines_;
  NetOnGrid net_{};
  BandAxis axis_ = BandAxis::kNone;
  std::vector<int> lx1_, lx2_, ly1_, ly2_;
};

}  // namespace ficon
