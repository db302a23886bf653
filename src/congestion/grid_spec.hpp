// Uniform-grid geometry for the fixed-size-grid congestion model.
//
// The fixed-grid model (Sham & Young, ISPD'02 — the paper's baseline [4]
// and also its "judging model" when the pitch is very small) divides the
// chip into an nx x ny array of equal cells. This header maps chip
// coordinates (um) to cell indices and back, and maps a 2-pin net onto its
// covered cell span with the type I / type II classification of Figure 1.
#pragma once

#include <algorithm>
#include <cmath>

#include "congestion/path_prob.hpp"
#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "route/two_pin.hpp"
#include "util/check.hpp"

namespace ficon {

/// @brief A uniform grid over a chip rectangle.
///
/// Maps chip coordinates (um) to cell indices and back. Immutable after
/// construction; safe to share across evaluation threads.
class GridSpec {
 public:
  /// @brief Build a grid with the requested pitch; the chip is covered by
  /// ceil(extent / pitch) cells per axis (the last row/column may hang
  /// over the chip edge, matching how fixed-grid estimators bin pins),
  /// at most kMaxLatticeCells per axis and kMaxGridCells in all.
  /// @param chip    chip rectangle with positive area.
  /// @param pitch_x cell width (um), > 0.
  /// @param pitch_y cell height (um), > 0.
  static GridSpec from_pitch(const Rect& chip, double pitch_x,
                             double pitch_y) {
    FICON_REQUIRE(chip.is_proper(), "chip must have positive area");
    FICON_REQUIRE(pitch_x > 0.0 && pitch_y > 0.0, "pitch must be positive");
    GridSpec g;
    g.chip_ = chip;
    g.pitch_x_ = pitch_x;
    g.pitch_y_ = pitch_y;
    g.nx_ = lattice_cells(chip.width(), pitch_x);
    g.ny_ = lattice_cells(chip.height(), pitch_y);
    FICON_REQUIRE(static_cast<double>(g.nx_) * g.ny_ <= kMaxGridCells,
                  "pitch too fine: a fixed grid needs more than 2^24 cells");
    return g;
  }

  /// @brief Build a grid with exact cell counts (pitch derived from the
  /// chip) — the Figure 3 "4x4 vs 6x6 cut" configuration.
  /// @param nx,ny cell counts per axis, >= 1.
  static GridSpec from_counts(const Rect& chip, int nx, int ny) {
    FICON_REQUIRE(chip.is_proper(), "chip must have positive area");
    FICON_REQUIRE(nx >= 1 && ny >= 1, "cell counts must be positive");
    GridSpec g;
    g.chip_ = chip;
    g.nx_ = nx;
    g.ny_ = ny;
    g.pitch_x_ = chip.width() / nx;
    g.pitch_y_ = chip.height() / ny;
    return g;
  }

  /// Chip rectangle the grid covers.
  const Rect& chip() const { return chip_; }
  /// Number of cell columns.
  int nx() const { return nx_; }
  /// Number of cell rows.
  int ny() const { return ny_; }
  /// Cell width (um).
  double pitch_x() const { return pitch_x_; }
  /// Cell height (um).
  double pitch_y() const { return pitch_y_; }
  /// Total number of cells (nx * ny).
  long long cell_count() const {
    return static_cast<long long>(nx_) * static_cast<long long>(ny_);
  }

  /// @brief Cell column index containing coordinate x (clamped to the grid).
  int cell_x(double x) const {
    const int c = static_cast<int>(std::floor((x - chip_.xlo) / pitch_x_));
    return std::clamp(c, 0, nx_ - 1);
  }
  /// @brief Cell row index containing coordinate y (clamped to the grid).
  int cell_y(double y) const {
    const int c = static_cast<int>(std::floor((y - chip_.ylo) / pitch_y_));
    return std::clamp(c, 0, ny_ - 1);
  }

  /// @brief Cell containing point p (clamped to the grid) — how pins are
  /// binned.
  GridPoint cell_of(const Point& p) const {
    return GridPoint{cell_x(p.x), cell_y(p.y)};
  }

  /// @brief um rectangle of cell (cx, cy).
  Rect cell_rect(int cx, int cy) const {
    FICON_REQUIRE(cx >= 0 && cx < nx_ && cy >= 0 && cy < ny_,
                  "cell index out of range");
    return Rect{chip_.xlo + cx * pitch_x_, chip_.ylo + cy * pitch_y_,
                chip_.xlo + (cx + 1) * pitch_x_,
                chip_.ylo + (cy + 1) * pitch_y_};
  }

 private:
  Rect chip_;
  double pitch_x_ = 0.0;
  double pitch_y_ = 0.0;
  int nx_ = 0;
  int ny_ = 0;
};

/// @brief A 2-pin net mapped onto a grid: covered cell span +
/// probabilistic shape.
struct SpannedNet {
  GridPoint origin;    ///< global cell of the span's lower-left corner
  NetGridShape shape;  ///< g1 x g2 cells, type I/II
};

/// @brief Classify a 2-pin net on a grid (Figure 1).
///
/// Ties in x or y collapse to a degenerate (line/point) shape where the
/// type flag is irrelevant.
/// @param grid grid the pins are binned on.
/// @param net  the 2-pin net (pin coordinates in um).
/// @return covered cell window plus the g1 x g2 / type I-II shape.
inline SpannedNet span_net(const GridSpec& grid, const TwoPinNet& net) {
  const GridPoint ca = grid.cell_of(net.a);
  const GridPoint cb = grid.cell_of(net.b);
  SpannedNet s;
  s.origin = GridPoint{std::min(ca.x, cb.x), std::min(ca.y, cb.y)};
  s.shape.g1 = std::abs(ca.x - cb.x) + 1;
  s.shape.g2 = std::abs(ca.y - cb.y) + 1;
  // Type II iff the left pin is the upper pin.
  const GridPoint& left = ca.x <= cb.x ? ca : cb;
  const GridPoint& right = ca.x <= cb.x ? cb : ca;
  s.shape.type2 = !s.shape.degenerate() && left.y > right.y;
  return s;
}

}  // namespace ficon
