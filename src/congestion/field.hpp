/// \file
/// Common surface for per-cell flow/congestion fields.
///
/// Three classes accumulate a scalar per grid cell and answer the same
/// questions about it: `CongestionMap` (fixed grid, estimated crossing
/// probabilities), `IrregularCongestionMap` (IR-grid, same quantity on an
/// irregular partition) and `RoutedCongestion` (routing grid, realized
/// usage). `FlowField` holds the shared mechanics — row-major storage,
/// bounds-checked indexing, max/overflow queries, density and the
/// area-weighted top-fraction cost — while each derived
/// class keeps its domain vocabulary (`at`/`flow`/`usage`) and its own
/// cell geometry via the `cell_rect` override.
#pragma once

#include <iosfwd>
#include <vector>

#include "geom/rect.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace ficon {

/// Row-major per-cell scalar field over an `nx` x `ny` cell grid.
///
/// A plain value type apart from the virtual geometry hook: reads are
/// safe to share, concurrent writes are not (the parallel evaluators give
/// each block its own partial vector, fold them in block order with
/// fold_blocks() and adopt the sum).
class FlowField {
 public:
  virtual ~FlowField() = default;

  int nx() const { return nx_; }
  int ny() const { return ny_; }

  /// Total number of cells.
  long long cell_count() const {
    return static_cast<long long>(nx_) * static_cast<long long>(ny_);
  }

  /// Geometry of cell (cx, cy) in chip coordinates (um).
  virtual Rect cell_rect(int cx, int cy) const = 0;

  /// Accumulated value of cell (cx, cy).
  double value_at(int cx, int cy) const { return values_[index(cx, cy)]; }

  /// Add `v` to cell (cx, cy).
  void add_value(int cx, int cy, double v) { values_[index(cx, cy)] += v; }

  /// Row-major cell values (y-major, same indexing as value_at()).
  const std::vector<double>& values() const { return values_; }

  double max_value() const {
    return values_.empty() ? 0.0 : max_of(values_);
  }

  /// Value density of a cell: value / area (um^-2). Cells of different
  /// sizes are only comparable after this normalization (section 4.3).
  /// A degenerate zero-area cell (possible on collapsed IR partitions)
  /// has density 0 by definition — it covers no routable area — instead
  /// of the inf/NaN a raw division would propagate into
  /// top_area_fraction_density(), the heat-map export and bench reports.
  double density(int cx, int cy) const {
    const double area = cell_rect(cx, cy).area();
    return area > 0.0 ? value_at(cx, cy) / area : 0.0;
  }

  /// Area-weighted mean density over the `fraction` of chip area with the
  /// highest density ("average congestion cost of the top 10% most
  /// congested area units"). The marginal cell is taken fractionally so
  /// the cost is continuous in the cell layout.
  double top_area_fraction_density(double fraction) const;

  /// Total overflow: sum over cells of max(0, value - capacity).
  double overflow(double capacity) const;

  /// Number of cells with value above capacity.
  long long overflowed_cells(double capacity) const;

  /// CSV dump: "xlo,ylo,xhi,yhi,flow,density" per cell.
  void write_density_csv(std::ostream& os) const;

 protected:
  FlowField(int nx, int ny)
      : nx_(nx),
        ny_(ny),
        values_(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny),
                0.0) {}

  /// Adopt an already-accumulated value vector (row-major, y-major like
  /// values()); used by the parallel evaluators' ordered fold.
  FlowField(int nx, int ny, std::vector<double> values)
      : nx_(nx), ny_(ny), values_(std::move(values)) {
    FICON_REQUIRE(values_.size() == static_cast<std::size_t>(cell_count()),
                  "value vector does not match the cell grid");
  }

  FlowField(const FlowField&) = default;
  FlowField(FlowField&&) = default;
  FlowField& operator=(const FlowField&) = default;
  FlowField& operator=(FlowField&&) = default;

  std::size_t index(int cx, int cy) const {
    FICON_REQUIRE(cx >= 0 && cx < nx_ && cy >= 0 && cy < ny_,
                  "cell index out of range");
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
           static_cast<std::size_t>(cx);
  }

 private:
  int nx_ = 0;
  int ny_ = 0;
  std::vector<double> values_;
};

}  // namespace ficon
