// Congestion map over a uniform grid — the output of the fixed-grid model.
#pragma once

#include <iosfwd>
#include <utility>
#include <vector>

#include "congestion/field.hpp"
#include "congestion/grid_spec.hpp"

namespace ficon {

/// @brief Per-cell accumulated crossing probabilities f(x,y) =
/// sum_i P_i(x,y) (paper section 3) on a uniform grid.
///
/// Storage and the shared field queries (max_value, density,
/// overflow, ...) come from FlowField; this class binds them to a
/// GridSpec and keeps the section-3 cost semantics (raw cell values, not
/// densities — on a uniform grid the two differ only by the constant
/// cell-area factor, and the paper's Tables use the raw form).
class CongestionMap : public FlowField {
 public:
  explicit CongestionMap(GridSpec grid)
      : FlowField(grid.nx(), grid.ny()), grid_(grid) {}

  /// @brief Adopt an already-accumulated value vector (row-major, cy-major
  /// like values()); used by the parallel evaluator's ordered fold.
  CongestionMap(GridSpec grid, std::vector<double> values)
      : FlowField(grid.nx(), grid.ny(), std::move(values)), grid_(grid) {}

  const GridSpec& grid() const { return grid_; }

  /// @brief Accumulated crossing probability f(x,y) of cell (cx, cy).
  double at(int cx, int cy) const { return value_at(cx, cy); }
  /// @brief Add probability mass `p` to cell (cx, cy).
  void add(int cx, int cy, double p) { add_value(cx, cy, p); }

  Rect cell_rect(int cx, int cy) const override {
    return grid_.cell_rect(cx, cy);
  }

  /// The paper's solution cost: mean of the `fraction` most congested cells.
  double top_fraction_cost(double fraction = 0.10) const {
    return top_fraction_mean(values(), fraction);
  }

  /// ASCII heat map (rows top-to-bottom), one shade character per cell;
  /// intended for the examples, not for parsing.
  void write_ascii(std::ostream& os, int max_width = 80) const;

  /// CSV dump: header "x,y,congestion", one row per cell.
  void write_csv(std::ostream& os) const;

 private:
  GridSpec grid_;
};

}  // namespace ficon
