/// \file
/// Heat-map export over the shared `FlowField` surface.
///
/// `HeatMapSource` adapts any per-cell flow field (`CongestionMap`,
/// `IrregularCongestionMap`, `RoutedCongestion`) into the repo's two
/// congestion-visibility artifacts:
///
///  * a standalone, deterministic SVG heat view — color ramp, legend,
///    and a per-cell `<title>` tooltip carrying capacity / usage /
///    overflow — in the spirit of OpenROAD's `HeatMapDataSource`;
///  * a per-cell feature dump (CSV or JSONL) with capacity, usage,
///    density, crossing-net count and overflow, the raw material for
///    learned congestion predictors.
///
/// Determinism contract: every number is formatted through `snprintf`
/// with a fixed format, cells are walked in row-major order, and all
/// quantities are pure functions of the field (which is itself
/// bit-identical at every thread count) — so the emitted bytes are
/// identical across runs, thread counts and machines for the same
/// floorplan. All SVG emission lives in `src/exp/`; `ficon_lint` rule
/// F007 keeps ad-hoc writers from growing elsewhere.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "congestion/field.hpp"
#include "route/two_pin.hpp"

namespace ficon {

/// Read-only heat-map view of a `FlowField`. The source keeps a
/// reference to the field — it must outlive the view.
class HeatMapSource {
 public:
  /// `name` labels the artifact ("irregular_grid", "fixed_grid",
  /// "routed", ...) in titles and feature dumps.
  HeatMapSource(const FlowField& field, std::string name);

  /// Per-area capacity (flow per um^2): the field's area-weighted mean
  /// density. A cell's capacity is this density times its area, and
  /// overflow is usage above that, so it reads as "usage above a uniform
  /// spread of the total flow".
  double capacity_density() const { return capacity_density_; }

  /// Attach the decomposed 2-pin nets so the feature dump and tooltips
  /// can report per-cell crossing-net counts (a net crosses every cell
  /// its routing range intersects). Without nets the count is 0.
  void set_nets(std::span<const TwoPinNet> nets);

  const FlowField& field() const { return field_; }
  const std::string& name() const { return name_; }
  int nx() const { return field_.nx(); }
  int ny() const { return field_.ny(); }

  /// Accumulated flow of the cell (the field's raw value).
  double usage(int cx, int cy) const { return field_.value_at(cx, cy); }
  /// Usage per unit area.
  double density(int cx, int cy) const { return field_.density(cx, cy); }
  /// Capacity of the cell: capacity_density() * cell area.
  double capacity(int cx, int cy) const;
  /// max(0, usage - capacity).
  double overflow(int cx, int cy) const;
  /// Number of attached nets whose routing range intersects the cell.
  long long crossing_nets(int cx, int cy) const;

  /// Standalone SVG heat view, 900 px along the longer grid edge: a color
  /// ramp over the cells' densities, a per-cell <title> tooltip and a
  /// legend. `title` heads it; empty gives "<name> congestion".
  void write_svg(std::ostream& os, const std::string& title = {}) const;

  /// Per-cell feature table, one row per cell in row-major order:
  /// "cx,cy,xlo,ylo,xhi,yhi,capacity,usage,density,crossing_nets,overflow"
  /// with %.17g doubles (bit-exact round trip).
  void write_features_csv(std::ostream& os) const;

  /// Same rows as JSON Lines, one object per cell.
  void write_features_jsonl(std::ostream& os) const;

 private:
  const FlowField& field_;
  std::string name_;
  double capacity_density_ = 0.0;
  std::vector<long long> crossing_;  ///< row-major; empty until set_nets.
};

}  // namespace ficon
