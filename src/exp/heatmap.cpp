#include "exp/heatmap.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "exp/heat_color.hpp"
#include "obs/json.hpp"
#include "util/check.hpp"

namespace ficon {
namespace {

/// Feature values print at %.17g, so they round-trip bit-exactly: the
/// feature dump is a data artifact, not a picture.
using obs::json_number;

/// Fixed two-decimal pixel coordinates: deterministic and compact. SVG
/// geometry only needs picture precision.
std::string fmt_px(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.2f", v);
  return buffer;
}

/// Column/row boundaries of a grid-like field, reconstructed from the
/// `cell_rect` geometry hook: boundaries[i] is the low edge of cell i,
/// boundaries[n] the high edge of the last cell. All three FlowField
/// implementations are products of per-axis partitions, so row 0 /
/// column 0 carries the full axis geometry.
std::vector<double> axis_boundaries(const FlowField& field, bool x_axis) {
  const int n = x_axis ? field.nx() : field.ny();
  std::vector<double> boundaries(static_cast<std::size_t>(n) + 1);
  for (int i = 0; i < n; ++i) {
    const Rect r = x_axis ? field.cell_rect(i, 0) : field.cell_rect(0, i);
    boundaries[static_cast<std::size_t>(i)] = x_axis ? r.xlo : r.ylo;
  }
  const Rect last =
      x_axis ? field.cell_rect(n - 1, 0) : field.cell_rect(0, n - 1);
  boundaries[static_cast<std::size_t>(n)] = x_axis ? last.xhi : last.yhi;
  return boundaries;
}

/// Cells [first, last] whose closed span intersects [lo, hi]; empty
/// (first > last) when the range misses the axis. Touching a boundary
/// counts — a degenerate routing range on a cut line crosses both
/// neighbours, matching the models' closed routing-range semantics.
std::pair<int, int> cell_span(const std::vector<double>& boundaries,
                              double lo, double hi) {
  const int n = static_cast<int>(boundaries.size()) - 1;
  // First cell i with boundaries[i + 1] >= lo.
  const auto first_it =
      std::lower_bound(boundaries.begin() + 1, boundaries.end(), lo);
  // Last cell i with boundaries[i] <= hi.
  const auto last_it =
      std::upper_bound(boundaries.begin(), boundaries.end() - 1, hi);
  const int first = static_cast<int>(first_it - (boundaries.begin() + 1));
  const int last = static_cast<int>(last_it - boundaries.begin()) - 1;
  return {std::max(first, 0), std::min(last, n - 1)};
}

}  // namespace

HeatMapSource::HeatMapSource(const FlowField& field, std::string name)
    : field_(field), name_(std::move(name)) {
  FICON_REQUIRE(field.nx() > 0 && field.ny() > 0,
                "cannot build a heat map over an empty field");
  // Default capacity: spread the total flow uniformly over the total
  // cell area, so "overflow" means "more than its fair share".
  double total_value = 0.0;
  double total_area = 0.0;
  for (int cy = 0; cy < field_.ny(); ++cy) {
    for (int cx = 0; cx < field_.nx(); ++cx) {
      total_value += field_.value_at(cx, cy);
      total_area += field_.cell_rect(cx, cy).area();
    }
  }
  capacity_density_ = total_area > 0.0 ? total_value / total_area : 0.0;
}

void HeatMapSource::set_nets(std::span<const TwoPinNet> nets) {
  crossing_.assign(static_cast<std::size_t>(field_.cell_count()), 0);
  const std::vector<double> xs = axis_boundaries(field_, true);
  const std::vector<double> ys = axis_boundaries(field_, false);
  for (const TwoPinNet& net : nets) {
    const Rect range = net.routing_range();
    const auto [ix0, ix1] = cell_span(xs, range.xlo, range.xhi);
    const auto [iy0, iy1] = cell_span(ys, range.ylo, range.yhi);
    for (int cy = iy0; cy <= iy1; ++cy) {
      for (int cx = ix0; cx <= ix1; ++cx) {
        crossing_[static_cast<std::size_t>(cy) *
                      static_cast<std::size_t>(field_.nx()) +
                  static_cast<std::size_t>(cx)] += 1;
      }
    }
  }
}

double HeatMapSource::capacity(int cx, int cy) const {
  return capacity_density_ * field_.cell_rect(cx, cy).area();
}

double HeatMapSource::overflow(int cx, int cy) const {
  return std::max(0.0, usage(cx, cy) - capacity(cx, cy));
}

long long HeatMapSource::crossing_nets(int cx, int cy) const {
  if (crossing_.empty()) return 0;
  return crossing_[static_cast<std::size_t>(cy) *
                       static_cast<std::size_t>(field_.nx()) +
                   static_cast<std::size_t>(cx)];
}

void HeatMapSource::write_svg(std::ostream& os,
                              const std::string& title) const {
  constexpr double kCanvasPx = 900.0;  ///< longer grid edge in pixels
  const Rect lo_cell = field_.cell_rect(0, 0);
  const Rect hi_cell = field_.cell_rect(field_.nx() - 1, field_.ny() - 1);
  const Rect bounds{lo_cell.xlo, lo_cell.ylo, hi_cell.xhi, hi_cell.yhi};
  FICON_REQUIRE(bounds.is_proper(), "cannot render an empty field");
  const double scale = kCanvasPx / std::max(bounds.width(), bounds.height());
  const double map_w = bounds.width() * scale;
  const double map_h = bounds.height() * scale;
  const double title_h = 24.0;
  const double legend_h = 44.0;
  const double canvas_w = map_w;
  const double canvas_h = title_h + map_h + legend_h;
  // Chip -> pixel, y flipped (SVG grows downwards, chips upwards).
  const auto px = [&](double x) { return (x - bounds.xlo) * scale; };
  const auto py = [&](double y) {
    return title_h + (bounds.yhi - y) * scale;
  };

  // Densities drive the colors: cells of different sizes are only
  // comparable per unit area (paper section 4.3).
  double peak_density = 0.0;
  for (int cy = 0; cy < field_.ny(); ++cy) {
    for (int cx = 0; cx < field_.nx(); ++cx) {
      peak_density = std::max(peak_density, density(cx, cy));
    }
  }
  const double norm = std::max(peak_density, 1e-12);

  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
     << fmt_px(canvas_w) << "\" height=\"" << fmt_px(canvas_h)
     << "\" viewBox=\"0 0 " << fmt_px(canvas_w) << ' ' << fmt_px(canvas_h)
     << "\">\n";
  os << "  <rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n";
  os << "  <text x=\"" << fmt_px(canvas_w / 2.0)
     << "\" y=\"16\" font-size=\"13\" font-family=\"sans-serif\" "
        "text-anchor=\"middle\" fill=\"#222222\">"
     << (title.empty() ? name_ + " congestion" : title) << "</text>\n";

  for (int cy = 0; cy < field_.ny(); ++cy) {
    for (int cx = 0; cx < field_.nx(); ++cx) {
      const Rect cell = field_.cell_rect(cx, cy);
      os << "  <rect x=\"" << fmt_px(px(cell.xlo)) << "\" y=\""
         << fmt_px(py(cell.yhi)) << "\" width=\""
         << fmt_px(cell.width() * scale) << "\" height=\""
         << fmt_px(cell.height() * scale) << "\" fill=\""
         << heat_color(density(cx, cy) / norm)
         << "\" stroke=\"#888888\" stroke-width=\"0.3\">";
      os << "<title>cell (" << cx << ',' << cy << ") capacity="
         << json_number(capacity(cx, cy)) << " usage="
         << json_number(usage(cx, cy)) << " overflow="
         << json_number(overflow(cx, cy)) << " density="
         << json_number(density(cx, cy)) << " crossing_nets="
         << crossing_nets(cx, cy) << "</title>";
      os << "</rect>\n";
    }
  }

  const double bar_y = title_h + map_h + 14.0;
  const double bar_w = canvas_w * 0.6;
  const double bar_x = (canvas_w - bar_w) / 2.0;
  os << "  <defs><linearGradient id=\"heat\" x1=\"0\" y1=\"0\" x2=\"1\" "
        "y2=\"0\">";
  for (int stop = 0; stop <= 4; ++stop) {
    const double t = static_cast<double>(stop) / 4.0;
    os << "<stop offset=\"" << fmt_px(t * 100.0) << "%\" stop-color=\""
       << heat_color(t) << "\"/>";
  }
  os << "</linearGradient></defs>\n";
  os << "  <rect x=\"" << fmt_px(bar_x) << "\" y=\"" << fmt_px(bar_y)
     << "\" width=\"" << fmt_px(bar_w)
     << "\" height=\"10\" fill=\"url(#heat)\" stroke=\"#555555\" "
        "stroke-width=\"0.5\"/>\n";
  os << "  <text x=\"" << fmt_px(bar_x) << "\" y=\"" << fmt_px(bar_y + 22.0)
     << "\" font-size=\"10\" font-family=\"sans-serif\" "
        "text-anchor=\"start\" fill=\"#222222\">density 0</text>\n";
  os << "  <text x=\"" << fmt_px(bar_x + bar_w) << "\" y=\""
     << fmt_px(bar_y + 22.0)
     << "\" font-size=\"10\" font-family=\"sans-serif\" "
        "text-anchor=\"end\" fill=\"#222222\">"
     << json_number(peak_density) << "</text>\n";
  os << "</svg>\n";
}

void HeatMapSource::write_features_csv(std::ostream& os) const {
  os << "cx,cy,xlo,ylo,xhi,yhi,capacity,usage,density,crossing_nets,"
        "overflow\n";
  for (int cy = 0; cy < field_.ny(); ++cy) {
    for (int cx = 0; cx < field_.nx(); ++cx) {
      const Rect cell = field_.cell_rect(cx, cy);
      os << cx << ',' << cy << ',' << json_number(cell.xlo) << ','
         << json_number(cell.ylo) << ',' << json_number(cell.xhi) << ','
         << json_number(cell.yhi) << ',' << json_number(capacity(cx, cy))
         << ',' << json_number(usage(cx, cy)) << ','
         << json_number(density(cx, cy)) << ',' << crossing_nets(cx, cy)
         << ',' << json_number(overflow(cx, cy)) << '\n';
    }
  }
}

void HeatMapSource::write_features_jsonl(std::ostream& os) const {
  for (int cy = 0; cy < field_.ny(); ++cy) {
    for (int cx = 0; cx < field_.nx(); ++cx) {
      const Rect cell = field_.cell_rect(cx, cy);
      os << "{\"source\":\"" << name_ << "\",\"cx\":" << cx
         << ",\"cy\":" << cy << ",\"xlo\":" << json_number(cell.xlo)
         << ",\"ylo\":" << json_number(cell.ylo)
         << ",\"xhi\":" << json_number(cell.xhi)
         << ",\"yhi\":" << json_number(cell.yhi)
         << ",\"capacity\":" << json_number(capacity(cx, cy))
         << ",\"usage\":" << json_number(usage(cx, cy))
         << ",\"density\":" << json_number(density(cx, cy))
         << ",\"crossing_nets\":" << crossing_nets(cx, cy)
         << ",\"overflow\":" << json_number(overflow(cx, cy)) << "}\n";
    }
  }
}

}  // namespace ficon
