#include "exp/svg.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "exp/heat_color.hpp"
#include "util/check.hpp"

namespace ficon {
namespace {

constexpr double kCanvasPx = 800.0;    ///< longer chip edge in pixels
constexpr double kHeatOpacity = 0.65;  ///< opacity of the heat overlay

/// Pixel mapper: chip coordinates -> SVG canvas (y flipped: SVG grows
/// downwards, chips grow upwards).
struct Mapper {
  Rect chip;
  double scale;

  static Mapper fit(const Rect& chip) {
    FICON_REQUIRE(chip.is_proper(), "cannot render an empty chip");
    return Mapper{chip, kCanvasPx / std::max(chip.width(), chip.height())};
  }

  double w() const { return chip.width() * scale; }
  double h() const { return chip.height() * scale; }
  double x(double cx) const { return (cx - chip.xlo) * scale; }
  double y(double cy) const { return (chip.yhi - cy) * scale; }

  void rect(std::ostream& os, const Rect& r, const std::string& style) const {
    os << "  <rect x=\"" << x(r.xlo) << "\" y=\"" << y(r.yhi) << "\" width=\""
       << r.width() * scale << "\" height=\"" << r.height() * scale
       << "\" style=\"" << style << "\"/>\n";
  }
};

void open_svg(std::ostream& os, const Mapper& m) {
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << m.w()
     << "\" height=\"" << m.h() << "\" viewBox=\"0 0 " << m.w() << ' '
     << m.h() << "\">\n";
  os << "  <rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n";
}

void close_svg(std::ostream& os) { os << "</svg>\n"; }

void draw_modules(std::ostream& os, const Mapper& m, const Netlist& netlist,
                  const Placement& placement) {
  for (std::size_t i = 0; i < placement.module_rects.size(); ++i) {
    const Rect& r = placement.module_rects[i];
    m.rect(os, r,
           "fill:none;stroke:#333333;stroke-width:1");
    if (i < netlist.module_count()) {
      os << "  <text x=\"" << m.x(r.center().x) << "\" y=\""
         << m.y(r.center().y)
         << "\" font-size=\"10\" text-anchor=\"middle\" fill=\"#333333\">"
         << netlist.modules()[i].name << "</text>\n";
    }
  }
  // Chip outline and terminals.
  m.rect(os, placement.chip, "fill:none;stroke:#000000;stroke-width:2");
  for (const Terminal& t : netlist.terminals()) {
    const double px = m.x(placement.chip.xlo + t.fx * placement.chip.width());
    const double py = m.y(placement.chip.ylo + t.fy * placement.chip.height());
    os << "  <circle cx=\"" << px << "\" cy=\"" << py
       << "\" r=\"2.5\" fill=\"#0055aa\"/>\n";
  }
}

}  // namespace

void write_svg(std::ostream& os, const Netlist& netlist,
               const Placement& placement) {
  const Mapper m = Mapper::fit(placement.chip);
  open_svg(os, m);
  draw_modules(os, m, netlist, placement);
  close_svg(os);
}

void write_svg(std::ostream& os, const Netlist& netlist,
               const Placement& placement, const CongestionMap& map) {
  const Mapper m = Mapper::fit(placement.chip);
  open_svg(os, m);
  const double peak = std::max(map.max_value(), 1e-12);
  for (int cy = 0; cy < map.grid().ny(); ++cy) {
    for (int cx = 0; cx < map.grid().nx(); ++cx) {
      const double v = map.at(cx, cy);
      if (v <= 0.0) continue;
      m.rect(os, map.grid().cell_rect(cx, cy),
             "fill:" + heat_color(v / peak) +
                 ";fill-opacity:" + std::to_string(kHeatOpacity) +
                 ";stroke:none");
    }
  }
  draw_modules(os, m, netlist, placement);
  close_svg(os);
}

void write_svg(std::ostream& os, const Netlist& netlist,
               const Placement& placement, const IrregularCongestionMap& map) {
  const Mapper m = Mapper::fit(placement.chip);
  open_svg(os, m);
  double peak = 1e-300;
  for (int iy = 0; iy < map.ny(); ++iy) {
    for (int ix = 0; ix < map.nx(); ++ix) {
      peak = std::max(peak, map.density(ix, iy));
    }
  }
  for (int iy = 0; iy < map.ny(); ++iy) {
    for (int ix = 0; ix < map.nx(); ++ix) {
      const double v = map.density(ix, iy);
      if (v <= 0.0) continue;
      m.rect(os, map.lines().cell_rect(ix, iy),
             "fill:" + heat_color(v / peak) +
                 ";fill-opacity:" + std::to_string(kHeatOpacity) +
                 ";stroke:none");
    }
  }
  // Cut lines (Figure 5).
  for (const double x : map.lines().xs()) {
    os << "  <line x1=\"" << m.x(x) << "\" y1=\"0\" x2=\"" << m.x(x)
       << "\" y2=\"" << m.h()
       << "\" stroke=\"#7788aa\" stroke-width=\"0.4\"/>\n";
  }
  for (const double y : map.lines().ys()) {
    os << "  <line x1=\"0\" y1=\"" << m.y(y) << "\" x2=\"" << m.w()
       << "\" y2=\"" << m.y(y)
       << "\" stroke=\"#7788aa\" stroke-width=\"0.4\"/>\n";
  }
  draw_modules(os, m, netlist, placement);
  close_svg(os);
}

}  // namespace ficon
