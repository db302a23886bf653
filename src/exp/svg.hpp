// SVG rendering of floorplans and congestion maps — the visual artifacts
// (cf. the paper's Figures 3-5) for reports and debugging.
#pragma once

#include <iosfwd>

#include "circuit/netlist.hpp"
#include "congestion/congestion_map.hpp"
#include "congestion/irregular_grid.hpp"

namespace ficon {

// Every picture is 800 px along the chip's longer edge, with module
// names, and a congestion overlay at opacity 0.65.

/// Render the placement (module outlines + names) to SVG.
void write_svg(std::ostream& os, const Netlist& netlist,
               const Placement& placement);

/// Render the placement with a fixed-grid congestion heat overlay.
void write_svg(std::ostream& os, const Netlist& netlist,
               const Placement& placement, const CongestionMap& map);

/// Render the placement with the Irregular-Grid density overlay and its
/// cut lines — the Figure 5 picture for a real circuit.
void write_svg(std::ostream& os, const Netlist& netlist,
               const Placement& placement, const IrregularCongestionMap& map);

}  // namespace ficon
