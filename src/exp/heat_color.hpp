// The heat color ramp that both SVG writers in src/exp/ share, so the
// placement overlay (svg.cpp) and the standalone heat view (heatmap.cpp)
// read alike. Internal to src/exp/.
#pragma once

#include <algorithm>
#include <string>

namespace ficon {

/// Maps a normalized value (clamped to 0..1) to a white -> yellow -> red
/// ramp: 0 is white (255,255,255), 0.5 yellow (255,224,64), 1 red
/// (214,40,40).
inline std::string heat_color(double t) {
  t = std::clamp(t, 0.0, 1.0);
  int r, g, b;
  if (t < 0.5) {
    const double u = t / 0.5;
    r = 255;
    g = static_cast<int>(255 - u * 31);
    b = static_cast<int>(255 - u * 191);
  } else {
    const double u = (t - 0.5) / 0.5;
    r = static_cast<int>(255 - u * 41);
    g = static_cast<int>(224 - u * 184);
    b = static_cast<int>(64 - u * 24);
  }
  return "rgb(" + std::to_string(r) + ',' + std::to_string(g) + ',' +
         std::to_string(b) + ')';
}

}  // namespace ficon
