// Figure 8 reproduction: precision of the Theorem 1 approximation on a
// type I net divided into 31x21 grids.
//
//   (a/b) IR-grid with top edge y2 = 15: exact vs approximated Function (1)
//         values for x = 10..20 — "extremely accurate".
//   (c/d) IR-grid reaching y2 = 19 next to the sink pin: the approximation
//         has no value at the section 4.5 error cell (x = 30).
// Also quantifies the "deviation generally less than 0.05" claim across the
// whole range and the effect of the +-1/2 continuity correction on region
// integrals.
#include <cmath>
#include <iostream>

#include "ficon.hpp"

using namespace ficon;

int main() {
  const int g1 = 31, g2 = 21;
  LogFactorialTable table;
  const PathProbability exact(table);
  const ApproxRegionProbability approx(exact);

  std::cout << "Figure 8 — approximation precision on a " << g1 << "x" << g2
            << " type I net\n\n";

  std::cout << "(b) Function(1) at y2 = 15, x = 10..20:\n";
  TextTable curve({"x", "exact", "approx", "|dev|"});
  double worst_b = 0.0;
  for (int x = 10; x <= 20; ++x) {
    const double e = approx.top_exit_term_exact(g1, g2, x, 15);
    const auto a = approx.top_exit_term_approx(g1, g2, x, 15);
    const double dev = a ? std::abs(*a - e) : -1.0;
    worst_b = std::max(worst_b, dev);
    curve.add_row({std::to_string(x), fmt_fixed(e, 6),
                   a ? fmt_fixed(*a, 6) : "(error cell)",
                   a ? fmt_fixed(dev, 6) : "-"});
  }
  curve.print(std::cout);
  std::cout << "max deviation on this curve: " << fmt_fixed(worst_b, 6)
            << " (paper: \"extremely accurate\")\n\n";

  std::cout << "(d) Function(1) at y2 = 19 (pin-adjacent row), x = 24..30:\n";
  TextTable edge({"x", "exact", "approx"});
  for (int x = 24; x <= 30; ++x) {
    const double e = approx.top_exit_term_exact(g1, g2, x, 19);
    const auto a = approx.top_exit_term_approx(g1, g2, x, 19);
    edge.add_row({std::to_string(x), fmt_fixed(e, 6),
                  a ? fmt_fixed(*a, 6) : "(no value — error cell)"});
  }
  edge.print(std::cout);
  std::cout << "(paper Figure 8(d): the curve shows no value at x = 30)\n\n";

  // Global deviation statistics away from the pin zones.
  double worst = 0.0;
  long long count = 0, above_005 = 0;
  for (int y2 = 0; y2 < g2 - 1; ++y2) {
    for (int x = 0; x < g1; ++x) {
      const auto a = approx.top_exit_term_approx(g1, g2, x, y2);
      if (!a) continue;
      const double dev =
          std::abs(*a - approx.top_exit_term_exact(g1, g2, x, y2));
      worst = std::max(worst, dev);
      ++count;
      if (dev >= 0.05) ++above_005;
    }
  }
  std::cout << "term deviation across all " << count
            << " valid cells: max = " << fmt_fixed(worst, 4) << ", "
            << above_005 << " cells >= 0.05 (paper: \"generally less than "
               "0.05\")\n\n";

  // Region-integral ablation: continuity correction on vs off.
  ApproxOptions literal;
  literal.continuity_correction = false;
  const ApproxRegionProbability approx_literal(exact, literal);
  const NetGridShape shape{g1, g2, false};
  double err_corrected = 0.0, err_literal = 0.0;
  int regions = 0;
  for (int x1 = 2; x1 < 26; x1 += 3) {
    for (int y1 = 2; y1 < 16; y1 += 3) {
      const GridRect r{x1, y1, std::min(x1 + 5, g1 - 2),
                       std::min(y1 + 4, g2 - 2)};
      const double e = exact.region_probability_exact(shape, r);
      const auto c = approx.theorem1(g1, g2, r);
      const auto l = approx_literal.theorem1(g1, g2, r);
      if (!c || !l) continue;
      err_corrected += std::abs(*c - e);
      err_literal += std::abs(*l - e);
      ++regions;
    }
  }
  std::cout << "region-probability mean |error| over " << regions
            << " interior IR-grids:\n"
            << "  with +-1/2 continuity correction : "
            << fmt_fixed(err_corrected / regions, 5) << '\n'
            << "  paper-literal integral bounds    : "
            << fmt_fixed(err_literal / regions, 5) << '\n';
  return 0;
}
