// FlowField edge cases, in particular the degenerate zero-area cell
// guard: a collapsed IR partition must yield density 0 (not inf/NaN)
// and must not poison the top-fraction cost, the CSV export or any
// downstream bench report; and the top-fraction cost's selection against
// the max-heap over every cell that it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "congestion/congestion_map.hpp"
#include "congestion/cutlines.hpp"
#include "congestion/field.hpp"
#include "congestion/grid_spec.hpp"
#include "congestion/irregular_grid.hpp"
#include "geom/rect.hpp"
#include "util/rng.hpp"

namespace ficon {
namespace {

/// 2x1 field whose cell (1, 0) has been collapsed to zero area — the
/// shape a degenerate IR partition produces.
class DegenerateField : public FlowField {
 public:
  DegenerateField() : FlowField(2, 1) {}

  Rect cell_rect(int cx, int /*cy*/) const override {
    if (cx == 0) return Rect{0.0, 0.0, 10.0, 10.0};
    return Rect{10.0, 0.0, 10.0, 10.0};  // zero width -> zero area
  }
};

TEST(FlowFieldDegenerate, ZeroAreaCellHasZeroDensity) {
  DegenerateField field;
  field.add_value(0, 0, 5.0);
  field.add_value(1, 0, 3.0);  // flow into a cell with no area

  EXPECT_DOUBLE_EQ(field.density(0, 0), 0.05);
  EXPECT_EQ(field.density(1, 0), 0.0);
  EXPECT_TRUE(std::isfinite(field.density(1, 0)));
}

TEST(FlowFieldDegenerate, TopFractionCostStaysFinite) {
  DegenerateField field;
  field.add_value(0, 0, 5.0);
  field.add_value(1, 0, 3.0);

  const double cost = field.top_area_fraction_density(0.1);
  EXPECT_TRUE(std::isfinite(cost));
  // The degenerate cell contributes nothing; the answer is the healthy
  // cell's density.
  EXPECT_DOUBLE_EQ(cost, 0.05);
  EXPECT_DOUBLE_EQ(field.top_area_fraction_density(1.0), 0.05);
}

TEST(FlowFieldDegenerate, CsvExportCarriesNoNonFiniteValues) {
  DegenerateField field;
  field.add_value(1, 0, 3.0);

  std::ostringstream csv;
  field.write_density_csv(csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
}

/// All-degenerate field: every query must degrade to 0, not NaN.
class AllZeroAreaField : public FlowField {
 public:
  AllZeroAreaField() : FlowField(1, 1) {}
  Rect cell_rect(int, int) const override { return Rect{2.0, 3.0, 2.0, 3.0}; }
};

TEST(FlowFieldDegenerate, AllDegenerateFieldCostsZero) {
  AllZeroAreaField field;
  field.add_value(0, 0, 7.0);
  EXPECT_EQ(field.density(0, 0), 0.0);
  EXPECT_EQ(field.top_area_fraction_density(0.1), 0.0);
}

/// The top-fraction cost as a max-heap over every cell computed it before
/// the selection: cells popped densest first, in the heap's unspecified
/// order among equal densities.
double heap_reference(const FlowField& field, double fraction) {
  struct CellScore {
    double density;
    double area;
  };
  std::vector<CellScore> cells;
  double chip_area = 0.0;
  for (int iy = 0; iy < field.ny(); ++iy) {
    for (int ix = 0; ix < field.nx(); ++ix) {
      const double area = field.cell_rect(ix, iy).area();
      chip_area += area;
      cells.push_back(CellScore{field.density(ix, iy), area});
    }
  }
  if (cells.empty() || chip_area <= 0.0) return 0.0;
  const auto by_density = [](const CellScore& a, const CellScore& b) {
    return a.density < b.density;
  };
  std::make_heap(cells.begin(), cells.end(), by_density);
  auto heap_end = cells.end();
  const double budget = fraction * chip_area;
  double used = 0.0;
  double weighted = 0.0;
  while (heap_end != cells.begin()) {
    if (budget - used <= 0.0) break;
    std::pop_heap(cells.begin(), heap_end, by_density);
    --heap_end;
    const CellScore& c = *heap_end;
    const double take = std::min(c.area, budget - used);
    if (take <= 0.0) continue;
    weighted += c.density * take;
    used += take;
  }
  return used > 0.0 ? weighted / used : 0.0;
}

/// Uniform double in [0, 1) from a SplitMix64 stream.
double unit(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1p-53;
}

/// Cut lines from 0 with n gaps: a random width in [0.5, 50) um, or
/// 0 (a zero-width column or row) with probability `zero_share`.
std::vector<double> random_lines(SplitMix64& rng, int n, double zero_share) {
  std::vector<double> lines{0.0};
  for (int i = 0; i < n; ++i) {
    const double width = unit(rng) < zero_share ? 0.0 : 0.5 + 49.5 * unit(rng);
    lines.push_back(lines.back() + width);
  }
  return lines;
}

/// The cost must equal the heap's bit for bit wherever the heap's order
/// among equal densities cannot matter: equal densities only between cells
/// of equal area, on zero-area cells, or all zero.
void expect_matches_heap(const FlowField& field,
                         const std::vector<double>& fractions,
                         const std::string& what) {
  for (const double fraction : fractions) {
    const double cost = field.top_area_fraction_density(fraction);
    const double reference = heap_reference(field, fraction);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cost),
              std::bit_cast<std::uint64_t>(reference))
        << what << " fraction=" << fraction << " cost=" << cost
        << " heap=" << reference;
  }
}

TEST(TopAreaFraction, TopFractionMatchesTheHeapReference) {
  const std::vector<double> all_fractions{1e-3, 0.1, 0.5, 1.0};
  // nx x ny: 1, 2, 17, 520 (an ami33 IR map) and 14,641 cells.
  const int shapes[][2] = {{1, 1}, {2, 1}, {1, 17}, {26, 20}, {121, 121}};
  SplitMix64 rng(20261018);
  for (const auto& shape : shapes) {
    const int nx = shape[0];
    const int ny = shape[1];
    const std::string size =
        std::to_string(nx) + "x" + std::to_string(ny) + " ";

    // IR map, random extents with zero-width columns and rows: distinct
    // random flows, and zero-area cells, whose density is 0 whatever flows
    // into them.
    IrregularCongestionMap ir(
        CutLines(random_lines(rng, nx, nx > 1 ? 0.1 : 0.0),
                 random_lines(rng, ny, ny > 1 ? 0.1 : 0.0)));
    for (int iy = 0; iy < ny; ++iy) {
      for (int ix = 0; ix < nx; ++ix) ir.add_flow(ix, iy, 5.0 * unit(rng));
    }
    expect_matches_heap(ir, all_fractions, size + "IR random");

    // IR map with zero flow in about a quarter of its cells, compared
    // while the budget stays among the cells with flow: zero densities of
    // different areas are ties whose heap order sets the last bit of
    // `used`.
    IrregularCongestionMap sparse(CutLines(random_lines(rng, nx, 0.0),
                                           random_lines(rng, ny, 0.0)));
    double zero_area = 0.0;
    double area = 0.0;
    for (int iy = 0; iy < ny; ++iy) {
      for (int ix = 0; ix < nx; ++ix) {
        const double a = sparse.cell_rect(ix, iy).area();
        area += a;
        if (unit(rng) < 0.25 && nx * ny > 2) {
          zero_area += a;
        } else {
          sparse.add_flow(ix, iy, 5.0 * unit(rng));
        }
      }
    }
    if (zero_area < 0.45 * area) {
      expect_matches_heap(sparse, {1e-3, 0.1, 0.5}, size + "IR sparse");
    }

    // All-zero IR map.
    const IrregularCongestionMap zero(
        CutLines(random_lines(rng, nx, 0.1), random_lines(rng, ny, 0.1)));
    expect_matches_heap(zero, all_fractions, size + "IR zero");

    // Fixed grid of dyadic pitch, so every cell has the same area: flows
    // drawn from a few values, zero among them, give many cells of equal
    // density and equal area.
    CongestionMap ties(GridSpec::from_counts(
        Rect{0.0, 0.0, 4.0 * nx, 2.0 * ny}, nx, ny));
    const double levels[] = {0.0, 0.0, 0.25, 1.0, 1.5, 3.75};
    for (int iy = 0; iy < ny; ++iy) {
      for (int ix = 0; ix < nx; ++ix) {
        ties.add(ix, iy, levels[rng.next() % 6]);
      }
    }
    expect_matches_heap(ties, all_fractions, size + "fixed ties");

    // Fixed grid of a pitch that does not divide evenly: cell areas differ
    // in their last bits, and every flow is distinct.
    CongestionMap fixed(GridSpec::from_pitch(
        Rect{0.3, 0.1, 0.3 + 7.3 * nx, 0.1 + 3.1 * ny}, 7.3, 3.1));
    for (int iy = 0; iy < fixed.ny(); ++iy) {
      for (int ix = 0; ix < fixed.nx(); ++ix) {
        fixed.add(ix, iy, 2.0 * unit(rng) + 1e-3);
      }
    }
    expect_matches_heap(fixed, all_fractions, size + "fixed random");
  }
}

TEST(TopAreaFraction, SelectionKeepsTheCellAfterTheBudget) {
  // The densest cell covers under half the budget and the next one
  // reaches it: `used` then lands an ulp below the budget (these widths
  // were searched for it), and the heap tops it up from the third densest
  // cell. The selection must keep that cell although the first two
  // already cover the budget.
  std::vector<double> xs{0.0, 2.535707990794184};
  xs.push_back(xs.back() + 42.39089544321984);
  for (int i = 0; i < 68; ++i) xs.push_back(xs.back() + 1.0);
  IrregularCongestionMap map(CutLines(xs, {0.0, 1.0}));
  SplitMix64 rng(5);
  for (int ix = 0; ix < map.nx(); ++ix) {
    const double density = ix == 0   ? 8.772631752071188
                           : ix == 1 ? 3.9313001401995464
                                     : 0.01 + 0.01 * unit(rng);
    map.add_flow(ix, 0, density * map.cell_rect(ix, 0).area());
  }
  expect_matches_heap(map, {0.1}, "ulp below the budget");
}

}  // namespace
}  // namespace ficon
