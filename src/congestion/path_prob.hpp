// Exact lattice-path probabilities (paper sections 3 and 4.3).
//
// A 2-pin net routed in multi-bend shortest Manhattan style over a routing
// range of g1 x g2 fine-grid cells follows a monotone lattice path. With
// the local convention of Definition 1 — cell (0,0) at the lower-left of
// the routing range — a *type I* net has its pins in cells (0,0) and
// (g1-1, g2-1); a *type II* net in (0, g2-1) and (g1-1, 0).
//
// This module computes, exactly and in log space:
//   * Formula 1/2 — the probability that the net passes through one cell,
//   * Formula 3  — the probability that the net passes through a
//     rectangular sub-region (an IR-grid), via exit-edge counting,
//   * a brute-force DP oracle used to validate both.
//
// Type II is handled by mirroring the y axis (y -> g2-1-y), which maps a
// type II net onto a type I net; the paper's explicit type II formulas are
// kept as independent references in the test suite.
#pragma once

#include <cmath>
#include <optional>

#include "geom/rect.hpp"
#include "numeric/factorial.hpp"
#include "util/check.hpp"

namespace ficon {

/// Shape of one 2-pin net's routing range on a fine grid.
/// g1/g2 are the cell counts in x/y (>= 1). type2 distinguishes the two
/// diagonal orientations of Figure 1; it is meaningless (and ignored) for
/// degenerate ranges (g1 == 1 or g2 == 1).
struct NetGridShape {
  int g1 = 1;
  int g2 = 1;
  bool type2 = false;

  bool degenerate() const { return g1 == 1 || g2 == 1; }
  friend bool operator==(const NetGridShape&, const NetGridShape&) = default;
};

/// Most cells one lattice axis may have: a routing range's fine lattice
/// or a fixed grid's row. 1 um over a metre; the finest lattices in use
/// are 1 um over a 2,000 um range and the 10 um judging grid.
constexpr int kMaxLatticeCells = 1 << 20;

/// Most cells a whole fixed grid may have (nx * ny). Each axis can pass
/// kMaxLatticeCells while their product does not fit in memory: the
/// evaluator holds the map plus a partial grid per block that runs or
/// waits for an earlier block's fold (one at one pool thread), 8 bytes a
/// cell each.
constexpr int kMaxGridCells = 1 << 24;

/// Cells of `pitch` covering `extent` (at least 1), as g1/g2 and the fixed
/// grid count them. Throws std::invalid_argument instead of casting a
/// count above kMaxLatticeCells (or NaN) to int, which is undefined.
inline int lattice_cells(double extent, double pitch) {
  const double cells = std::ceil(extent / pitch - 1e-9);
  FICON_REQUIRE(cells <= kMaxLatticeCells,
                "pitch too fine: a lattice axis needs more than 2^20 cells");
  return cells >= 1.0 ? static_cast<int>(cells) : 1;
}

/// Exact probability engine. Holds a reference to a shared log-factorial
/// table; cheap to copy construct per model instance.
class PathProbability {
 public:
  explicit PathProbability(LogFactorialTable& table) : table_(&table) {}

  /// Ta of Definition 1 (type I canonical frame): number of monotone routes
  /// from the source cell (0,0) to (x,y), as a natural log; returns nullopt
  /// outside [0,g1) x [0,g2) (the paper's "otherwise 0").
  std::optional<double> log_ta(const NetGridShape& s, int x, int y) const;

  /// Tb of Definition 1: routes from (x,y) to the sink cell (g1-1,g2-1).
  std::optional<double> log_tb(const NetGridShape& s, int x, int y) const;

  /// ln of the total number of routes of the net.
  double log_total(const NetGridShape& s) const;

  /// Formula 2: probability that the net passes through cell (x, y) in the
  /// net's local frame. Zero outside the routing range. Handles degenerate
  /// ranges (point / segment => probability 1 on the covered cells).
  double cell_probability(const NetGridShape& s, int x, int y) const;

  /// Formula 3 (exact): probability that the net passes through the closed
  /// cell region [region.xlo..xhi] x [region.ylo..yhi] (local frame). The
  /// region is clipped to the routing range; an empty intersection gives 0.
  /// Works for every region, including regions covering one or both pins.
  double region_probability_exact(const NetGridShape& s,
                                  const GridRect& region) const;

  /// True iff the clipped region covers a pin cell of the net.
  bool region_covers_pin(const NetGridShape& s, const GridRect& region) const;

  /// Brute-force oracle: same as region_probability_exact but computed via
  /// an avoidance DP (prob = 1 - [paths avoiding region] / [all paths]).
  /// O(g1*g2); used by tests and the full-exact validation mode.
  double region_probability_oracle(const NetGridShape& s,
                                   const GridRect& region) const;

  /// Oracle for cell_probability via path-count DP (no binomials).
  double cell_probability_oracle(const NetGridShape& s, int x, int y) const;

  LogFactorialTable& table() const { return *table_; }

 private:
  // Canonical (type I) implementations; callers have already mirrored y.
  double region_probability_exact_type1(int g1, int g2,
                                        const GridRect& region) const;

  LogFactorialTable* table_;
};

/// The first term of a straight lattice walk that is a normal double.
struct FirstNormalTerm {
  int index;     ///< first i with term(i) >= DBL_MIN; len + 1 if none
  double value;  ///< term(index), or 0 if none
};

/// Where a multiplicative recurrence over a straight walk of lattice
/// points may start:
///   term(i) = C(in + i, in) * C(out + (len - i), out) / exp(log_total),
/// i = 0..len, the share of routes through the walk's i-th point, `in`
/// steps across the walk before it and `out` after it. A fixed-grid row
/// and a banded scorer's band are such walks. Starting the recurrence at
/// term(0) leaves the whole walk at 0 once term(0) underflows, which
/// happens once ln C(out + len, out) passes ~708 (lattices of roughly
/// 500 x 500 cells), although its later terms are large. Stepping
/// ln term(i) up from i = 0 finds the first term >= DBL_MIN instead;
/// every term skipped is below DBL_MIN. When term(0) is normal, its value
/// is bit-equal to exp(log_choose(out + len, out) - log_total).
FirstNormalTerm first_normal_term(LogFactorialTable& table, int in, int out,
                                  int len, double log_total);

/// Mirror a y-coordinate for the type II -> type I transform.
inline int mirror_y(int g2, int y) { return g2 - 1 - y; }

/// Mirror a region's y-span for the type II -> type I transform.
inline GridRect mirror_region_y(int g2, const GridRect& r) {
  return GridRect{r.xlo, g2 - 1 - r.yhi, r.xhi, g2 - 1 - r.ylo};
}

}  // namespace ficon
