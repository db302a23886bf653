#include "congestion/field.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>

namespace ficon {

namespace {

constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Order-preserving bit image of a density: unsigned key order is `<`
/// (as for cut-line coordinates), so the cost compares keys, not doubles.
std::uint64_t density_key(double d) {
  const auto u = std::bit_cast<std::uint64_t>(d);
  return (u & kSignBit) != 0 ? ~u : (u | kSignBit);
}

/// The density whose key density_key() returned, bit for bit.
double key_density(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? (key ^ kSignBit)
                                                     : ~key);
}

/// A cell as the cost sees it: its density's key and its area.
struct Scored {
  std::uint64_t key;
  double area;
};

/// Digit width of a counting pass over n keys: about n/4 buckets, so that
/// clearing them costs less than reading the keys (an ami33 map has a few
/// hundred cells), and at most 2^11, so that they stay in L1.
int digit_bits(std::size_t n) {
  return std::clamp(static_cast<int>(std::bit_width(n)) - 2, 3, 11);
}

/// Per-thread scratch of top_area_fraction_density(). Its buffers only
/// grow, so a call writes cells without clearing them first; fields above
/// kKeptCells (a 10 um judging grid has 2.4M cells) free them on return.
struct TopScratch {
  static constexpr std::size_t kKeptCells = std::size_t{1} << 18;
  std::vector<double> width, height;
  std::vector<Scored> cells, chosen, next;
  std::vector<double> sums;
  std::vector<std::uint32_t> counts;

  void grow(std::size_t n) {
    for (std::vector<Scored>* v : {&cells, &chosen, &next}) {
      if (v->size() < n) v->resize(n);
    }
  }
};

/// Moves to the front of s.chosen the densest of the n cells in s.cells
/// whose areas add up to at least `target`, or all n if they add up to
/// less, and returns how many: every cell at least as dense as the least
/// dense one chosen, in s.cells order within each key. A radix select over
/// the key bits below `bits` (above it all keys agree): each level sums
/// the areas per digit, moves the denser digits' cells to s.chosen and
/// goes on into the digit where the target is reached, until that digit
/// holds a few cells or no bits are left. A cell is written to both
/// places and kept by advancing a count, without a branch on its digit.
/// s.cells is used up.
std::size_t select_densest(TopScratch& s, std::size_t n, double target,
                           int bits) {
  std::size_t chosen = 0;
  while (n > 64 && bits > 0) {
    const int digit_width = std::min(digit_bits(n), bits);
    const int shift = bits - digit_width;
    const std::uint64_t mask = (std::uint64_t{1} << digit_width) - 1;
    s.sums.assign(mask + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      s.sums[(s.cells[i].key >> shift) & mask] += s.cells[i].area;
    }
    // The densest digit whose cells, with all denser ones, reach the target.
    double above = 0.0;
    std::uint64_t d = mask + 1;
    while (d > 0 && above + s.sums[d - 1] < target) above += s.sums[--d];
    if (d == 0) break;  // out of reach: every cell left is chosen
    --d;
    target -= above;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Scored c = s.cells[i];
      const std::uint64_t digit = (c.key >> shift) & mask;
      s.chosen[chosen] = c;
      chosen += digit > d ? 1 : 0;
      s.next[kept] = c;
      kept += digit == d ? 1 : 0;
    }
    s.cells.swap(s.next);
    n = kept;
    bits = shift;
  }
  std::copy_n(s.cells.begin(), n,
              s.chosen.begin() + static_cast<std::ptrdiff_t>(chosen));
  return chosen + n;
}

/// Stable LSD radix sort of s.chosen[0 .. m), densest first: cells of
/// equal key keep their order. One read counts every pass's digits, and
/// the passes cover only the bits on which the keys differ.
void sort_densest(TopScratch& s, std::size_t m) {
  if (m < 2) return;
  std::uint64_t differ = 0;
  for (std::size_t i = 1; i < m; ++i) {
    differ |= s.chosen[i].key ^ s.chosen[0].key;
  }
  const int digit_width = digit_bits(m);
  const int passes =
      (static_cast<int>(std::bit_width(differ)) + digit_width - 1) /
      digit_width;
  const std::size_t buckets = std::size_t{1} << digit_width;
  const std::uint64_t mask = buckets - 1;
  // Densest first is ascending by ~key.
  s.counts.assign(static_cast<std::size_t>(passes) * buckets, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t key = ~s.chosen[i].key;
    for (int pass = 0; pass < passes; ++pass) {
      ++s.counts[static_cast<std::size_t>(pass) * buckets +
                 ((key >> (pass * digit_width)) & mask)];
    }
  }
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * digit_width;
    std::uint32_t* const count =
        s.counts.data() + static_cast<std::size_t>(pass) * buckets;
    if (count[(~s.chosen[0].key >> shift) & mask] == m) continue;
    std::uint32_t offset = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::uint32_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (std::size_t i = 0; i < m; ++i) {
      const Scored c = s.chosen[i];
      s.next[count[(~c.key >> shift) & mask]++] = c;
    }
    s.chosen.swap(s.next);
  }
}

/// The area-weighted mean density of the densest of the n cells in
/// s.cells that cover `budget`, the marginal cell taken fractionally.
/// `max_area` bounds every cell's area, and the keys agree above bit
/// `bits`.
double top_density(TopScratch& s, std::size_t n, double budget,
                   double max_area, int bits) {
  // The loop below takes cells densest first, cells of equal density in
  // row-major order, until the budget is used. It visits only the densest
  // cells that cover the budget plus one cell: after the cell that reaches
  // the budget, `used` may still sit an ulp below it, and the next cell
  // tops it up. The 2^-20 slack outweighs the rounding of every area sum
  // (at most 2^24 cells, 2^-53 each), so the candidates hold every cell
  // the loop takes.
  const double target = (budget + max_area) * (1.0 + 0x1p-20);
  const std::size_t m = select_densest(s, n, target, bits);
  sort_densest(s, m);
  double used = 0.0;
  double weighted = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    if (budget - used <= 0.0) break;
    const Scored& c = s.chosen[k];
    const double take = std::min(c.area, budget - used);
    // A zero-area (degenerate) cell contributes neither cost nor area;
    // skip it rather than breaking so equal-density siblings with real
    // area still fill the budget.
    if (take <= 0.0) continue;
    weighted += key_density(c.key) * take;
    used += take;
  }
  return used > 0.0 ? weighted / used : 0.0;
}

}  // namespace

double FlowField::top_area_fraction_density(double fraction) const {
  FICON_REQUIRE(fraction > 0.0 && fraction <= 1.0, "fraction out of (0,1]");
  const std::size_t n = values_.size();
  if (n == 0) return 0.0;
  thread_local TopScratch scratch;
  TopScratch& s = scratch;
  // Every field is a product of per-axis partitions, so the width of
  // column ix times the height of row iy is cell_rect(ix, iy).area() bit
  // for bit, and the densities are density()'s.
  s.width.resize(static_cast<std::size_t>(nx()));
  s.height.resize(static_cast<std::size_t>(ny()));
  double max_width = 0.0;
  double max_height = 0.0;
  for (int ix = 0; ix < nx(); ++ix) {
    const double w = cell_rect(ix, 0).width();
    s.width[static_cast<std::size_t>(ix)] = w;
    max_width = std::max(max_width, w);
  }
  for (int iy = 0; iy < ny(); ++iy) {
    const double h = cell_rect(0, iy).height();
    s.height[static_cast<std::size_t>(iy)] = h;
    max_height = std::max(max_height, h);
  }
  s.grow(n);
  const auto key_of = [](double value, double area) {
    return density_key(area > 0.0 ? value / area : 0.0);
  };
  const std::uint64_t first = key_of(values_[0], s.width[0] * s.height[0]);
  std::uint64_t differ = 0;
  double chip_area = 0.0;
  std::size_t i = 0;
  for (int iy = 0; iy < ny(); ++iy) {
    const double h = s.height[static_cast<std::size_t>(iy)];
    for (int ix = 0; ix < nx(); ++ix, ++i) {
      const double area = s.width[static_cast<std::size_t>(ix)] * h;
      chip_area += area;
      const std::uint64_t key = key_of(values_[i], area);
      s.cells[i] = Scored{key, area};
      differ |= key ^ first;
    }
  }
  const double cost =
      chip_area > 0.0
          ? top_density(s, n, fraction * chip_area, max_width * max_height,
                        static_cast<int>(std::bit_width(differ)))
          : 0.0;
  if (n > TopScratch::kKeptCells) s = TopScratch{};
  return cost;
}

double FlowField::overflow(double capacity) const {
  double total = 0.0;
  for (const double u : values_) total += std::max(0.0, u - capacity);
  return total;
}

long long FlowField::overflowed_cells(double capacity) const {
  long long count = 0;
  for (const double u : values_) {
    if (u > capacity) ++count;
  }
  return count;
}

void FlowField::write_density_csv(std::ostream& os) const {
  os << "xlo,ylo,xhi,yhi,flow,density\n";
  for (int iy = 0; iy < ny(); ++iy) {
    for (int ix = 0; ix < nx(); ++ix) {
      const Rect r = cell_rect(ix, iy);
      os << r.xlo << ',' << r.ylo << ',' << r.xhi << ',' << r.yhi << ','
         << value_at(ix, iy) << ',' << density(ix, iy) << '\n';
    }
  }
}

}  // namespace ficon
