#include "congestion/irregular_grid.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <ostream>

#include "congestion/prob_kernel.hpp"
#include "congestion/score_cache.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace ficon {

namespace {

/// Map an IR-cell's um extent onto the net's local fine-lattice cell span.
/// `origin` is the snapped range start, `pitch` the fine pitch, `g` the
/// lattice size along this axis.
int local_lo(double lo, double origin, double pitch, int g) {
  const double raw = (lo - origin) / pitch;
  return std::clamp(static_cast<int>(std::floor(raw + 1e-9)), 0, g - 1);
}

int local_hi(double hi, double origin, double pitch, int g) {
  const double raw = (hi - origin) / pitch;
  return std::clamp(static_cast<int>(std::ceil(raw - 1e-9)) - 1, 0, g - 1);
}

/// A partial flow grid: one block's accumulation target. Same row-major
/// layout as IrregularCongestionMap::flow(); partials from all blocks are
/// reduced in block order at the end of evaluate(). add() checks every
/// index; the banded scorer checks a net's IR-cell window once and writes
/// inside it by offset.
struct FlowGrid {
  std::vector<double>* flow;
  int nx;
  int ny;

  void add(int ix, int iy, double p) const {
    FICON_REQUIRE(ix >= 0 && ix < nx && iy >= 0 && iy < ny,
                  "IR-cell index out of range");
    (*flow)[static_cast<std::size_t>(iy) * static_cast<std::size_t>(nx) +
            static_cast<std::size_t>(ix)] += p;
  }
};

/// One net's placement on the Irregular-Grid: covered IR-cell index window
/// plus the local fine lattice.
struct NetOnGrid {
  int ix1, ix2, iy1, iy2;  ///< covering cut-line indices (cells ix1..ix2-1)
  double sx1, sy1;         ///< snapped range origin (um)
  NetGridShape shape;

  int ncx() const { return ix2 - ix1; }  ///< covered IR columns
  int ncy() const { return iy2 - iy1; }  ///< covered IR rows
};

/// Two doubles in one 16-byte vector: the baseline width on x86-64 (SSE2)
/// and aarch64 (NEON), so no target flags are needed. Same GCC/Clang
/// vector extension as numeric/kernel.cpp.
using vd2 = double __attribute__((vector_size(16)));

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Fingerprint of every option that influences a memoized probability
/// matrix. The ScoreMemo clears itself when this changes, so cached values
/// can never leak across strategies or Theorem-1 knob settings.
std::uint64_t scoring_fingerprint(const IrregularGridParams& p) {
  std::uint64_t h = 0;
  h = mix(h, static_cast<std::uint64_t>(p.strategy));
  h = mix(h, std::bit_cast<std::uint64_t>(p.grid_w));
  h = mix(h, std::bit_cast<std::uint64_t>(p.grid_h));
  h = mix(h, static_cast<std::uint64_t>(p.approx.continuity_correction));
  h = mix(h, static_cast<std::uint64_t>(p.approx.simpson_panels));
  h = mix(h, static_cast<std::uint64_t>(p.approx.small_range_threshold));
  h = mix(h, static_cast<std::uint64_t>(p.approx.small_region_threshold));
  h = mix(h, static_cast<std::uint64_t>(p.approx.narrow_range_threshold));
  return h;
}

/// Per-block net scorer (algorithm steps 3.1-3.3).
///
/// For every net it derives the covered IR-cell window and each covered
/// column/row's local fine-lattice span, then computes the net's ncx x ncy
/// crossing-probability matrix and accumulates it into the block's partial
/// flow grid. The matrix is a pure function of the signature
/// (g1, g2, type2, ncx, ncy, spans), so the region strategies memoize it
/// in a thread_local ScoreMemo: during annealing, nets whose modules did
/// not move re-present identical signatures and skip straight to
/// accumulation. Hit and miss produce bit-identical matrices, so
/// memoization cannot perturb results. The banded strategy recomputes
/// every net and adds its cells into the flow grid without building the
/// matrix (see score()).
///
/// Banded exact evaluation (IrEvalStrategy::kBandedExact) works in the
/// canonical type I frame (source cell (0,0), sink (g1-1,g2-1); type II
/// nets are y-mirrored, so their rows run top-down). A monotone route
/// crosses every column line once; let R(x, y) be the probability that it
/// leaves column x rightward at row y and PR(x, Y) = sum_{y<=Y} R(x, y).
/// The route visits the IR-cell [lx1..lx2] x [cy1..cy2] exactly when it
/// reaches column lx1 at a row <= cy2 and does not leave column lx2 below
/// row cy1, so Formula 3 for the cell is
///   P = E - F,  E = PR(lx1-1, cy2),  F = PR(lx2, cy1-1),
/// with E = 1 when lx1 = 0 or cy2 = g2-1 and F = 0 when cy1 = 0 or
/// lx2 = g1-1. Source and sink cells thus come out exactly 1, which doubles
/// as the paper's step 3.1. Every covered column but the last (lx2 < g1-1)
/// gets one band: PR(lx2, .) over the g2 rows, advanced by the exact
/// multiplicative recurrence
///   R(X,y+1)/R(X,y) = ((X+1+y) * (g2-1-y)) / ((y+1) * ((g1-2-X)+(g2-1-y)))
/// from its first normal term (first_normal_term), so the only
/// transcendental call is one exp() per band. Adjacent columns share their
/// boundary fine column x = lx2 of the left one, or meet at lx1 = x + 1;
/// E of the right column is then
///   PR(x-1, Y) = PR(x, Y) + R(x, Y) * (g2-1-Y)/(g1-1-x)
/// (the route's top exit from (x, Y)) or PR(x, Y) itself. The transposed
/// form puts one band of length g1 on every covered row but the top one;
/// a net runs whichever form takes fewer steps, so it costs
/// O(R + min(ncx * g2, ncy * g1)). Both forms need every IR-cell to span
/// at least one fine cell and no IR-cell but the last to reach into the
/// lattice's last fine column, which merge_factor >= 1 guarantees; a net
/// that fits neither form is scored per region, like degenerate shapes.
///
/// The recurrences are the annealing hot loop. Each step multiplies the
/// term by one exact quotient of integer products, one IEEE division, and
/// adds it to the running prefix; the loop is bound by the latency of
/// those two dependent chains, not by the divider. The bands of one net
/// share their length, so prefix_pair() advances two of them at once, one
/// per lane of a vd2, and finish_spans() turns both lanes into their
/// spans' cells in one pass over the other axis. Each lane runs the scalar
/// operations in the scalar order, all correctly rounded, so pairing
/// changes speed only, never bits. Bands stream through an L1-sized
/// buffer, and each IR-cell is added into the block's flow grid as soon as
/// it is computed, once per net: a pass adds its spans' cells and leaves
/// the next span's E before the next band runs.
class NetScorer {
 public:
  NetScorer(LogFactorialTable& table, const IrregularGridParams& params,
            ScoreMemo& memo)
      : table_(&table),
        params_(&params),
        memo_(&memo),
        kernel_(PathProbability(table), params.approx) {}

  void score(const TwoPinNet& net, const CutLines& cl, const Rect& chip,
             const FlowGrid& out) {
    obs::count(obs::Counter::kIrNetsScored);
    const Rect range = net.routing_range().intersection(chip);
    if (!range.valid()) return;  // net fully outside the chip window

    // Snap the routing range to the merged cut lines (step 2's "modify the
    // corresponding routing ranges").
    NetOnGrid on_grid;
    on_grid.ix1 = cl.nearest_x(range.xlo);
    on_grid.ix2 = cl.nearest_x(range.xhi);
    on_grid.iy1 = cl.nearest_y(range.ylo);
    on_grid.iy2 = cl.nearest_y(range.yhi);
    on_grid.sx1 = cl.xs()[static_cast<std::size_t>(on_grid.ix1)];
    on_grid.sy1 = cl.ys()[static_cast<std::size_t>(on_grid.iy1)];
    const double sx2 = cl.xs()[static_cast<std::size_t>(on_grid.ix2)];
    const double sy2 = cl.ys()[static_cast<std::size_t>(on_grid.iy2)];

    // Degenerate (line/point) snapped ranges: the single route runs exactly
    // ON a cut line, i.e. on the shared boundary of the two adjacent IR-cell
    // columns (rows). Charging only one side would systematically bias
    // congestion toward that side, so split the unit crossing probability
    // 0.5/0.5 across the two touching cells per collapsed axis — or give
    // the single neighbor weight 1.0 when the line is a chip boundary.
    // Weights multiply when both axes collapse (a point net on a cut-line
    // crossing charges its four corner cells 0.25 each).
    if (on_grid.ix1 == on_grid.ix2 || on_grid.iy1 == on_grid.iy2) {
      obs::count(obs::Counter::kIrNetsDegenerate);
      int cx_lo, cx_hi;
      double wx = 1.0;
      if (on_grid.ix1 == on_grid.ix2) {
        const bool left = on_grid.ix1 > 0;
        const bool right = on_grid.ix1 < cl.nx();
        cx_lo = left ? on_grid.ix1 - 1 : on_grid.ix1;
        cx_hi = right ? on_grid.ix1 : on_grid.ix1 - 1;
        if (left && right) wx = 0.5;
      } else {
        cx_lo = on_grid.ix1;
        cx_hi = on_grid.ix2 - 1;
      }
      int cy_lo, cy_hi;
      double wy = 1.0;
      if (on_grid.iy1 == on_grid.iy2) {
        const bool below = on_grid.iy1 > 0;
        const bool above = on_grid.iy1 < cl.ny();
        cy_lo = below ? on_grid.iy1 - 1 : on_grid.iy1;
        cy_hi = above ? on_grid.iy1 : on_grid.iy1 - 1;
        if (below && above) wy = 0.5;
      } else {
        cy_lo = on_grid.iy1;
        cy_hi = on_grid.iy2 - 1;
      }
      for (int iy = cy_lo; iy <= cy_hi; ++iy) {
        for (int ix = cx_lo; ix <= cx_hi; ++ix) {
          out.add(ix, iy, wx * wy);
        }
      }
      return;
    }

    // Fine lattice of the snapped routing range. Its bound keeps the local
    // spans below in int range too.
    on_grid.shape.g1 = lattice_cells(sx2 - on_grid.sx1, params_->grid_w);
    on_grid.shape.g2 = lattice_cells(sy2 - on_grid.sy1, params_->grid_h);
    // Type II iff the left pin is the upper pin (Figure 1).
    const Point& left = net.a.x <= net.b.x ? net.a : net.b;
    const Point& right = net.a.x <= net.b.x ? net.b : net.a;
    on_grid.shape.type2 = !on_grid.shape.degenerate() && left.y > right.y;

    // Unmirrored local fine spans of every covered IR column/row. They are
    // both the evaluation input and (with the shape) the memo signature.
    const int ncx = on_grid.ncx();
    const int ncy = on_grid.ncy();
    lx1_.resize(static_cast<std::size_t>(ncx));
    lx2_.resize(static_cast<std::size_t>(ncx));
    for (int cx = 0; cx < ncx; ++cx) {
      const Rect cell = cl.cell_rect(on_grid.ix1 + cx, on_grid.iy1);
      lx1_[static_cast<std::size_t>(cx)] =
          local_lo(cell.xlo, on_grid.sx1, params_->grid_w, on_grid.shape.g1);
      lx2_[static_cast<std::size_t>(cx)] =
          local_hi(cell.xhi, on_grid.sx1, params_->grid_w, on_grid.shape.g1);
    }
    ly1_.resize(static_cast<std::size_t>(ncy));
    ly2_.resize(static_cast<std::size_t>(ncy));
    for (int cy = 0; cy < ncy; ++cy) {
      const Rect cell = cl.cell_rect(on_grid.ix1, on_grid.iy1 + cy);
      ly1_[static_cast<std::size_t>(cy)] =
          local_lo(cell.ylo, on_grid.sy1, params_->grid_h, on_grid.shape.g2);
      ly2_[static_cast<std::size_t>(cy)] =
          local_hi(cell.yhi, on_grid.sy1, params_->grid_h, on_grid.shape.g2);
    }

    // Memoization split: the region strategies look each matrix up in the
    // memo first. kBandedExact always recomputes, never looks up and adds
    // its cells straight into the flow grid (degenerate shapes and the
    // rare nets no band pass fits fall back to fill_regions and stay
    // memoized), so a traced 1-thread ami49 anneal makes zero memo
    // lookups, although a banded recompute there costs about 8 us per
    // scored net at 30 um (traced anneals on a Xeon vCPU). Hits and misses
    // are bit-identical, so the split is invisible in results.
    if (params_->strategy == IrEvalStrategy::kBandedExact &&
        !on_grid.shape.degenerate() && plan_bands(on_grid)) {
      fill_banded(on_grid, out);
      return;
    }
    const std::vector<double>* probs = nullptr;
    if (memo_->enabled()) {
      build_key(on_grid);
      probs = memo_->find(key_);
    }
    if (probs == nullptr) {
      fill_regions(on_grid);
      if (memo_->enabled()) memo_->insert(key_, probs_);
      probs = &probs_;
    }

    for (int cy = 0; cy < ncy; ++cy) {
      for (int cx = 0; cx < ncx; ++cx) {
        out.add(on_grid.ix1 + cx, on_grid.iy1 + cy,
                (*probs)[index(cx, cy, ncx)]);
      }
    }
  }

 private:
  static std::size_t index(int cx, int cy, int ncx) {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(ncx) +
           static_cast<std::size_t>(cx);
  }

  void build_key(const NetOnGrid& net) {
    key_.clear();
    key_.reserve(5 + lx1_.size() + lx2_.size() + ly1_.size() + ly2_.size());
    key_.push_back(net.shape.g1);
    key_.push_back(net.shape.g2);
    key_.push_back(net.shape.type2 ? 1 : 0);
    key_.push_back(net.ncx());
    key_.push_back(net.ncy());
    key_.insert(key_.end(), lx1_.begin(), lx1_.end());
    key_.insert(key_.end(), lx2_.begin(), lx2_.end());
    key_.insert(key_.end(), ly1_.begin(), ly1_.end());
    key_.insert(key_.end(), ly2_.begin(), ly2_.end());
  }

  /// True when every span [lo[b], hi[b]] covers at least one fine cell.
  static bool covers(const std::vector<int>& lo, const std::vector<int>& hi) {
    for (std::size_t b = 0; b < lo.size(); ++b) {
      if (lo[b] > hi[b]) return false;
    }
    return true;
  }

  /// True when one band pass can run across the spans of a g-cell axis,
  /// in lattice order: the first starts at 0, the last ends at g - 1, and
  /// every next span starts on, or right after, the previous span's last
  /// fine cell, which is not the axis's last.
  static bool chains(const std::vector<int>& lo, const std::vector<int>& hi,
                     int g) {
    if (lo.front() != 0 || hi.back() != g - 1) return false;
    for (std::size_t b = 1; b < lo.size(); ++b) {
      const int step = lo[b] - hi[b - 1];
      if (hi[b - 1] == g - 1 || step < 0 || step > 1) return false;
    }
    return true;
  }

  /// Canonical row spans of the net, and the axis its band pass runs on:
  /// columns or rows, whichever takes fewer band steps among those that
  /// chain. False when neither chains or an IR-cell covers no fine cell
  /// (the net is then scored per region).
  bool plan_bands(const NetOnGrid& net) {
    const int g1 = net.shape.g1;
    const int g2 = net.shape.g2;
    const int ncx = net.ncx();
    const int ncy = net.ncy();
    // Canonical frame: type II rows are mirrored and run top-down, so
    // canonical row r is IR row ncy - 1 - r.
    const bool t2 = net.shape.type2;
    cy1_.resize(static_cast<std::size_t>(ncy));
    cy2_.resize(static_cast<std::size_t>(ncy));
    for (int r = 0; r < ncy; ++r) {
      const auto cy = static_cast<std::size_t>(t2 ? ncy - 1 - r : r);
      cy1_[static_cast<std::size_t>(r)] = t2 ? g2 - 1 - ly2_[cy] : ly1_[cy];
      cy2_[static_cast<std::size_t>(r)] = t2 ? g2 - 1 - ly1_[cy] : ly2_[cy];
    }
    if (!covers(lx1_, lx2_) || !covers(cy1_, cy2_)) return false;
    const bool by_columns = chains(lx1_, lx2_, g1);
    const bool by_rows = chains(cy1_, cy2_, g2);
    // A pass runs one band per span but the last.
    const long long column_steps = static_cast<long long>(ncx - 1) * g2;
    const long long row_steps = static_cast<long long>(ncy - 1) * g1;
    bands_on_rows_ = by_rows && (!by_columns || row_steps < column_steps);
    return by_columns || by_rows;
  }

  /// Banded exact probabilities for all covered IR-cells of one net, on
  /// the axis plan_bands() chose (see the class comment for the math),
  /// added straight into the flow grid.
  void fill_banded(const NetOnGrid& net, const FlowGrid& out) {
    // Every cell the pass writes lies in this window.
    FICON_REQUIRE(net.ix1 >= 0 && net.ix2 <= out.nx && net.iy1 >= 0 &&
                      net.iy2 <= out.ny,
                  "IR-cell window out of range");
    const int ncy = net.ncy();
    obs::count(obs::Counter::kIrRegionsBanded,
               static_cast<long long>(net.ncx()) * ncy);
    // Flow-grid offsets from the window's first cell: IR column cx at cx,
    // canonical row r at its IR row.
    const std::ptrdiff_t nx = out.nx;
    double* window = out.flow->data() +
                     static_cast<std::ptrdiff_t>(net.iy1) * nx + net.ix1;
    const bool t2 = net.shape.type2;
    const Axis columns{&lx1_, &lx2_, net.shape.g1, 0, 1};
    const Axis rows{&cy1_, &cy2_, net.shape.g2,
                    t2 ? static_cast<std::ptrdiff_t>(ncy - 1) * nx : 0,
                    t2 ? -nx : nx};
    const double log_total =
        table_->log_choose(net.shape.g1 + net.shape.g2 - 2, net.shape.g2 - 1);
    const long long steps = bands_on_rows_
                                ? band_pass(rows, columns, log_total, window)
                                : band_pass(columns, rows, log_total, window);
    obs::count(obs::Counter::kIrBandSteps, steps);
  }

  /// The covered IR columns or rows of a net along one lattice axis: their
  /// fine spans in lattice order, the axis's lattice size, and where span
  /// b's cells sit in the flow grid (base + b * stride from the window).
  struct Axis {
    const std::vector<int>* lo;
    const std::vector<int>* hi;
    int g;
    std::ptrdiff_t base;
    std::ptrdiff_t stride;
  };

  /// One band of a pass: its fine-lattice offset k (the last fine cell of
  /// its span) and its first normal exit term.
  struct Band {
    int k;
    FirstNormalTerm first;
  };

  /// One band pass: a band per span of `u` but the last, each of length
  /// v.g, streamed in order (see the class comment; the column form has
  /// u = columns, v = rows). Adds every IR-cell of the net into the flow
  /// grid at `window` and returns the band steps run.
  long long band_pass(const Axis& u, const Axis& v, double log_total,
                      double* window) {
    const auto nu = u.lo->size();
    const auto nv = v.lo->size();
    bands_.clear();
    for (std::size_t b = 0; b + 1 < nu; ++b) {
      const int k = (*u.hi)[b];
      bands_.push_back(Band{
          k, first_normal_term(*table_, k, u.g - 2 - k, v.g - 1, log_total)});
    }
    // entry_[c] is E for span c of v in the current span of u: 1 for the
    // first span of u, which starts at 0.
    entry_.assign(nv, 1.0);
    long long steps = 0;
    std::size_t b = 0;
    while (b < bands_.size()) {
      // Pair only bands that start at the same index; a band that starts
      // later runs alone, beside a spare copy of itself.
      const bool pair = b + 1 < bands_.size() &&
                        bands_[b + 1].first.index == bands_[b].first.index;
      prefix_pair(v.g, u.g, bands_[b], bands_[pair ? b + 1 : b]);
      const int lanes = pair ? 2 : 1;
      steps += lanes * static_cast<long long>(v.g - bands_[b].first.index);
      finish_spans(u, v, b, lanes, window);
      b += static_cast<std::size_t>(lanes);
    }
    // The last span of u ends at the lattice's last fine cell: F = 0.
    double* last = window + u.base +
                   static_cast<std::ptrdiff_t>(nu - 1) * u.stride + v.base;
    for (std::size_t c = 0; c < nv; ++c) {
      last[static_cast<std::ptrdiff_t>(c) * v.stride] +=
          std::clamp(entry_[c], 0.0, 1.0);
    }
    return steps;
  }

  /// Adds the cells of spans b .. b + lanes - 1 of u into the flow grid,
  /// span b + l from lane l of prefix_ and the E that span b + l - 1
  /// leaves in entry_, then replaces entry_ with span b + lanes's E. One
  /// pass over the spans of v serves both lanes of a pair: one vd2 load
  /// gives both lanes' F, and one each both lanes' exit sums and terms.
  void finish_spans(const Axis& u, const Axis& v, std::size_t b, int lanes,
                    double* window) {
    // Per lane, span b + l + 1 starts at k + 1 (E is the band's own
    // prefix: across 0, which adds an exact +0 since terms are finite and
    // prefixes >= +0) or at k (add the exits across the shared fine cell);
    // at 0 only when k is 0, where E stays 1.
    vd2 across = {0.0, 0.0};
    bool stays[2] = {false, false};
    double* row[2] = {nullptr, nullptr};
    for (int l = 0; l < lanes; ++l) {
      const std::size_t span = b + static_cast<std::size_t>(l);
      const int k = (*u.hi)[span];
      const int next_lo = (*u.lo)[span + 1];
      if (next_lo == k) across[l] = 1.0 / static_cast<double>(u.g - 1 - k);
      stays[l] = next_lo == 0;
      row[l] = window + u.base +
               static_cast<std::ptrdiff_t>(span) * u.stride + v.base;
    }
    for (std::size_t c = 0; c < entry_.size(); ++c) {
      const int lo = (*v.lo)[c];
      const int hi = (*v.hi)[c];
      vd2 f = {0.0, 0.0};
      if (lo > 0) {
        std::memcpy(&f, prefix_.data() + 2 * static_cast<std::size_t>(lo - 1),
                    sizeof f);
      }
      // E of spans b, b + 1 and b + 2. A span of v that ends on the last
      // fine cell keeps E = 1.
      const double e0 = entry_[c];
      double e1 = e0;
      double e2 = e0;
      if (hi != v.g - 1) {
        const std::size_t at = 2 * static_cast<std::size_t>(hi);
        vd2 exits, terms;
        std::memcpy(&exits, prefix_.data() + at, sizeof exits);
        std::memcpy(&terms, terms_.data() + at, sizeof terms);
        exits += terms * (static_cast<double>(v.g - 1 - hi) * across);
        e1 = stays[0] ? e0 : exits[0];
        e2 = stays[1] ? e1 : exits[1];
      }
      const vd2 cells = vd2{e0, e1} - f;
      const std::ptrdiff_t at = static_cast<std::ptrdiff_t>(c) * v.stride;
      row[0][at] += std::clamp(cells[0], 0.0, 1.0);
      if (lanes == 2) row[1][at] += std::clamp(cells[1], 0.0, 1.0);
      entry_[c] = lanes == 2 ? e2 : e1;
    }
  }

  /// Exit terms and their prefix sums of two bands of length n, one per
  /// lane, into terms_ and prefix_ (lane-interleaved: prefix_[2 * i +
  /// lane]). m is the lattice size across the bands: n = g2, m = g1 for
  /// column bands, n = g1, m = g2 for row bands. Both bands start at the
  /// same index s; the terms before it are below DBL_MIN and stored as 0.
  /// Per lane this is the recurrence of the class comment,
  ///   term(i+1) = term(i) * (((i+1+k) * (n-1-i)) /
  ///                          ((i+1) * ((n-1-i)+(m-2-k)))),
  /// with the same correctly rounded operations in the same order as a
  /// one-band loop, so neither lane's sums depend on the other band. Both
  /// products are integers below 2^42 (lattice axes are at most 2^20
  /// cells), so they are exact and a step rounds twice: its one division
  /// and its multiply.
  void prefix_pair(int n, int m, const Band& lo, const Band& hi) {
    const int s = std::min(lo.first.index, n);
    prefix_.resize(2 * static_cast<std::size_t>(n));
    terms_.resize(2 * static_cast<std::size_t>(n));
    std::fill_n(prefix_.begin(), 2 * static_cast<std::size_t>(s), 0.0);
    std::fill_n(terms_.begin(), 2 * static_cast<std::size_t>(s), 0.0);
    if (s == n) return;
    vd2 term = {lo.first.value, hi.first.value};
    vd2 running = {0.0, 0.0};
    // The four factors, stepped by 1 from their i = s values. They are
    // integers far below 2^53, so every step is exact and each factor
    // equals the int expression converted to double.
    vd2 a = {static_cast<double>(lo.k + 1 + s),
             static_cast<double>(hi.k + 1 + s)};
    vd2 b = {static_cast<double>(1 + s), static_cast<double>(1 + s)};
    vd2 c = {static_cast<double>(n - 1 - s), static_cast<double>(n - 1 - s)};
    vd2 d = {static_cast<double>((n - 1 - s) + (m - 2 - lo.k)),
             static_cast<double>((n - 1 - s) + (m - 2 - hi.k))};
    const vd2 one = {1.0, 1.0};
    for (int i = s; i < n - 1; ++i) {
      running += term;
      std::memcpy(prefix_.data() + 2 * static_cast<std::size_t>(i), &running,
                  sizeof running);
      std::memcpy(terms_.data() + 2 * static_cast<std::size_t>(i), &term,
                  sizeof term);
      term *= (a * c) / (b * d);
      a += one;
      b += one;
      c -= one;
      d -= one;
    }
    running += term;
    std::memcpy(prefix_.data() + 2 * static_cast<std::size_t>(n - 1),
                &running, sizeof running);
    std::memcpy(terms_.data() + 2 * static_cast<std::size_t>(n - 1), &term,
                sizeof term);
  }

  /// Per-region probabilities (kTheorem1 / kExactPerRegion, and the
  /// fallback of kBandedExact for degenerate shapes and nets no band pass
  /// fits): steps 3.1-3.3, one kernel call per IR-cell of the net's
  /// ncx x ncy region matrix.
  void fill_regions(const NetOnGrid& net) {
    const int ncx = net.ncx();
    const int ncy = net.ncy();
    const bool theorem1 = params_->strategy == IrEvalStrategy::kTheorem1;
    // Regions computed (memo hits skip this function entirely; they show
    // up as score_memo hits instead). The banded strategy's fallback nets
    // land here too and count as exact regions.
    obs::count(theorem1 ? obs::Counter::kIrRegionsTheorem1
                        : obs::Counter::kIrRegionsExact,
               static_cast<long long>(ncx) * ncy);
    probs_.resize(static_cast<std::size_t>(ncx) *
                  static_cast<std::size_t>(ncy));
    const PathProbability& exact = kernel_.exact();
    for (int cy = 0; cy < ncy; ++cy) {
      for (int cx = 0; cx < ncx; ++cx) {
        const GridRect r{lx1_[static_cast<std::size_t>(cx)],
                         ly1_[static_cast<std::size_t>(cy)],
                         lx2_[static_cast<std::size_t>(cx)],
                         ly2_[static_cast<std::size_t>(cy)]};
        double& p = probs_[index(cx, cy, ncx)];
        if (theorem1) {
          p = kernel_.region_probability(net.shape, r);
        } else {
          p = exact.region_covers_pin(net.shape, r)
                  ? 1.0
                  : exact.region_probability_exact(net.shape, r);
        }
      }
    }
  }

  LogFactorialTable* table_;
  const IrregularGridParams* params_;
  ScoreMemo* memo_;
  ProbKernel kernel_;
  // Scratch buffers reused across the nets of one evaluation block (each
  // block has its own scorer, so these are never shared between threads).
  std::vector<double> probs_;
  std::vector<double> prefix_, terms_, entry_;
  std::vector<Band> bands_;
  std::vector<int> lx1_, lx2_, ly1_, ly2_;
  std::vector<int> cy1_, cy2_;  ///< row spans in canonical order
  bool bands_on_rows_ = false;  ///< plan_bands()'s axis for fill_banded()
  ScoreMemo::Key key_;
};

/// Per-thread log-factorial and scoring caches: amortized across calls
/// like single-threaded member caches would be, but race-free. Cache hits
/// return bit-identical values to misses, so per-thread cache duplication
/// affects only the hit rate, never the result. Function-scoped accessors
/// (rather than thread_locals named inside the worker lambda) keep the
/// lazy-init semantics while giving diagnostics access to the calling
/// thread's instances.
LogFactorialTable& scoring_table() {
  thread_local LogFactorialTable table;
  return table;
}

ScoreMemo& scoring_memo() {
  thread_local ScoreMemo memo;
  return memo;
}

}  // namespace

IrregularCongestionMap IrregularGridModel::evaluate(
    std::span<const TwoPinNet> nets, const Rect& chip) const {
  obs::count(obs::Counter::kIrEvaluations);
  // Algorithm steps 1-2: cut lines from routing ranges, then merge lines
  // closer than twice the fine pitch.
  CutLines lines =
      build_cutlines(nets, chip, params_.merge_factor * params_.grid_w,
                     params_.merge_factor * params_.grid_h);
  const std::size_t cells = static_cast<std::size_t>(lines.cell_count());

  // Steps 3-4, parallel: nets are partitioned into blocks (boundaries a
  // function of the net count only — NOT the thread count), every block
  // accumulates into a private partial grid, and the partials are reduced
  // in block order below. Fixed blocking + ordered reduction make the
  // result bit-identical for every FICON_THREADS setting.
  const int blocks = deterministic_block_count(nets.size());
  // Per-caller-thread partial grids, reused across evaluate() calls (the
  // annealing loop calls this once per proposed move). Workers only write
  // the entry of their own block; the vector itself is sized before the
  // fork and reduced after the join, both on the calling thread. The
  // worker lambda must go through the local reference: naming the
  // thread_local directly inside it would resolve to the *worker's*
  // (empty) instance, not the caller's.
  thread_local std::vector<std::vector<double>> partial_tls;
  std::vector<std::vector<double>>& partial = partial_tls;
  if (partial.size() < static_cast<std::size_t>(blocks)) {
    partial.resize(static_cast<std::size_t>(blocks));
  }
  const CutLines& cl = lines;
  const IrregularGridParams& params = params_;
  const std::uint64_t fingerprint = scoring_fingerprint(params_);
  ThreadPool::global().run(blocks, [&](int b) {
    LogFactorialTable& table = scoring_table();
    ScoreMemo& memo = scoring_memo();
    memo.configure(params.score_cache_capacity, fingerprint);
    NetScorer scorer(table, params, memo);
    std::vector<double>& flow = partial[static_cast<std::size_t>(b)];
    flow.assign(cells, 0.0);
    const FlowGrid out{&flow, cl.nx(), cl.ny()};
    const BlockRange range = block_range(nets.size(), blocks, b);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      scorer.score(nets[i], cl, chip, out);
    }
  });

  // Ordered reduction (block 0 first, block N-1 last).
  std::vector<double> flow(cells, 0.0);
  for (int b = 0; b < blocks; ++b) {
    const std::vector<double>& p = partial[static_cast<std::size_t>(b)];
    for (std::size_t i = 0; i < cells; ++i) flow[i] += p[i];
  }
  return IrregularCongestionMap(std::move(lines), std::move(flow));
}

}  // namespace ficon
