#include "congestion/irregular_grid.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <ostream>

#include "congestion/net_setup.hpp"
#include "congestion/prob_kernel.hpp"
#include "congestion/score_cache.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace ficon {

namespace {

/// A partial flow grid: one block's accumulation target. Same row-major
/// layout as IrregularCongestionMap::flow(); fold_blocks() adds each
/// block's partial into the flow in block order. Every net checks its
/// IR-cell window once and writes inside it by offset.
struct FlowGrid {
  std::vector<double>* flow;
  int nx;
  int ny;

  /// The flow of IR-cell (x0, y0), after checking that the cells
  /// [x0, x1) x [y0, y1) lie in the grid; cell (x0 + i, y0 + j) is at
  /// offset j * nx + i from it.
  double* window(int x0, int x1, int y0, int y1) const {
    FICON_REQUIRE(0 <= x0 && x0 <= x1 && x1 <= nx && 0 <= y0 && y0 <= y1 &&
                      y1 <= ny,
                  "IR-cell window out of range");
    return flow->data() + static_cast<std::ptrdiff_t>(y0) * nx + x0;
  }
};

/// Two doubles in one 16-byte vector: the baseline width on x86-64 (SSE2)
/// and aarch64 (NEON), so no target flags are needed. Same GCC/Clang
/// vector extension as numeric/kernel.cpp.
using vd2 = double __attribute__((vector_size(16)));

/// std::clamp(v, 0.0, 1.0) without its branches: the same comparisons in
/// the same order, so -0.0 and NaN come out as std::clamp leaves them.
/// About one finished IR-cell in ten clamps to 0, too often for a branch
/// to predict.
double clamp01(double v) {
  v = v < 0.0 ? 0.0 : v;
  return 1.0 < v ? 1.0 : v;
}

vd2 clamp01(vd2 v) {
  const vd2 zero = {0.0, 0.0};
  const vd2 one = {1.0, 1.0};
  v = v < zero ? zero : v;
  return one < v ? one : v;
}

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
/// For every net its NetSetup (net_setup.hpp) snaps the routing range to
/// the cut lines through their bucket index, O(1) per edge, and, unless
/// the window is degenerate, maps each covered cut line onto the net's
/// fine lattice once, by integer truncation, in the same pass that
/// decides whether the spans cover the lattice and chain and which axis a
/// band pass runs on. It writes the spans in the canonical type I frame
/// only (source cell (0,0), sink (g1-1,g2-1); a type II net's rows are
/// y-mirrored and run top-down), and every strategy scores that frame.
/// The set-up's buffers, and band_pass()'s band list and span table,
/// are sized once per block, so a net writes them in place. An evaluation
/// scores every net and most are degenerate or small (on perfbench's
/// stream tier 56% are degenerate and the rest average about 80 IR-cells
/// and 200 band steps), so this bookkeeping weighs as much as a small
/// net's band steps. The scorer then computes the net's ncx x ncy
/// crossing-probability matrix and accumulates it into the block's partial
/// flow grid, canonical row r into IR row r (type I) or ncy - 1 - r (type
/// II). The canonical matrix is a pure function of the signature
/// (g1, g2, ncx, ncy, spans), so the region strategies memoize it in a
/// thread_local ScoreMemo: during annealing, nets whose modules did not
/// move re-present identical signatures and skip straight to
/// accumulation, and a net and its y-mirror image share an entry. Hit and
/// miss produce bit-identical matrices, so memoization cannot perturb
/// results. The banded strategy recomputes every net and adds its cells
/// into the flow grid without building the matrix (see score()).
///
/// Banded exact evaluation (IrEvalStrategy::kBandedExact) runs in the
/// same canonical frame. A monotone route crosses every column line once;
/// let R(x, y) be the probability that it leaves column x rightward at
/// row y and PR(x, Y) = sum_{y<=Y} R(x, y).
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
            ScoreMemo& memo, const CutLines& cl)
      : table_(&table),
        params_(&params),
        memo_(&memo),
        kernel_(PathProbability(table), params.approx),
        setup_(cl),
        bands_(std::max(cl.xs().size(), cl.ys().size())),
        spans_(bands_.size()) {}

  void score(const TwoPinNet& net, const Rect& chip, const FlowGrid& out) {
    obs::count(obs::Counter::kIrNetsScored);
    if (!setup_.snap(net, chip)) return;  // net fully outside the chip

    // Degenerate (line/point) snapped ranges: the single route runs exactly
    // ON a cut line, i.e. on the shared boundary of the two adjacent IR-cell
    // columns (rows). Charging only one side would systematically bias
    // congestion toward that side, so split the unit crossing probability
    // 0.5/0.5 across the two touching cells per collapsed axis — or give
    // the single neighbor weight 1.0 when the line is a chip boundary.
    // Weights multiply when both axes collapse (a point net on a cut-line
    // crossing charges its four corner cells 0.25 each).
    if (setup_.degenerate_window()) {
      const NetOnGrid& on_grid = setup_.net();
      obs::count(obs::Counter::kIrNetsDegenerate);
      int cx_lo, cx_hi;
      double wx = 1.0;
      if (on_grid.ix1 == on_grid.ix2) {
        const bool left = on_grid.ix1 > 0;
        const bool right = on_grid.ix1 < out.nx;
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
        const bool above = on_grid.iy1 < out.ny;
        cy_lo = below ? on_grid.iy1 - 1 : on_grid.iy1;
        cy_hi = above ? on_grid.iy1 : on_grid.iy1 - 1;
        if (below && above) wy = 0.5;
      } else {
        cy_lo = on_grid.iy1;
        cy_hi = on_grid.iy2 - 1;
      }
      double* window = out.window(cx_lo, cx_hi + 1, cy_lo, cy_hi + 1);
      for (int j = 0; j <= cy_hi - cy_lo; ++j) {
        double* row = window + static_cast<std::ptrdiff_t>(j) * out.nx;
        for (int i = 0; i <= cx_hi - cx_lo; ++i) row[i] += wx * wy;
      }
      return;
    }

    // Fine lattice of the snapped routing range and the canonical local
    // fine spans of every covered IR column/row: both the evaluation input
    // and (with the lattice size) the memo signature.
    setup_.lay_out(net, params_->grid_w, params_->grid_h);
    const NetOnGrid& on_grid = setup_.net();
    const int ncx = on_grid.ncx();
    const int ncy = on_grid.ncy();

    // Memoization split: the region strategies look each matrix up in the
    // memo first. kBandedExact always recomputes, never looks up and adds
    // its cells straight into the flow grid (degenerate shapes and the
    // rare nets no band pass fits fall back to fill_regions and stay
    // memoized), so a traced 1-thread ami49 anneal makes zero memo
    // lookups, although a banded recompute there costs about 8 us per
    // scored net at 30 um (traced anneals on a Xeon vCPU). Hits and misses
    // are bit-identical, so the split is invisible in results.
    if (params_->strategy == IrEvalStrategy::kBandedExact &&
        setup_.band_axis() != BandAxis::kNone) {
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

    double* window =
        out.window(on_grid.ix1, on_grid.ix2, on_grid.iy1, on_grid.iy2);
    const RowMap rows = canonical_rows(on_grid, out.nx);
    for (int r = 0; r < ncy; ++r) {
      double* row = window + rows.base + r * rows.stride;
      for (int cx = 0; cx < ncx; ++cx) {
        row[cx] += (*probs)[index(cx, r, ncx)];
      }
    }
  }

 private:
  /// Where a net's canonical row r sits in the flow grid: base + r *
  /// stride from its window's first cell, IR row r of a type I net and
  /// IR row ncy - 1 - r of a type II net.
  struct RowMap {
    std::ptrdiff_t base;
    std::ptrdiff_t stride;
  };

  static RowMap canonical_rows(const NetOnGrid& net, std::ptrdiff_t nx) {
    if (!net.shape.type2) return RowMap{0, nx};
    return RowMap{static_cast<std::ptrdiff_t>(net.ncy() - 1) * nx, -nx};
  }

  static std::size_t index(int cx, int cy, int ncx) {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(ncx) +
           static_cast<std::size_t>(cx);
  }

  void build_key(const NetOnGrid& net) {
    const int ncx = net.ncx();
    const int ncy = net.ncy();
    key_.clear();
    key_.reserve(4 + 2 * static_cast<std::size_t>(ncx + ncy));
    key_.push_back(net.shape.g1);
    key_.push_back(net.shape.g2);
    key_.push_back(ncx);
    key_.push_back(ncy);
    key_.insert(key_.end(), setup_.lx1(), setup_.lx1() + ncx);
    key_.insert(key_.end(), setup_.lx2(), setup_.lx2() + ncx);
    key_.insert(key_.end(), setup_.ly1(), setup_.ly1() + ncy);
    key_.insert(key_.end(), setup_.ly2(), setup_.ly2() + ncy);
  }

  /// Banded exact probabilities for all covered IR-cells of one net, on
  /// the axis NetSetup chose (see the class comment for the math), added
  /// straight into the flow grid.
  void fill_banded(const NetOnGrid& net, const FlowGrid& out) {
    // Every cell the pass writes lies in this window. Flow-grid offsets
    // from its first cell: IR column cx at cx, canonical row r at its IR
    // row.
    double* window = out.window(net.ix1, net.ix2, net.iy1, net.iy2);
    const int ncy = net.ncy();
    obs::count(obs::Counter::kIrRegionsBanded,
               static_cast<long long>(net.ncx()) * ncy);
    const RowMap at = canonical_rows(net, out.nx);
    const Axis columns{setup_.lx1(), setup_.lx2(), net.ncx(), net.shape.g1, 0,
                       1};
    const Axis rows{setup_.ly1(), setup_.ly2(), ncy, net.shape.g2, at.base,
                    at.stride};
    const double log_total =
        table_->log_choose(net.shape.g1 + net.shape.g2 - 2, net.shape.g2 - 1);
    const long long steps = setup_.band_axis() == BandAxis::kRows
                                ? band_pass(rows, columns, log_total, window)
                                : band_pass(columns, rows, log_total, window);
    obs::count(obs::Counter::kIrBandSteps, steps);
  }

  /// The n covered IR columns or rows of a net along one lattice axis:
  /// their fine spans in lattice order, the axis's lattice size, and where
  /// span b's cells sit in the flow grid (base + b * stride from the
  /// window).
  struct Axis {
    const int* lo;
    const int* hi;
    int n;
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

  /// One span [lo, hi] of v as finish_spans() reads it, built once per
  /// net. Every offset is in range, so the pass reads without a branch and
  /// drops the exits of a span that ends on the last fine cell.
  struct Span {
    std::uint32_t f;     ///< prefix_ index of PR(lo - 1): 2 * lo
    std::uint32_t exit;  ///< prefix_ and terms_ index at hi: 2 * (hi + 1),
                         ///< or 0 (the leading zeros) for the last span
    double weight;       ///< v.g - 1 - hi, the weight of the top exit
    std::ptrdiff_t at;   ///< flow-grid offset of its cell in a span of u
    bool last;           ///< hi == v.g - 1: E stays as it is
  };

  /// One band pass: a band per span of `u` but the last, each of length
  /// v.g, streamed in order (see the class comment; the column form has
  /// u = columns, v = rows). Adds every IR-cell of the net into the flow
  /// grid at `window` and returns the band steps run.
  long long band_pass(const Axis& u, const Axis& v, double log_total,
                      double* window) {
    const auto nu = static_cast<std::size_t>(u.n);
    const auto nv = static_cast<std::size_t>(v.n);
    // bands_ and spans_ have an entry per cut line of the longer axis,
    // sized once per block; a net writes its own in place.
    const std::size_t nbands = nu - 1;
    for (std::size_t b = 0; b < nbands; ++b) {
      const int k = u.hi[b];
      bands_[b] = Band{
          k, first_normal_term(*table_, k, u.g - 2 - k, v.g - 1, log_total)};
    }
    for (std::size_t c = 0; c < nv; ++c) {
      const int lo = v.lo[c];
      const int hi = v.hi[c];
      const bool last = hi == v.g - 1;
      spans_[c] = Span{2 * static_cast<std::uint32_t>(lo),
                       last ? 0 : 2 * static_cast<std::uint32_t>(hi + 1),
                       static_cast<double>(v.g - 1 - hi),
                       v.base + static_cast<std::ptrdiff_t>(c) * v.stride,
                       last};
    }
    // The finish reads a band's terms and prefix sums at every span's hi
    // but the last one's, whose exits it drops, and its F at lo - 1, which
    // is at most the previous span's hi. So a band stops at the last but
    // one span's hi, and a net with one span of v runs no steps.
    const int end = nv >= 2 ? v.hi[nv - 2] + 1 : 0;
    // entry_[c] is E for span c of v in the current span of u: 1 for the
    // first span of u, which starts at 0.
    entry_.assign(nv, 1.0);
    long long steps = 0;
    std::size_t b = 0;
    while (b < nbands) {
      // Pair only bands that start at the same index; a band that starts
      // later runs alone, beside a spare copy of itself.
      const bool pair = b + 1 < nbands &&
                        bands_[b + 1].first.index == bands_[b].first.index;
      prefix_pair(v.g, u.g, end, bands_[b], bands_[pair ? b + 1 : b]);
      const int lanes = pair ? 2 : 1;
      steps += lanes * static_cast<long long>(
                           std::max(end - bands_[b].first.index, 0));
      if (pair) {
        finish_spans<2>(u, nv, b, window);
      } else {
        finish_spans<1>(u, nv, b, window);
      }
      b += static_cast<std::size_t>(lanes);
    }
    // The last span of u ends at the lattice's last fine cell: F = 0.
    double* last =
        window + u.base + static_cast<std::ptrdiff_t>(nu - 1) * u.stride;
    for (std::size_t c = 0; c < nv; ++c) {
      last[spans_[c].at] += clamp01(entry_[c]);
    }
    return steps;
  }

  /// Adds the cells of spans b .. b + Lanes - 1 of u into the flow grid,
  /// span b + l from lane l of prefix_ and the E that span b + l - 1
  /// leaves in entry_, then replaces entry_ with span b + Lanes's E. One
  /// pass over the spans of v serves both lanes of a pair: one vd2 load
  /// gives both lanes' F, and one each both lanes' exit sums and terms.
  template <int Lanes>
  void finish_spans(const Axis& u, std::size_t nv, std::size_t b,
                    double* window) {
    // Per lane, span b + l + 1 starts at k + 1 (E is the band's own
    // prefix: across 0, which adds an exact +0 since terms are finite and
    // prefixes >= +0) or at k (add the exits across the shared fine cell);
    // at 0 only when k is 0, where E stays 1.
    vd2 across = {0.0, 0.0};
    bool stays[2] = {false, false};
    double* row[2] = {nullptr, nullptr};
    for (int l = 0; l < Lanes; ++l) {
      const std::size_t span = b + static_cast<std::size_t>(l);
      const int k = u.hi[span];
      const int next_lo = u.lo[span + 1];
      if (next_lo == k) across[l] = 1.0 / static_cast<double>(u.g - 1 - k);
      stays[l] = next_lo == 0;
      row[l] = window + u.base + static_cast<std::ptrdiff_t>(span) * u.stride;
    }
    const double* prefix = prefix_.data();
    const double* terms = terms_.data();
    double* entry = entry_.data();
    for (std::size_t c = 0; c < nv; ++c) {
      const Span& span = spans_[c];
      vd2 f, exits, exit_terms;
      std::memcpy(&f, prefix + span.f, sizeof f);
      std::memcpy(&exits, prefix + span.exit, sizeof exits);
      std::memcpy(&exit_terms, terms + span.exit, sizeof exit_terms);
      exits += exit_terms * (span.weight * across);
      // E of spans b, b + 1 and b + 2. A span of v that ends on the last
      // fine cell keeps E = 1.
      const double e0 = entry[c];
      const double e1 = span.last || stays[0] ? e0 : exits[0];
      const vd2 cells = clamp01(vd2{e0, e1} - f);
      row[0][span.at] += cells[0];
      if constexpr (Lanes == 2) {
        row[1][span.at] += cells[1];
        entry[c] = span.last || stays[1] ? e1 : exits[1];
      } else {
        entry[c] = e1;
      }
    }
  }

  /// Exit terms and their prefix sums of two bands of length n, one per
  /// lane, at indices 0 .. end - 1, into terms_ and prefix_
  /// (lane-interleaved behind a leading zero pair:
  /// prefix_[2 * (i + 1) + lane], so PR(-1) = 0 sits at index 0). m is
  /// the lattice size across the bands: n = g2, m = g1 for column bands,
  /// n = g1, m = g2 for row bands. Both bands start at the same index s;
  /// the terms before it are below DBL_MIN and stored as 0. Stopping at
  /// end leaves every value up to it as a full band computes it.
  /// Per lane this is the recurrence of the class comment,
  ///   term(i+1) = term(i) * (((i+1+k) * (n-1-i)) /
  ///                          ((i+1) * ((n-1-i)+(m-2-k)))),
  /// with the same correctly rounded operations in the same order as a
  /// one-band loop, so neither lane's sums depend on the other band. Both
  /// products are integers below 2^42 (lattice axes are at most 2^20
  /// cells), so they are exact and a step rounds twice: its one division
  /// and its multiply.
  void prefix_pair(int n, int m, int end, const Band& lo, const Band& hi) {
    const int s = std::min(lo.first.index, end);
    prefix_.resize(2 * static_cast<std::size_t>(n + 1));
    terms_.resize(2 * static_cast<std::size_t>(n + 1));
    std::fill_n(prefix_.begin(), 2 * static_cast<std::size_t>(s + 1), 0.0);
    std::fill_n(terms_.begin(), 2 * static_cast<std::size_t>(s + 1), 0.0);
    if (s == end) return;
    double* prefix = prefix_.data() + 2;
    double* terms = terms_.data() + 2;
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
    for (int i = s; i < end - 1; ++i) {
      running += term;
      std::memcpy(prefix + 2 * static_cast<std::size_t>(i), &running,
                  sizeof running);
      std::memcpy(terms + 2 * static_cast<std::size_t>(i), &term,
                  sizeof term);
      term *= (a * c) / (b * d);
      a += one;
      b += one;
      c -= one;
      d -= one;
    }
    running += term;
    std::memcpy(prefix + 2 * static_cast<std::size_t>(end - 1), &running,
                sizeof running);
    std::memcpy(terms + 2 * static_cast<std::size_t>(end - 1), &term,
                sizeof term);
  }

  /// Per-region probabilities (kTheorem1 / kExactPerRegion, and the
  /// fallback of kBandedExact for degenerate shapes and nets no band pass
  /// fits): steps 3.1-3.3, one kernel call per IR-cell of the net's
  /// ncx x ncy region matrix in the canonical frame. Both kernels mirror
  /// a type II rect into exactly this type I rect themselves, so every
  /// value keeps its bits.
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
    const NetGridShape shape{net.shape.g1, net.shape.g2, false};
    for (int r = 0; r < ncy; ++r) {
      for (int cx = 0; cx < ncx; ++cx) {
        const GridRect rect{setup_.lx1()[cx], setup_.ly1()[r],
                            setup_.lx2()[cx], setup_.ly2()[r]};
        double& p = probs_[index(cx, r, ncx)];
        if (theorem1) {
          p = kernel_.region_probability(shape, rect);
        } else {
          p = exact.region_covers_pin(shape, rect)
                  ? 1.0
                  : exact.region_probability_exact(shape, rect);
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
  NetSetup setup_;  ///< the current net's window, lattice, spans and plan
  std::vector<double> probs_;
  std::vector<double> prefix_, terms_, entry_;
  std::vector<Band> bands_;  ///< band_pass()'s bands of u
  std::vector<Span> spans_;  ///< band_pass()'s table of v's spans
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
  // accumulates into a partial grid, and fold_blocks() adds the partials
  // into the flow in block order. Fixed blocking + ordered folding make
  // the result bit-identical for every FICON_THREADS setting.
  const int blocks = deterministic_block_count(nets.size());
  const CutLines& cl = lines;
  const IrregularGridParams& params = params_;
  const std::uint64_t fingerprint = scoring_fingerprint(params_);
  std::vector<double> flow(cells, 0.0);
  fold_blocks(blocks, flow, [&](int b, std::vector<double>& partial) {
    LogFactorialTable& table = scoring_table();
    ScoreMemo& memo = scoring_memo();
    memo.configure(params.score_cache_capacity, fingerprint);
    NetScorer scorer(table, params, memo, cl);
    const FlowGrid out{&partial, cl.nx(), cl.ny()};
    const BlockRange range = block_range(nets.size(), blocks, b);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      scorer.score(nets[i], chip, out);
    }
  });
  return IrregularCongestionMap(std::move(lines), std::move(flow));
}

}  // namespace ficon
