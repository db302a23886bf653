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
/// reduced in block order at the end of evaluate().
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
/// every matrix (see score()).
///
/// Banded exact evaluation (IrEvalStrategy::kBandedExact) works in the
/// canonical type I frame (source cell (0,0), sink (g1-1,g2-1); type II
/// nets are y-mirrored). Formula 3 for an IR-cell is
///   P = sum_x in [lx1..lx2] T(x, Y)  +  sum_y in [cy1..cy2] R(X, y)
/// with T/R the normalized top/right exit terms, Y the cell's top fine row
/// and X its right fine column. Rather than evaluating each cell's sums
/// independently, build per-band prefix sums of T (one pass of length g1
/// per IR row) and of R (one pass of length g2 per IR column), advancing
/// the terms with exact multiplicative recurrences:
///   T(x+1,Y)/T(x,Y) = (x+1+Y)/(x+1) * (g1-1-x)/((g1-1-x)+(g2-2-Y))
///   R(X,y+1)/R(X,y) = (X+1+y)/(y+1) * (g2-1-y)/((g1-2-X)+(g2-1-y))
/// so the only transcendental call is one exp() per band. Cells covering a
/// pin are exactly 1 (every route passes a pin cell), which doubles as the
/// paper's step 3.1.
///
/// The recurrences are the annealing hot loop: one band per covered IR
/// row plus one per covered IR column, each step two IEEE divisions, so
/// divider throughput bounds it. The bands of one pass share their length
/// (g1 for top exits, g2 for right exits), so prefix_pair() advances two
/// of them at once, one per lane of a vd2: a 2-lane division costs about
/// half as much per lane as a scalar one, while wider ones need target
/// flags and are barely cheaper per lane (docs/ARCHITECTURE.md). Each
/// lane runs the scalar operations in the scalar order, all correctly
/// rounded, so pairing changes speed only, never bits.
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

    // Fine lattice of the snapped routing range.
    on_grid.shape.g1 = std::max(
        1, static_cast<int>(
               std::ceil((sx2 - on_grid.sx1) / params_->grid_w - 1e-9)));
    on_grid.shape.g2 = std::max(
        1, static_cast<int>(
               std::ceil((sy2 - on_grid.sy1) / params_->grid_h - 1e-9)));
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
    // memo first. kBandedExact always recomputes and never looks up
    // (degenerate shapes fall back to fill_regions and stay memoized), so
    // a traced 1-thread ami49 anneal makes zero memo lookups, although a
    // banded recompute there costs about 15 us per scored net at 30 um
    // (one traced anneal on a Xeon vCPU). Hits and misses are
    // bit-identical, so the split is invisible in results.
    const bool banded = params_->strategy == IrEvalStrategy::kBandedExact &&
                        !on_grid.shape.degenerate();
    const std::vector<double>* probs = nullptr;
    if (memo_->enabled() && !banded) {
      build_key(on_grid);
      probs = memo_->find(key_);
    }
    if (probs == nullptr) {
      if (banded) {
        fill_banded(on_grid);
      } else {
        fill_regions(on_grid);
        if (memo_->enabled()) memo_->insert(key_, probs_);
      }
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

  /// Banded exact probabilities for all covered IR-cells of one net,
  /// pin-override and clamp applied (see the class comment for the math).
  void fill_banded(const NetOnGrid& net) {
    obs::count(obs::Counter::kIrRegionsBanded,
               static_cast<long long>(net.ncx()) * net.ncy());
    const int g1 = net.shape.g1;
    const int g2 = net.shape.g2;
    const bool t2 = net.shape.type2;
    const int ncx = net.ncx();
    const int ncy = net.ncy();
    probs_.assign(static_cast<std::size_t>(ncx) * static_cast<std::size_t>(ncy),
                  0.0);

    // Canonical frame: mirror the y-spans for type II nets.
    row_cy1_.resize(static_cast<std::size_t>(ncy));
    row_cy2_.resize(static_cast<std::size_t>(ncy));
    for (int cy = 0; cy < ncy; ++cy) {
      const int ly1 = ly1_[static_cast<std::size_t>(cy)];
      const int ly2 = ly2_[static_cast<std::size_t>(cy)];
      row_cy1_[static_cast<std::size_t>(cy)] = t2 ? g2 - 1 - ly2 : ly1;
      row_cy2_[static_cast<std::size_t>(cy)] = t2 ? g2 - 1 - ly1 : ly2;
    }

    const double log_total = table_->log_choose(g1 + g2 - 2, g2 - 1);

    // --- Top-exit pass: one prefix-sum row per covered IR row with a cell
    // above it; the band offset is the row's top fine row.
    bands_.clear();
    for (int cy = 0; cy < ncy; ++cy) {
      const int top = row_cy2_[static_cast<std::size_t>(cy)];
      if (top >= g2 - 1) continue;  // no cell above: no top exits
      bands_.push_back(Band{
          cy, top,
          std::exp(table_->log_choose(g1 - 1 + g2 - 2 - top, g2 - 2 - top) -
                   log_total)});
    }
    run_bands(g1, g2, [&](int row, std::size_t lane) {
      for (int cx = 0; cx < ncx; ++cx) {
        probs_[index(cx, row, ncx)] +=
            band_sum(lane, lx1_[static_cast<std::size_t>(cx)],
                     lx2_[static_cast<std::size_t>(cx)]);
      }
    });

    // --- Right-exit pass: one prefix-sum column per covered IR column with
    // a cell to its right; the band offset is the column's right fine
    // column.
    bands_.clear();
    for (int cx = 0; cx < ncx; ++cx) {
      const int right = lx2_[static_cast<std::size_t>(cx)];
      if (right >= g1 - 1) continue;  // no cell to the right
      bands_.push_back(Band{
          cx, right,
          std::exp(table_->log_choose(g1 - 2 - right + g2 - 1, g2 - 1) -
                   log_total)});
    }
    run_bands(g2, g1, [&](int column, std::size_t lane) {
      for (int cy = 0; cy < ncy; ++cy) {
        probs_[index(column, cy, ncx)] +=
            band_sum(lane, row_cy1_[static_cast<std::size_t>(cy)],
                     row_cy2_[static_cast<std::size_t>(cy)]);
      }
    });

    // --- Pin override + clamp.
    for (int cy = 0; cy < ncy; ++cy) {
      const int cy1 = row_cy1_[static_cast<std::size_t>(cy)];
      const int cy2 = row_cy2_[static_cast<std::size_t>(cy)];
      for (int cx = 0; cx < ncx; ++cx) {
        const int lx1 = lx1_[static_cast<std::size_t>(cx)];
        const int lx2 = lx2_[static_cast<std::size_t>(cx)];
        double& p = probs_[index(cx, cy, ncx)];
        const bool covers_source = lx1 == 0 && cy1 == 0;
        const bool covers_sink = lx2 == g1 - 1 && cy2 == g2 - 1;
        if (covers_source || covers_sink) p = 1.0;
        p = std::clamp(p, 0.0, 1.0);
      }
    }
  }

  /// One band of a banded pass: the covered IR row (top pass) or column
  /// (right pass) it serves, its fine-lattice offset k, and its first exit
  /// term.
  struct Band {
    int cell;
    int k;
    double start;
  };

  /// Runs the bands_ of one pass through prefix_pair() two at a time and
  /// hands each band's lane to accumulate(cell, lane). An odd count copies
  /// the last band into the spare lane, whose output is dropped.
  template <typename Accumulate>
  void run_bands(int n, int m, Accumulate&& accumulate) {
    const std::size_t count = bands_.size();
    if (count % 2 != 0) bands_.push_back(bands_.back());
    for (std::size_t j = 0; j < count; j += 2) {
      prefix_pair(n, m, bands_[j], bands_[j + 1]);
      accumulate(bands_[j].cell, std::size_t{0});
      if (j + 1 < count) accumulate(bands_[j + 1].cell, std::size_t{1});
    }
  }

  /// Exit-term prefix sums of two bands of length n, one per lane, into
  /// prefix_ (lane-interleaved: prefix_[2 * i + lane]). m is the lattice
  /// size across the bands: n = g1, m = g2 in the top-exit pass and
  /// n = g2, m = g1 in the right-exit pass. Per lane this is the
  /// recurrence of the class comment,
  ///   term(i+1) = term(i) * ((i+1+k)/(i+1) * ((n-1-i)/((n-1-i)+(m-2-k)))),
  /// with the same correctly rounded operations in the same order as a
  /// one-band loop, so neither lane's sums depend on the other band.
  void prefix_pair(int n, int m, const Band& lo, const Band& hi) {
    prefix_.resize(2 * static_cast<std::size_t>(n));
    vd2 term = {lo.start, hi.start};
    vd2 running = {0.0, 0.0};
    // The four factors, stepped by 1 from their i = 0 values. They are
    // integers far below 2^53, so every step is exact and each factor
    // equals the int expression converted to double.
    vd2 a = {static_cast<double>(lo.k + 1), static_cast<double>(hi.k + 1)};
    vd2 b = {1.0, 1.0};
    vd2 c = {static_cast<double>(n - 1), static_cast<double>(n - 1)};
    vd2 d = {static_cast<double>((n - 1) + (m - 2 - lo.k)),
             static_cast<double>((n - 1) + (m - 2 - hi.k))};
    const vd2 one = {1.0, 1.0};
    for (int i = 0; i < n - 1; ++i) {
      running += term;
      std::memcpy(prefix_.data() + 2 * static_cast<std::size_t>(i), &running,
                  sizeof running);
      term *= (a / b) * (c / d);
      a += one;
      b += one;
      c -= one;
      d -= one;
    }
    running += term;
    std::memcpy(prefix_.data() + 2 * static_cast<std::size_t>(n - 1),
                &running, sizeof running);
  }

  /// Sum of one lane's exit terms over the fine span [lo, hi].
  double band_sum(std::size_t lane, int lo, int hi) const {
    return prefix_[2 * static_cast<std::size_t>(hi) + lane] -
           (lo > 0 ? prefix_[2 * static_cast<std::size_t>(lo - 1) + lane]
                   : 0.0);
  }

  /// Per-region probabilities (kTheorem1 / kExactPerRegion, and the
  /// degenerate-shape fallback of kBandedExact): steps 3.1-3.3, one
  /// kernel call per IR-cell of the net's ncx x ncy region matrix.
  void fill_regions(const NetOnGrid& net) {
    const int ncx = net.ncx();
    const int ncy = net.ncy();
    const bool theorem1 = params_->strategy == IrEvalStrategy::kTheorem1;
    // Regions computed (memo hits skip this function entirely; they show
    // up as score_memo hits instead). The banded strategy's degenerate
    // shapes land here too and count as exact regions.
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
  std::vector<double> prefix_;
  std::vector<Band> bands_;
  std::vector<int> lx1_, lx2_, ly1_, ly2_;
  std::vector<int> row_cy1_, row_cy2_;
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
