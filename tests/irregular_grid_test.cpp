// Irregular-Grid congestion model: end-to-end evaluation semantics.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <sstream>

#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "congestion/fixed_grid.hpp"
#include "congestion/irregular_grid.hpp"
#include "congestion/net_setup.hpp"
#include "floorplan/slicing.hpp"
#include "gen/scale.hpp"
#include "obs/trace.hpp"
#include "route/two_pin.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace ficon {
namespace {

const Rect kChip{0, 0, 1000, 1000};

IrregularGridParams fine_params() {
  IrregularGridParams p;
  p.grid_w = 10;
  p.grid_h = 10;
  return p;
}

TEST(IrregularGrid, SingleNetDecomposition) {
  // One net, one routing range: cut lines = range boundaries + chip
  // boundary -> 3x3 IR-cells, and only the central one (the range itself)
  // accumulates probability 1... no: the range spans exactly one IR-cell in
  // each direction between its own cut lines, crossed with probability 1?
  // The range covers several IR-cells only if other nets cut through it.
  // With a single net the range is exactly one IR-cell, covering both pins
  // -> probability 1.
  const IrregularGridModel model(fine_params());
  const std::vector<TwoPinNet> nets{{Point{300, 300}, Point{700, 600}, 0}};
  const IrregularCongestionMap map = model.evaluate(nets, kChip);
  EXPECT_EQ(map.nx(), 3);
  EXPECT_EQ(map.ny(), 3);
  EXPECT_NEAR(map.flow(1, 1), 1.0, 1e-12);  // the routing range
  EXPECT_EQ(map.flow(0, 0), 0.0);
  EXPECT_EQ(map.flow(2, 2), 0.0);
  EXPECT_NEAR(map.density(1, 1), 1.0 / (400.0 * 300.0), 1e-15);
}

TEST(IrregularGrid, TwoOverlappingNetsSubdivide) {
  // Two crossing routing ranges: each range is divided by the other's cut
  // lines; flows must stay within [0, 1] per net per cell and the overlap
  // cell must see contributions from both nets.
  const IrregularGridModel model(fine_params());
  const std::vector<TwoPinNet> nets{
      {Point{100, 400}, Point{900, 500}, 0},   // wide horizontal band
      {Point{450, 100}, Point{550, 900}, 1},   // tall vertical band
  };
  const IrregularCongestionMap map = model.evaluate(nets, kChip);
  // Cut lines: x = {0,100,450,550,900,1000}, y = {0,100,400,500,900,1000}.
  EXPECT_EQ(map.nx(), 5);
  EXPECT_EQ(map.ny(), 5);
  // The crossing cell [450..550] x [400..500] is covered by both nets:
  // band nets pass through their full cross-section with probability 1.
  EXPECT_NEAR(map.flow(2, 2), 2.0, 1e-9);
  // A cell on the horizontal band only.
  EXPECT_NEAR(map.flow(1, 2), 1.0, 1e-9);
  // A corner cell touched by neither.
  EXPECT_EQ(map.flow(0, 0), 0.0);
}

TEST(IrregularGrid, FlowBoundedByNetCount) {
  Rng rng(51);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 40; ++i) {
    nets.push_back(TwoPinNet{Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             i});
  }
  const IrregularGridModel model;
  const IrregularCongestionMap map = model.evaluate(nets, kChip);
  for (int iy = 0; iy < map.ny(); ++iy) {
    for (int ix = 0; ix < map.nx(); ++ix) {
      EXPECT_GE(map.flow(ix, iy), 0.0);
      EXPECT_LE(map.flow(ix, iy), static_cast<double>(nets.size()) + 1e-9);
    }
  }
}

TEST(IrregularGrid, ExactAndApproximateModesAgree) {
  Rng rng(52);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 25; ++i) {
    nets.push_back(TwoPinNet{Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             i});
  }
  IrregularGridParams approx_params = fine_params();
  approx_params.strategy = IrEvalStrategy::kTheorem1;
  IrregularGridParams exact_params = fine_params();
  exact_params.strategy = IrEvalStrategy::kExactPerRegion;
  const IrregularGridModel approx_model(approx_params);
  const IrregularGridModel exact_model(exact_params);
  const IrregularCongestionMap a = approx_model.evaluate(nets, kChip);
  const IrregularCongestionMap e = exact_model.evaluate(nets, kChip);
  ASSERT_EQ(a.nx(), e.nx());
  ASSERT_EQ(a.ny(), e.ny());
  for (int iy = 0; iy < a.ny(); ++iy) {
    for (int ix = 0; ix < a.nx(); ++ix) {
      // Pin-covering cells differ by design (1 vs the exact 1 — identical),
      // interior cells only by the Theorem 1 error.
      EXPECT_NEAR(a.flow(ix, iy), e.flow(ix, iy), 0.12)
          << "cell " << ix << ',' << iy;
    }
  }
  EXPECT_NEAR(a.top_fraction_cost(0.10), e.top_fraction_cost(0.10),
              0.10 * std::max(1e-9, e.top_fraction_cost(0.10)) + 1e-7);
}

TEST(IrregularGrid, BandedMatchesPerRegionExactly) {
  // The banded prefix-sum fast path must reproduce the per-region exact
  // evaluation to floating-point accuracy on every IR-cell, across random
  // workloads containing both net types and degenerate nets.
  Rng rng(56);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<TwoPinNet> nets;
    for (int i = 0; i < 30; ++i) {
      Point a{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      Point b{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      if (i % 7 == 0) b.x = a.x;  // sprinkle degenerate nets
      if (i % 11 == 0) b.y = a.y;
      nets.push_back(TwoPinNet{a, b, i});
    }
    IrregularGridParams banded_params = fine_params();
    banded_params.strategy = IrEvalStrategy::kBandedExact;
    IrregularGridParams exact_params = fine_params();
    exact_params.strategy = IrEvalStrategy::kExactPerRegion;
    const auto banded = IrregularGridModel(banded_params).evaluate(nets, kChip);
    const auto exact = IrregularGridModel(exact_params).evaluate(nets, kChip);
    ASSERT_EQ(banded.nx(), exact.nx());
    ASSERT_EQ(banded.ny(), exact.ny());
    for (int iy = 0; iy < banded.ny(); ++iy) {
      for (int ix = 0; ix < banded.nx(); ++ix) {
        ASSERT_NEAR(banded.flow(ix, iy), exact.flow(ix, iy), 1e-9)
            << "trial " << trial << " cell " << ix << ',' << iy;
      }
    }
  }
}

/// Largest |banded - kExactPerRegion| over every IR-cell of `nets`.
double banded_error(const std::vector<TwoPinNet>& nets, const Rect& chip,
                    IrregularGridParams params) {
  params.strategy = IrEvalStrategy::kBandedExact;
  const auto banded = IrregularGridModel(params).evaluate(nets, chip);
  params.strategy = IrEvalStrategy::kExactPerRegion;
  const auto exact = IrregularGridModel(params).evaluate(nets, chip);
  EXPECT_EQ(banded.nx(), exact.nx());
  EXPECT_EQ(banded.ny(), exact.ny());
  double worst = 0.0;
  for (int iy = 0; iy < banded.ny(); ++iy) {
    for (int ix = 0; ix < banded.nx(); ++ix) {
      worst = std::max(worst,
                       std::abs(banded.flow(ix, iy) - exact.flow(ix, iy)));
    }
  }
  return worst;
}

/// One measured net from `a` to `b` whose routing range is cut at `xs` and
/// `ys` by point nets at y = `beyond` and x = `beyond`, past its top and
/// right edges, so that nothing but the measured net adds flow inside its
/// range. The measured net is last.
std::vector<TwoPinNet> cut_window(Point a, Point b,
                                  const std::vector<double>& xs,
                                  const std::vector<double>& ys,
                                  double beyond) {
  std::vector<TwoPinNet> nets;
  for (const double x : xs) {
    nets.push_back(TwoPinNet{Point{x, beyond}, Point{x, beyond},
                             static_cast<int>(nets.size())});
  }
  for (const double y : ys) {
    nets.push_back(TwoPinNet{Point{beyond, y}, Point{beyond, y},
                             static_cast<int>(nets.size())});
  }
  nets.push_back(TwoPinNet{a, b, static_cast<int>(nets.size())});
  return nets;
}

/// Checks a cut_window() on `chip`: banded within 1e-10 of per-region
/// exact on every IR-cell, and exactly 1 on both IR-cells that cover the
/// measured net's pins.
void check_window(const std::vector<TwoPinNet>& nets, const Rect& chip,
                  const IrregularGridParams& params) {
  EXPECT_LE(banded_error(nets, chip, params), 1e-10);
  const auto map = IrregularGridModel(params).evaluate(nets, chip);
  const TwoPinNet& net = nets.back();
  const Rect range = net.routing_range();
  const CutLines& cl = map.lines();
  for (const Point& pin : {net.a, net.b}) {
    const int ix = pin.x == range.xlo ? cl.nearest_x(range.xlo)
                                      : cl.nearest_x(range.xhi) - 1;
    const int iy = pin.y == range.ylo ? cl.nearest_y(range.ylo)
                                      : cl.nearest_y(range.yhi) - 1;
    EXPECT_EQ(map.flow(ix, iy), 1.0) << "pin cell " << ix << ',' << iy;
  }
}

TEST(IrregularGrid, BandedMatchesPerRegionAcrossPitchesAndMergeFactors) {
  // The one-pass banded scorer against per-region exact Formula 3 over
  // merge factors and fine pitches. Windows cut at random and at lattice
  // positions cover both band-joining cases (a shared fine column, and
  // lx1 = previous lx2 + 1), mixed within a pair of bands both ways round,
  // single columns and rows, and at merge factor 0 a net whose last IR
  // column and row sit inside the last fine column, which no band pass
  // fits and which is scored per region instead. Two more inputs run on
  // their own chips: a net long enough for its bands' first terms to
  // underflow, and a generated tier.
  Rng rng(59);
  for (const double merge : {2.0, 1.0, 0.5, 0.0}) {
    for (const double pitch : {30.0, 10.0, 3.0, 1.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "merge " << merge << " pitch " << pitch);
      IrregularGridParams params;
      params.grid_w = params.grid_h = pitch;
      params.merge_factor = merge;

      // Random nets of both types cutting each other's ranges.
      std::vector<TwoPinNet> nets;
      for (int i = 0; i < 16; ++i) {
        nets.push_back(
            TwoPinNet{Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                      Point{rng.uniform(0, 1000), rng.uniform(0, 1000)}, i});
      }
      EXPECT_LE(banded_error(nets, kChip, params), 1e-10);

      const auto random_cuts = [&](double lo, double hi, int count) {
        std::vector<double> cuts;
        for (int i = 0; i < count; ++i) cuts.push_back(rng.uniform(lo, hi));
        return cuts;
      };
      for (const bool type2 : {false, true}) {
        const double x0 = rng.uniform(150, 300);
        const double x1 = rng.uniform(600, 800);
        const double y0 = rng.uniform(150, 300);
        const double y1 = rng.uniform(600, 800);
        const Point a{x0, type2 ? y1 : y0};
        const Point b{x1, type2 ? y0 : y1};
        // Point nets that cut the range unevenly.
        check_window(cut_window(a, b, random_cuts(x0, x1, 4),
                                random_cuts(y0, y1, 3), 950),
                     kChip, params);
        // ncx = 1 and ncy = 1.
        check_window(cut_window(a, b, {}, random_cuts(y0, y1, 4), 950),
                     kChip, params);
        check_window(cut_window(a, b, random_cuts(x0, x1, 4), {}, 950),
                     kChip, params);
        // Range and cuts on the fine lattice, 4 pitches apart at least,
        // so that adjacent IR-cells meet at lx1 = previous lx2 + 1.
        const double s0 = 200;
        const double s1 = std::min(800.0, s0 + 90 * pitch);
        std::vector<double> lattice_cuts;
        for (double c = s0 + 4 * pitch; c < s1 - 4 * pitch;
             c += pitch * (4 + std::floor(rng.uniform(0, 12)))) {
          lattice_cuts.push_back(c);
        }
        check_window(cut_window(Point{s0, type2 ? s1 : s0},
                                Point{s1, type2 ? s0 : s1}, lattice_cuts,
                                lattice_cuts, 950),
                     kChip, params);
        // Cuts on, off, off and on the lattice (the range spans at least
        // 20 pitches): paired bands differ in whether they share their
        // boundary fine cell, both ways round.
        std::vector<double> mixed_cuts;
        for (const double at : {4.0, 8.5, 13.5, 17.0}) {
          mixed_cuts.push_back(s0 + at * pitch);
        }
        check_window(cut_window(Point{s0, type2 ? s1 : s0},
                                Point{s1, type2 ? s0 : s1}, mixed_cuts,
                                mixed_cuts, 950),
                     kChip, params);
        // Last IR column and row inside the last fine column and row.
        const double tail = 0.3 * pitch;
        check_window(cut_window(a, b, {x0 + 0.5 * (x1 - x0), x1 - tail},
                                {y0 + 0.5 * (y1 - y0), y1 - tail}, 950),
                     kChip, params);
      }
    }
  }

  // A 1500 x 1500 fine lattice at 1 um, cut into 3 x 3 IR-cells. A band's
  // first exit term, C(.)/C(2998, 1499), underflows to 0, and starting
  // there used to zero the whole band: one cell read 0 where per-region
  // exact gives 1. Bands now start at their first normal term.
  IrregularGridParams micron;
  micron.grid_w = micron.grid_h = 1.0;
  for (const bool type2 : {false, true}) {
    SCOPED_TRACE(type2 ? "1500 um net, type II" : "1500 um net, type I");
    check_window(cut_window(Point{100, type2 ? 1600.0 : 100.0},
                            Point{1600, type2 ? 100.0 : 1600.0}, {500, 1050},
                            {700, 1200}, 1800),
                 Rect{0, 0, 2000, 2000}, micron);
  }

  // A generated tier: n100's initial slicing floorplan at its 30 um pitch.
  const Netlist netlist = make_scale_netlist(parse_scale_tier("n100"), 7);
  const SlicingResult packed = SlicingPacker(netlist).pack(
      PolishExpression::initial(static_cast<int>(netlist.module_count())));
  EXPECT_LE(banded_error(decompose_to_two_pin(netlist, packed.placement),
                         packed.placement.chip, IrregularGridParams{}),
            1e-10);
}

TEST(IrregularGrid, BandedFallsBackPerRegionOnlyWhenNoBandPassFits) {
  // At merge factor 0 and 1 um, two windows no band pass fits, so they
  // are scored per region (counted as exact regions) and still match:
  // the tail cuts of the sweep above put an IR-cell inside the lattice's
  // last fine cell on both axes, and two cuts 3e-10 um apart, just below
  // a fine-lattice line, leave a sliver column that covers no fine cell
  // (per-region exact gives it 0). At merge factor 1 those cuts merge
  // away and both nets are banded.
  const std::vector<TwoPinNet> tail = cut_window(
      Point{200, 200}, Point{700, 650}, {450, 699.7}, {400, 649.7}, 950);
  const std::vector<TwoPinNet> sliver = cut_window(
      Point{200, 200}, Point{700, 650}, {450 - 5e-10, 450 - 2e-10}, {400},
      950);
  struct Case {
    const std::vector<TwoPinNet>* nets;
    double merge;
    long long exact_regions, banded_regions;
  };
  const Case cases[] = {{&tail, 0.0, 9, 0},
                        {&tail, 1.0, 0, 4},
                        {&sliver, 0.0, 6, 0},
                        {&sliver, 1.0, 0, 4}};
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << (c.nets == &tail ? "tail" : "sliver") << " merge "
                 << c.merge);
    IrregularGridParams params;
    params.grid_w = params.grid_h = 1.0;
    params.merge_factor = c.merge;
    obs::set_trace_enabled(true);
    obs::reset();
    IrregularGridModel(params).evaluate(*c.nets, kChip);
    const obs::TraceReport report = obs::capture();
    obs::set_trace_enabled(false);
    EXPECT_EQ(report.counter(obs::Counter::kIrRegionsExact),
              c.exact_regions);
    EXPECT_EQ(report.counter(obs::Counter::kIrRegionsBanded),
              c.banded_regions);
    check_window(*c.nets, kChip, params);
  }
}

/// FNV-1a over the map's shape and the IEEE bit pattern of every IR-cell
/// flow, row-major: equal hashes mean bit-identical maps.
std::uint64_t flow_hash(const IrregularCongestionMap& map) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(map.nx()));
  mix(static_cast<std::uint64_t>(map.ny()));
  for (int iy = 0; iy < map.ny(); ++iy) {
    for (int ix = 0; ix < map.nx(); ++ix) {
      mix(std::bit_cast<std::uint64_t>(map.flow(ix, iy)));
    }
  }
  return h;
}

/// A cut_window() whose cuts split the measured net's range at uneven
/// spacings into exactly ncx x ncy IR-cells. A type I net runs from lower
/// left to upper right, a type II net from upper left to lower right. At
/// 10 um the range spans g1 = x extent / 10 by g2 = y extent / 10 fine
/// cells, and the banded scorer runs ncx - 1 column bands of g2 steps or
/// ncy - 1 row bands of g1 steps, whichever is fewer.
std::vector<TwoPinNet> windowed_net(int ncx, int ncy, bool type2) {
  constexpr double kSpans[] = {90, 150, 120, 170, 110};  // um
  const double x0 = 100;
  const double y0 = 130;
  double x1 = x0;
  double y1 = y0;
  std::vector<double> xs, ys;
  for (int i = 0; i < ncx; ++i) {
    if (i > 0) xs.push_back(x1);
    x1 += kSpans[i];
  }
  for (int j = 0; j < ncy; ++j) {
    if (j > 0) ys.push_back(y1);
    y1 += kSpans[4 - j];
  }
  return cut_window(Point{x0, type2 ? y1 : y0}, Point{x1, type2 ? y0 : y1},
                    xs, ys, 900);
}

TEST(IrregularGrid, BandedFlowsArePinnedBitForBit) {
  // The banded scorer pairs bands into vector lanes; each lane must give
  // the bits of the one-band-at-a-time recurrence. The expected hashes
  // were recorded from a build that ran every band alone, beside a copy
  // of itself; the paired scorer gives the same hashes, so these pins
  // guard lane pairing as well as the flows' last bits. Each case also
  // pins ir_band_steps: the recurrence steps a band runs, from its start
  // index (0 here) to the end of the last but one span across it, the
  // last index the finish reads, once per band and never for a spare
  // lane. The point nets that cut the window are degenerate and run none.
  struct Case {
    int ncx, ncy;
    bool type2;
    long long steps;
    std::uint64_t expected;
  };
  // Lattice g1 x g2 and bands per net: see windowed_net().
  const Case cases[] = {
      // 36 x 40: 2 row bands of 36 that stop at 24, one pair.
      {3, 3, false, 48, 0xf35368ef6a58e992ull},
      // 53 x 55: 3 row bands of 53 that stop at 36, a pair and one +
      // spare lane.
      {4, 4, false, 108, 0x52046c8c1770b8e8ull},
      // 64 x 28: 1 row band of 64 that stops at 53 + spare lane.
      {5, 2, false, 53, 0x1c35377176933043ull},
      // 36 x 64: 2 column bands of 64 that stop at 55, one pair.
      {3, 5, false, 110, 0xe57482d567bf191eull},
      // Type II, 24 x 64: 1 column band of 64 that stops at 53.
      {2, 5, true, 53, 0x01df70f548fdf762ull},
      // Type II, 53 x 64: 3 column bands of 64 that stop at 53.
      {4, 5, true, 159, 0xd8cf57821e686a6dull},
      // Type II, 53 x 40: 2 row bands of 53 that stop at 36.
      {4, 3, true, 72, 0x524bc866435dbf95ull},
      // Type II, 36 x 55: 3 row bands of 36 that stop at 24.
      {3, 4, true, 72, 0x9e252f58dad28d29ull},
      // ncx == 1: one column, no band.
      {1, 4, false, 0, 0xda57a9d36b867fc1ull},
      {1, 5, true, 0, 0x84386c2a69cbe91dull},
      // ncy == 1: one row, no band.
      {4, 1, false, 0, 0x66ce279b0c7b7981ull},
      {5, 1, true, 0, 0x98a2be75b68b799dull},
      // Pin cell only: no band.
      {1, 1, false, 0, 0x48e411c5cec748daull},
  };
  const IrregularGridModel model(fine_params());
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.ncx << 'x' << c.ncy
                                      << (c.type2 ? " type II" : " type I"));
    obs::set_trace_enabled(true);
    obs::reset();
    const IrregularCongestionMap map =
        model.evaluate(windowed_net(c.ncx, c.ncy, c.type2), kChip);
    const obs::TraceReport report = obs::capture();
    obs::set_trace_enabled(false);
    EXPECT_EQ(flow_hash(map), c.expected)
        << "actual 0x" << std::hex << flow_hash(map);
    EXPECT_EQ(report.counter(obs::Counter::kIrBandSteps), c.steps);
  }

  // Random nets of both types, degenerate ones included.
  Rng rng(58);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 60; ++i) {
    Point a{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    Point b{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    if (i % 13 == 0) b.x = a.x;
    nets.push_back(TwoPinNet{a, b, i});
  }
  const std::uint64_t random_hash = flow_hash(model.evaluate(nets, kChip));
  EXPECT_EQ(random_hash, 0xf2879450792e4ea8ull)
      << "actual 0x" << std::hex << random_hash;
}

TEST(IrregularGrid, BandedFlowsArePinnedOnAmi49AtEveryThreadCount) {
  // ami49 at the default 30 um pitch after seeded moves, scored at 1 and 8
  // threads; hashes recorded from a build that ran every band alone, and
  // equal to the paired scorer's, so they guard lane pairing too.
  const Netlist netlist = make_mcnc("ami49");
  const SlicingPacker packer(netlist);
  Rng rng(61);
  PolishExpression expr =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  const IrregularGridModel model;
  const std::uint64_t expected[] = {
      0x78dc36cf13bd7662ull, 0xbcd881330ae860e8ull, 0xe4e609134f847364ull};
  for (const std::uint64_t want : expected) {
    for (int k = 0; k < 40; ++k) expr.random_move(rng);
    const SlicingResult packed = packer.pack(expr);
    const auto nets = decompose_to_two_pin(netlist, packed.placement);
    for (const int threads : {1, 8}) {
      ThreadPool::set_global_threads(threads);
      const std::uint64_t got =
          flow_hash(model.evaluate(nets, packed.placement.chip));
      EXPECT_EQ(got, want) << "threads=" << threads << " actual 0x"
                           << std::hex << got;
    }
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

// The per-net set-up as it stood before NetSetup, kept as the reference
// NetSetup must reproduce bit for bit: std::lower_bound snaps,
// std::floor/std::ceil spans, a canonical copy of the rows and separate
// covers/chains scans.
namespace reference {

int nearest(const std::vector<double>& lines, double v) {
  const auto it = std::lower_bound(lines.begin(), lines.end(), v);
  if (it == lines.begin()) return 0;
  if (it == lines.end()) return static_cast<int>(lines.size()) - 1;
  const auto prev = it - 1;
  const bool take_prev = (v - *prev) <= (*it - v);
  return static_cast<int>((take_prev ? prev : it) - lines.begin());
}

void local_spans(const std::vector<double>& lines, int first, int n,
                 double origin, double pitch, int g, std::vector<int>& lo,
                 std::vector<int>& hi) {
  lo.resize(static_cast<std::size_t>(n));
  hi.resize(static_cast<std::size_t>(n));
  const double* line = lines.data() + first;
  double raw = (line[0] - origin) / pitch;
  for (int c = 0; c < n; ++c) {
    lo[static_cast<std::size_t>(c)] =
        std::clamp(static_cast<int>(std::floor(raw + 1e-9)), 0, g - 1);
    raw = (line[c + 1] - origin) / pitch;
    hi[static_cast<std::size_t>(c)] =
        std::clamp(static_cast<int>(std::ceil(raw - 1e-9)) - 1, 0, g - 1);
  }
}

bool covers(const std::vector<int>& lo, const std::vector<int>& hi) {
  for (std::size_t b = 0; b < lo.size(); ++b) {
    if (lo[b] > hi[b]) return false;
  }
  return true;
}

bool chains(const std::vector<int>& lo, const std::vector<int>& hi, int g) {
  if (lo.front() != 0 || hi.back() != g - 1) return false;
  for (std::size_t b = 1; b < lo.size(); ++b) {
    const int step = lo[b] - hi[b - 1];
    if (hi[b - 1] == g - 1 || step < 0 || step > 1) return false;
  }
  return true;
}

enum class Outcome { kOutside, kDegenerate, kLaidOut };

struct Setup {
  int ix1 = 0, ix2 = 0, iy1 = 0, iy2 = 0;
  NetGridShape shape;
  std::vector<int> lx1, lx2, ly1, ly2, cy1, cy2;
  BandAxis axis = BandAxis::kNone;

  Outcome run(const TwoPinNet& net, const CutLines& cl, const Rect& chip,
              double pitch_x, double pitch_y) {
    const Rect range = net.routing_range().intersection(chip);
    if (!range.valid()) return Outcome::kOutside;
    ix1 = nearest(cl.xs(), range.xlo);
    ix2 = nearest(cl.xs(), range.xhi);
    iy1 = nearest(cl.ys(), range.ylo);
    iy2 = nearest(cl.ys(), range.yhi);
    if (ix1 == ix2 || iy1 == iy2) return Outcome::kDegenerate;
    const double sx1 = cl.xs()[static_cast<std::size_t>(ix1)];
    const double sy1 = cl.ys()[static_cast<std::size_t>(iy1)];
    const double sx2 = cl.xs()[static_cast<std::size_t>(ix2)];
    const double sy2 = cl.ys()[static_cast<std::size_t>(iy2)];
    shape.g1 = lattice_cells(sx2 - sx1, pitch_x);
    shape.g2 = lattice_cells(sy2 - sy1, pitch_y);
    const Point& left = net.a.x <= net.b.x ? net.a : net.b;
    const Point& right = net.a.x <= net.b.x ? net.b : net.a;
    shape.type2 = !shape.degenerate() && left.y > right.y;
    const int ncx = ix2 - ix1;
    const int ncy = iy2 - iy1;
    local_spans(cl.xs(), ix1, ncx, sx1, pitch_x, shape.g1, lx1, lx2);
    local_spans(cl.ys(), iy1, ncy, sy1, pitch_y, shape.g2, ly1, ly2);
    // The canonical rows: a type II net's rows mirrored, top-down.
    const bool t2 = shape.type2;
    cy1.resize(static_cast<std::size_t>(ncy));
    cy2.resize(static_cast<std::size_t>(ncy));
    for (int r = 0; r < ncy; ++r) {
      const auto cy = static_cast<std::size_t>(t2 ? ncy - 1 - r : r);
      cy1[static_cast<std::size_t>(r)] = t2 ? shape.g2 - 1 - ly2[cy] : ly1[cy];
      cy2[static_cast<std::size_t>(r)] = t2 ? shape.g2 - 1 - ly1[cy] : ly2[cy];
    }
    axis = BandAxis::kNone;
    if (shape.degenerate()) return Outcome::kLaidOut;
    // The band plan: covers, chains, fewer band steps.
    if (!covers(lx1, lx2) || !covers(cy1, cy2)) return Outcome::kLaidOut;
    const bool by_columns = chains(lx1, lx2, shape.g1);
    const bool by_rows = chains(cy1, cy2, shape.g2);
    const long long column_steps = static_cast<long long>(ncx - 1) * shape.g2;
    const long long row_steps = static_cast<long long>(ncy - 1) * shape.g1;
    if (by_rows && (!by_columns || row_steps < column_steps)) {
      axis = BandAxis::kRows;
    } else if (by_columns) {
      axis = BandAxis::kColumns;
    }
    return Outcome::kLaidOut;
  }
};

}  // namespace reference

/// What compare_setups() saw, to check that each case was exercised.
struct SetupTally {
  long long outside = 0, degenerate = 0, per_region = 0, columns = 0,
            rows = 0, type2_banded = 0, steps_tied = 0, one_axis_chains = 0;
};

/// Runs NetSetup and the reference set-up on every net and expects equal
/// windows, lattice sizes, spans (the rows in the canonical frame) and
/// band axes.
SetupTally compare_setups(const std::vector<TwoPinNet>& nets,
                          const CutLines& cl, const Rect& chip,
                          double pitch_x, double pitch_y) {
  SetupTally tally;
  NetSetup setup(cl);
  reference::Setup want;
  // The net, for failure messages only (gtest streams them lazily).
  const auto where = [](const TwoPinNet& net) {
    std::ostringstream os;
    os << std::setprecision(17) << "net (" << net.a.x << ", " << net.a.y
       << ") - (" << net.b.x << ", " << net.b.y << ")";
    return os.str();
  };
  for (const TwoPinNet& net : nets) {
    const reference::Outcome outcome =
        want.run(net, cl, chip, pitch_x, pitch_y);
    const bool inside = setup.snap(net, chip);
    EXPECT_EQ(inside, outcome != reference::Outcome::kOutside) << where(net);
    if (!inside) {
      ++tally.outside;
      continue;
    }
    const NetOnGrid& got = setup.net();
    EXPECT_TRUE(got.ix1 == want.ix1 && got.ix2 == want.ix2 &&
                got.iy1 == want.iy1 && got.iy2 == want.iy2)
        << where(net) << ": window " << got.ix1 << ".." << got.ix2 << " x "
        << got.iy1 << ".." << got.iy2 << ", reference " << want.ix1 << ".."
        << want.ix2 << " x " << want.iy1 << ".." << want.iy2;
    EXPECT_EQ(setup.degenerate_window(),
              outcome == reference::Outcome::kDegenerate)
        << where(net);
    if (setup.degenerate_window()) {
      ++tally.degenerate;
      continue;
    }
    setup.lay_out(net, pitch_x, pitch_y);
    EXPECT_EQ(got.shape, want.shape) << where(net);
    const auto same = [](const std::vector<int>& ref, const int* spans) {
      return std::equal(ref.begin(), ref.end(), spans);
    };
    EXPECT_TRUE(same(want.lx1, setup.lx1()) && same(want.lx2, setup.lx2()))
        << where(net);
    EXPECT_TRUE(same(want.cy1, setup.ly1()) && same(want.cy2, setup.ly2()))
        << where(net);
    EXPECT_EQ(setup.band_axis(), want.axis) << where(net);
    if (want.axis == BandAxis::kNone) {
      ++tally.per_region;
      continue;
    }
    ++(want.axis == BandAxis::kRows ? tally.rows : tally.columns);
    if (want.shape.type2) ++tally.type2_banded;
    const int g1 = want.shape.g1;
    const int g2 = want.shape.g2;
    const long long column_steps =
        static_cast<long long>(got.ncx() - 1) * g2;
    const long long row_steps = static_cast<long long>(got.ncy() - 1) * g1;
    if (column_steps == row_steps) ++tally.steps_tied;
    if (reference::chains(want.lx1, want.lx2, g1) !=
        reference::chains(want.cy1, want.cy2, g2)) {
      ++tally.one_axis_chains;
    }
  }
  return tally;
}

/// Coordinates a net endpoint can take on an axis of `lines`: every line,
/// every midpoint between neighbours (the snap's tie), points a hair to
/// either side of each line, and points below the first and above the
/// last line.
std::vector<double> probe_coordinates(const std::vector<double>& lines) {
  std::vector<double> at;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    at.push_back(lines[i]);
    at.push_back(std::nextafter(lines[i], -1e300));
    at.push_back(std::nextafter(lines[i], 1e300));
    if (i + 1 < lines.size()) at.push_back(0.5 * (lines[i] + lines[i + 1]));
  }
  at.push_back(lines.front() - 37.0);
  at.push_back(lines.back() + 37.0);
  return at;
}

/// Nets between every pair of probe points on a sparse grid of them, in
/// both diagonal orientations.
std::vector<TwoPinNet> probe_nets(const std::vector<double>& xs,
                                  const std::vector<double>& ys, int stride) {
  const std::vector<double> px = probe_coordinates(xs);
  const std::vector<double> py = probe_coordinates(ys);
  std::vector<TwoPinNet> nets;
  for (std::size_t a = 0; a < px.size(); a += static_cast<std::size_t>(stride)) {
    for (std::size_t b = a; b < px.size(); b += 3) {
      for (std::size_t c = 0; c < py.size(); c += static_cast<std::size_t>(stride)) {
        for (std::size_t d = c; d < py.size(); d += 5) {
          nets.push_back(TwoPinNet{Point{px[a], py[c]}, Point{px[b], py[d]},
                                   static_cast<int>(nets.size())});
          nets.push_back(TwoPinNet{Point{px[a], py[d]}, Point{px[b], py[c]},
                                   static_cast<int>(nets.size())});
        }
      }
    }
  }
  return nets;
}

TEST(IrregularGrid, SetUpMatchesTheReferenceOnEdgeCases) {
  // Lines at exact pitch multiples from the line at 100, and within
  // +-1e-9 pitch of them, where floor(raw + 1e-9) and ceil(raw - 1e-9)
  // turn; lines closer than a pitch (as below merge factor 1), so that an
  // IR-cell covers no fine cell or one ends in the lattice's last fine
  // cell and the net is scored per region; and a chip wider than the
  // lines, so endpoints fall below the first line and above the last.
  const double pitch = 7.0;
  std::vector<double> xs{40, 100};
  for (const double k : {3.0, 5.0, 8.0, 13.0, 21.0}) {
    xs.push_back(100 + k * pitch);
  }
  for (const double k : {26.0, 30.0, 35.0, 41.0}) {
    xs.push_back(100 + k * pitch - 1e-9 * pitch);
    xs.push_back(100 + (k + 2) * pitch + 0.5e-9 * pitch);
  }
  xs.push_back(100 + 50 * pitch - 2e-9 * pitch);
  xs.push_back(100 + 52 * pitch + 1.5e-9 * pitch);
  for (const double at : {460.0, 460.3, 463.4, 470.0, 476.9, 478.2}) {
    xs.push_back(at);
  }
  xs.push_back(520);
  std::sort(xs.begin(), xs.end());
  // Rows: evenly spread lines, some a pitch apart, so that nets chain on
  // one axis only and square windows tie on band steps.
  std::vector<double> ys{40, 100};
  for (const double k : {4.0, 7.0, 7.5, 11.0, 16.0, 22.0, 22.1, 29.0}) {
    ys.push_back(100 + k * pitch);
  }
  for (const double k : {33.0, 40.0}) {
    ys.push_back(100 + k * pitch + 1e-9 * pitch);
    ys.push_back(100 + (k + 3) * pitch - 0.25e-9 * pitch);
  }
  ys.push_back(420);
  ys.push_back(423.5);
  ys.push_back(520);
  std::sort(ys.begin(), ys.end());
  const CutLines cl(xs, ys);
  const Rect chip{0, 0, 600, 600};
  std::vector<TwoPinNet> nets = probe_nets(xs, ys, 3);
  nets.push_back(TwoPinNet{Point{700, 700}, Point{800, 800}, 0});  // outside
  for (const double p : {pitch, 0.5 * pitch, 3.0}) {
    SCOPED_TRACE(::testing::Message() << "pitch " << p);
    const SetupTally t = compare_setups(nets, cl, chip, p, p);
    EXPECT_GT(t.outside, 0);
    EXPECT_GT(t.degenerate, 0);
    EXPECT_GT(t.per_region, 0);
    EXPECT_GT(t.columns, 0);
    EXPECT_GT(t.rows, 0);
    EXPECT_GT(t.type2_banded, 0);
    EXPECT_GT(t.one_axis_chains, 0);
  }
  // Some windows tie on band steps at one pitch; unequal pitches.
  EXPECT_GT(compare_setups(nets, cl, chip, pitch, pitch).steps_tied, 0);
  compare_setups(nets, cl, chip, pitch, 2.5);
}

TEST(IrregularGrid, SetUpMatchesTheReferenceOnRealFloorplans) {
  // Merged cut lines from build_cutlines at merge factors 2, 1, 0.5 and 0:
  // ami49 at 30 um and at 3 um, and random nets at fine pitches.
  const Netlist netlist = make_mcnc("ami49");
  const SlicingResult packed = SlicingPacker(netlist).pack(
      PolishExpression::initial(static_cast<int>(netlist.module_count())));
  const auto nets = decompose_to_two_pin(netlist, packed.placement);
  const Rect chip = packed.placement.chip;
  Rng rng(73);
  std::vector<TwoPinNet> random;
  for (int i = 0; i < 400; ++i) {
    random.push_back(
        TwoPinNet{Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                  Point{rng.uniform(0, 1000), rng.uniform(0, 1000)}, i});
  }
  for (const double merge : {2.0, 1.0, 0.5, 0.0}) {
    for (const double pitch : {30.0, 3.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "merge " << merge << " pitch " << pitch);
      const CutLines cl =
          build_cutlines(nets, chip, merge * pitch, merge * pitch);
      const SetupTally t = compare_setups(nets, cl, chip, pitch, pitch);
      EXPECT_GT(t.columns + t.rows, 0);
      const CutLines rl =
          build_cutlines(random, kChip, merge * pitch, merge * pitch);
      compare_setups(random, rl, kChip, pitch, pitch);
    }
  }
}

/// A shelf-row Polish expression: rows of width sqrt(1.15 * module area)
/// filled in module order, each row a V chain, the rows stacked with H.
PolishExpression shelf_rows(const Netlist& netlist) {
  const double shelf_w = std::sqrt(1.15 * netlist.total_module_area());
  std::vector<PolishToken> tokens;
  double x = 0.0;
  bool first_row = true;
  for (std::size_t i = 0; i < netlist.module_count(); ++i) {
    const double w = netlist.modules()[i].width;
    if (x > 0.0 && x + w > shelf_w) {
      if (!first_row) tokens.push_back(PolishToken{PolishToken::kH});
      first_row = false;
      x = 0.0;
    }
    tokens.push_back(PolishToken{static_cast<int>(i)});
    if (x > 0.0) tokens.push_back(PolishToken{PolishToken::kV});
    x += w;
  }
  if (!first_row) tokens.push_back(PolishToken{PolishToken::kH});
  return PolishExpression(std::move(tokens));
}

TEST(IrregularGrid, StreamTierFlowsArePinnedAtOneAndFourThreads) {
  // The generated ami49x80 tier in shelf rows at pitch extent / 200, the
  // regime where most nets are small and the set-up weighs most. The hash
  // was recorded before the set-up went through NetSetup; the set-up
  // produces the same integers, so every flow keeps its bits.
  const Netlist netlist = make_scale_netlist(parse_scale_tier("ami49x80"), 7);
  const SlicingResult packed =
      SlicingPacker(netlist).pack(shelf_rows(netlist));
  IrregularGridParams params;
  params.grid_w = params.grid_h =
      std::max(30.0, std::max(packed.width, packed.height) / 200.0);
  const IrregularGridModel model(params);
  const auto nets = decompose_to_two_pin(netlist, packed.placement);
  const Rect chip = packed.placement.chip;
  // Every net snaps and is laid out as the reference does it.
  const CutLines cl = build_cutlines(nets, chip, 2 * params.grid_w,
                                     2 * params.grid_h);
  const SetupTally t =
      compare_setups(nets, cl, chip, params.grid_w, params.grid_h);
  EXPECT_GT(t.degenerate, 0);
  EXPECT_GT(t.columns + t.rows, 0);
  for (const int threads : {1, 4}) {
    ThreadPool::set_global_threads(threads);
    const std::uint64_t got = flow_hash(model.evaluate(nets, chip));
    EXPECT_EQ(got, 0x662617249d7ed3f1ull) << "threads=" << threads << " actual 0x"
                           << std::hex << got;
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(IrregularGrid, DegenerateNetsHandled) {
  const IrregularGridModel model(fine_params());
  const std::vector<TwoPinNet> nets{
      {Point{500, 500}, Point{500, 500}, 0},  // point
      {Point{100, 200}, Point{900, 200}, 1},  // horizontal segment
      {Point{300, 100}, Point{300, 900}, 2},  // vertical segment
  };
  const IrregularCongestionMap map = model.evaluate(nets, kChip);
  double total = 0.0;
  for (int iy = 0; iy < map.ny(); ++iy) {
    for (int ix = 0; ix < map.nx(); ++ix) total += map.flow(ix, iy);
  }
  EXPECT_GT(total, 0.0);  // all three degenerate nets registered somewhere
}

TEST(IrregularGrid, DegenerateNetsSplitEvenlyAcrossAdjacentCells) {
  // Regression: a snapped routing range that collapses onto an interior cut
  // line used to charge its whole crossing probability to one arbitrary
  // side of the line. The documented rule is 0.5/0.5 across the two
  // touching cells per collapsed axis (1.0 to the single neighbor at a chip
  // boundary), with weights multiplying when both axes collapse.
  const IrregularGridModel model(fine_params());

  // Vertical net exactly on the interior cut line x=300:
  // xs = {0, 300, 1000}, ys = {0, 100, 900, 1000}.
  const std::vector<TwoPinNet> vertical{{Point{300, 100}, Point{300, 900}, 0}};
  const IrregularCongestionMap v = model.evaluate(vertical, kChip);
  ASSERT_EQ(v.nx(), 2);
  ASSERT_EQ(v.ny(), 3);
  EXPECT_DOUBLE_EQ(v.flow(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(v.flow(1, 1), 0.5);
  EXPECT_EQ(v.flow(0, 0), 0.0);
  EXPECT_EQ(v.flow(1, 2), 0.0);

  // The same net on the chip's left edge has only one neighboring column,
  // which takes the full unit: xs = {0, 1000}.
  const std::vector<TwoPinNet> edge{{Point{0, 100}, Point{0, 900}, 0}};
  const IrregularCongestionMap e = model.evaluate(edge, kChip);
  ASSERT_EQ(e.nx(), 1);
  EXPECT_DOUBLE_EQ(e.flow(0, 1), 1.0);

  // Crossing degenerate nets plus a point net at their crossing: the point
  // collapses on both axes and charges 0.25 to each corner cell, so each of
  // the four cells around (300, 500) accumulates 0.5 + 0.5 + 0.25.
  const std::vector<TwoPinNet> cross{
      {Point{300, 100}, Point{300, 900}, 0},  // vertical on x=300
      {Point{100, 500}, Point{900, 500}, 1},  // horizontal on y=500
      {Point{300, 500}, Point{300, 500}, 2},  // point on the crossing
  };
  const IrregularCongestionMap c = model.evaluate(cross, kChip);
  // xs = {0, 100, 300, 900, 1000}, ys = {0, 100, 500, 900, 1000}.
  ASSERT_EQ(c.nx(), 4);
  ASSERT_EQ(c.ny(), 4);
  for (const int ix : {1, 2}) {
    for (const int iy : {1, 2}) {
      EXPECT_DOUBLE_EQ(c.flow(ix, iy), 1.25) << "cell " << ix << ',' << iy;
    }
  }
}

TEST(IrregularGrid, ScoreMemoNeverChangesResults) {
  // The per-net memo (score_cache_capacity) must be invisible in the
  // output: hits return the exact matrix a miss would recompute. Compare
  // memo-on vs memo-off bitwise for every strategy, and re-evaluate with a
  // warm thread-local memo (second pass is nearly all hits).
  Rng rng(57);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 50; ++i) {
    Point a{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    Point b{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    if (i % 9 == 0) b.x = a.x;  // include degenerate shapes
    nets.push_back(TwoPinNet{a, b, i});
  }
  // Duplicates guarantee intra-evaluation hits as well.
  for (int i = 0; i < 15; ++i) nets.push_back(nets[static_cast<std::size_t>(i)]);
  for (const IrEvalStrategy strategy :
       {IrEvalStrategy::kBandedExact, IrEvalStrategy::kExactPerRegion,
        IrEvalStrategy::kTheorem1}) {
    IrregularGridParams memoized = fine_params();
    memoized.strategy = strategy;
    IrregularGridParams plain = memoized;
    plain.score_cache_capacity = 0;
    const auto on = IrregularGridModel(memoized).evaluate(nets, kChip);
    const auto off = IrregularGridModel(plain).evaluate(nets, kChip);
    const auto warm = IrregularGridModel(memoized).evaluate(nets, kChip);
    ASSERT_EQ(on.nx(), off.nx());
    ASSERT_EQ(on.ny(), off.ny());
    for (int iy = 0; iy < on.ny(); ++iy) {
      for (int ix = 0; ix < on.nx(); ++ix) {
        ASSERT_EQ(on.flow(ix, iy), off.flow(ix, iy))
            << "strategy " << static_cast<int>(strategy) << " cell " << ix
            << ',' << iy;
        ASSERT_EQ(on.flow(ix, iy), warm.flow(ix, iy))
            << "warm memo diverged at cell " << ix << ',' << iy;
      }
    }
  }
}

TEST(IrregularGrid, MirrorImageNetsShareOneMemoEntryAndMirrorTheirFlows) {
  // Net a (type I) and its y-mirror image b (type II) on a 1000 um chip;
  // p, a point net on the mirror axis, puts a cut line inside both
  // columns. Together they cut the chip along mirror-symmetric lines, where
  // a and b cover three rows each whose canonical spans agree, so in paper
  // mode on a one-thread pool b hits the memo entry a left. Evaluated
  // apart, beside p, each net's flows are the other's with the rows
  // reversed, bit for bit, under every strategy.
  const TwoPinNet a{Point{100, 200}, Point{400, 700}, 0};
  const TwoPinNet b{Point{100, 800}, Point{400, 300}, 1};
  const TwoPinNet p{Point{250, 500}, Point{250, 500}, 2};
  ThreadPool::set_global_threads(1);
  IrregularGridParams paper = fine_params();
  paper.strategy = IrEvalStrategy::kTheorem1;
  paper.approx.narrow_range_threshold = 5;
  paper.approx.small_region_threshold = 4;
  IrregularGridParams plain = paper;
  plain.score_cache_capacity = 0;  // also empties this thread's memo
  const std::vector<TwoPinNet> both{a, b, p};
  const IrregularCongestionMap unmemoized =
      IrregularGridModel(plain).evaluate(both, kChip);
  obs::set_trace_enabled(true);
  obs::reset();
  const IrregularCongestionMap memoized =
      IrregularGridModel(paper).evaluate(both, kChip);
  const obs::TraceReport work = obs::capture();
  obs::set_trace_enabled(false);
  EXPECT_EQ(work.counter(obs::Counter::kScoreMemoMisses), 1);
  EXPECT_EQ(work.counter(obs::Counter::kScoreMemoHits), 1);
  const std::vector<double> symmetric{0, 200, 300, 500, 700, 800, 1000};
  EXPECT_EQ(memoized.lines().ys(), symmetric);
  EXPECT_EQ(memoized.values(), unmemoized.values());

  for (const IrEvalStrategy strategy :
       {IrEvalStrategy::kTheorem1, IrEvalStrategy::kExactPerRegion,
        IrEvalStrategy::kBandedExact}) {
    SCOPED_TRACE(::testing::Message()
                 << "strategy " << static_cast<int>(strategy));
    IrregularGridParams params = paper;
    params.strategy = strategy;
    const IrregularGridModel model(params);
    const IrregularCongestionMap fa =
        model.evaluate(std::vector<TwoPinNet>{a, p}, kChip);
    const IrregularCongestionMap fb =
        model.evaluate(std::vector<TwoPinNet>{b, p}, kChip);
    ASSERT_EQ(fa.nx(), fb.nx());
    ASSERT_EQ(fa.ny(), fb.ny());
    bool asymmetric = false;
    for (int iy = 0; iy < fa.ny(); ++iy) {
      const int mirror = fa.ny() - 1 - iy;
      for (int ix = 0; ix < fa.nx(); ++ix) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fb.flow(ix, iy)),
                  std::bit_cast<std::uint64_t>(fa.flow(ix, mirror)))
            << "cell " << ix << ',' << iy;
        asymmetric = asymmetric || fa.flow(ix, iy) != fa.flow(ix, mirror);
      }
    }
    EXPECT_TRUE(asymmetric);  // a's own flows are not their mirror
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(IrregularGrid, CostWeightsDensityByArea) {
  // Construct a map by hand: a tiny hot cell and a large cold cell. With
  // fraction 10% of a 1000x1000 chip (=100000 um^2), the hot cell (10000
  // um^2) is fully taken and the remainder comes from the next densest.
  IrregularCongestionMap map(CutLines({0, 100, 1000}, {0, 100, 1000}));
  map.add_flow(0, 0, 5.0);    // 100x100 cell, density 5e-4
  map.add_flow(1, 1, 10.0);   // 900x900 cell, density ~1.23e-5
  const double cost = map.top_fraction_cost(0.10);
  const double hot_density = 5.0 / (100.0 * 100.0);
  const double cold_density = 10.0 / (900.0 * 900.0);
  const double budget = 0.10 * 1000 * 1000;
  const double expected =
      (hot_density * 10000.0 + cold_density * (budget - 10000.0)) / budget;
  EXPECT_NEAR(cost, expected, 1e-15);
}

TEST(IrregularGrid, CostMonotonicInExtraNets) {
  Rng rng(53);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 20; ++i) {
    nets.push_back(TwoPinNet{Point{rng.uniform(400, 600), rng.uniform(400, 600)},
                             Point{rng.uniform(400, 600), rng.uniform(400, 600)},
                             i});
  }
  const IrregularGridModel model;
  const double base = model.cost(nets, kChip);
  // Duplicate the hottest region's nets: cost must not decrease.
  std::vector<TwoPinNet> more = nets;
  more.insert(more.end(), nets.begin(), nets.end());
  EXPECT_GE(model.cost(more, kChip) + 1e-12, base);
}

TEST(IrregularGrid, TracksJudgingModelAcrossPlacements) {
  // The headline claim of Experiment 2: the IR-grid estimate moves with the
  // fine fixed-grid judging estimate. Compare rankings over random
  // placements of ami33.
  const Netlist netlist = make_mcnc("ami33");
  const SlicingPacker packer(netlist);
  Rng rng(54);
  PolishExpression expr =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  IrregularGridParams params;
  params.grid_w = 30;
  params.grid_h = 30;
  const IrregularGridModel ir(params);
  const FixedGridModel judge = make_judging_model(10.0);
  std::vector<double> ir_costs, judge_costs;
  for (int i = 0; i < 12; ++i) {
    for (int k = 0; k < 30; ++k) expr.random_move(rng);
    const SlicingResult packed = packer.pack(expr);
    const auto nets = decompose_to_two_pin(netlist, packed.placement);
    ir_costs.push_back(ir.cost(nets, packed.placement.chip));
    judge_costs.push_back(judge.cost(nets, packed.placement.chip));
  }
  EXPECT_GT(pearson(ir_costs, judge_costs), 0.4);
}

TEST(IrregularGrid, CsvOutput) {
  const IrregularGridModel model(fine_params());
  const std::vector<TwoPinNet> nets{{Point{300, 300}, Point{700, 600}, 0}};
  const IrregularCongestionMap map = model.evaluate(nets, kChip);
  std::ostringstream csv;
  map.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("xlo,ylo,xhi,yhi,flow,density"), std::string::npos);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1 + map.cell_count());
}

TEST(IrregularGrid, MergeFactorReducesCellCount) {
  Rng rng(55);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 30; ++i) {
    nets.push_back(TwoPinNet{Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             Point{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                             i});
  }
  IrregularGridParams loose = fine_params();
  loose.merge_factor = 8.0;
  IrregularGridParams tight = fine_params();
  tight.merge_factor = 0.5;
  const auto coarse = IrregularGridModel(loose).evaluate(nets, kChip);
  const auto fine = IrregularGridModel(tight).evaluate(nets, kChip);
  EXPECT_LT(coarse.cell_count(), fine.cell_count());
}

TEST(IrregularGrid, RejectsBadParams) {
  IrregularGridParams p;
  p.grid_w = 0;
  EXPECT_THROW(IrregularGridModel{p}, std::invalid_argument);
  IrregularGridParams q;
  q.merge_factor = -1;
  EXPECT_THROW(IrregularGridModel{q}, std::invalid_argument);
}

}  // namespace
}  // namespace ficon
