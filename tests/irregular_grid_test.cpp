// Irregular-Grid congestion model: end-to-end evaluation semantics.
#include <bit>
#include <cstdint>
#include <sstream>

#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "congestion/fixed_grid.hpp"
#include "congestion/irregular_grid.hpp"
#include "floorplan/slicing.hpp"
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

/// Point nets beyond the top and right of a routing range put cut lines
/// through it at uneven spacings, so the last net, the measured one,
/// covers exactly ncx x ncy IR-cells. A type I net runs from lower left to
/// upper right, a type II net from upper left to lower right. The banded
/// scorer gives it ncy - 1 top-exit bands (every covered row but the top
/// one, mirrored for type II) and ncx - 1 right-exit bands.
std::vector<TwoPinNet> windowed_net(int ncx, int ncy, bool type2) {
  constexpr double kSpans[] = {90, 150, 120, 170, 110};  // um
  const double x0 = 100;
  const double y0 = 130;
  double x1 = x0;
  double y1 = y0;
  for (int i = 0; i < ncx; ++i) x1 += kSpans[i];
  for (int j = 0; j < ncy; ++j) y1 += kSpans[4 - j];
  std::vector<TwoPinNet> nets;
  double x = x0;
  for (int i = 0; i + 1 < ncx; ++i) {
    x += kSpans[i];
    const Point p{x, y1 + 100};
    nets.push_back(TwoPinNet{p, p, static_cast<int>(nets.size())});
  }
  double y = y0;
  for (int j = 0; j + 1 < ncy; ++j) {
    y += kSpans[4 - j];
    const Point p{x1 + 100, y};
    nets.push_back(TwoPinNet{p, p, static_cast<int>(nets.size())});
  }
  nets.push_back(TwoPinNet{Point{x0, type2 ? y1 : y0},
                           Point{x1, type2 ? y0 : y1},
                           static_cast<int>(nets.size())});
  return nets;
}

TEST(IrregularGrid, BandedFlowsArePinnedBitForBit) {
  // The banded scorer pairs bands into vector lanes; each lane must give
  // the bits of the one-band-at-a-time recurrence. The expected hashes
  // were recorded from that scalar loop.
  struct Case {
    int ncx, ncy;
    bool type2;
    std::uint64_t expected;
  };
  // Top-exit and right-exit band counts are ncy - 1 and ncx - 1.
  const Case cases[] = {
      {3, 3, false, 0xcf5787eea06609f4ull},  // 2 + 2: even on both passes
      {4, 4, false, 0x4258dd828de5a819ull},  // 3 + 3: odd on both passes
      {5, 2, false, 0x1c2fbc0124b35a47ull},  // 1 top band + spare lane
      {2, 5, true, 0x9b149bdb08211c76ull},   // type II, 4 top + 1 right
      {4, 3, true, 0x9c22db45967200e5ull},   // type II, 2 top + 3 right
      {3, 4, true, 0x49d28eeb0279a2d8ull},   // type II, 3 top + 2 right
      {1, 4, false, 0xda57a9d36b867fc1ull},  // ncx == 1: no right band
      {1, 5, true, 0xc24e28dc24a631cbull},   // ncx == 1, type II
      {4, 1, false, 0x66ce279b0c7b7981ull},  // ncy == 1: no top band
      {5, 1, true, 0x7e9d001c3bb4aea6ull},   // ncy == 1, type II
      {1, 1, false, 0x48e411c5cec748daull},  // pin cell only: no band
  };
  const IrregularGridModel model(fine_params());
  for (const Case& c : cases) {
    const IrregularCongestionMap map =
        model.evaluate(windowed_net(c.ncx, c.ncy, c.type2), kChip);
    EXPECT_EQ(flow_hash(map), c.expected)
        << c.ncx << 'x' << c.ncy << (c.type2 ? " type II" : " type I")
        << " actual 0x" << std::hex << flow_hash(map);
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
  EXPECT_EQ(random_hash, 0xafbbdad6a3fd1d22ull)
      << "actual 0x" << std::hex << random_hash;
}

TEST(IrregularGrid, BandedFlowsArePinnedOnAmi49AtEveryThreadCount) {
  // ami49 at the default 30 um pitch after seeded moves, scored at 1 and 8
  // threads; hashes recorded from the one-band-at-a-time recurrence.
  const Netlist netlist = make_mcnc("ami49");
  const SlicingPacker packer(netlist);
  Rng rng(61);
  PolishExpression expr =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  const IrregularGridModel model;
  const std::uint64_t expected[] = {
      0xe006a657ad534839ull, 0xdccb0a9692be8ba0ull, 0xf981b43fb61e8ae4ull};
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
