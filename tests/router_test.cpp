// Global-router substrate tests.
#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "congestion/fixed_grid.hpp"
#include "congestion/irregular_grid.hpp"
#include "core/floorplanner.hpp"
#include "route/two_pin.hpp"
#include "router/global_router.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ficon {
namespace {

const Rect kChip{0, 0, 100, 100};

RouterParams coarse() {
  RouterParams p;
  p.pitch = 10.0;
  p.capacity = 2.0;
  return p;
}

/// Total usage across the chip.
double total_usage(const RoutedCongestion& r) {
  double sum = 0.0;
  for (const double u : r.usage()) sum += u;
  return sum;
}

TEST(Router, SingleNetUsesExactlyItsPathLength) {
  const GlobalRouter router(coarse());
  const std::vector<TwoPinNet> nets{{Point{5, 5}, Point{75, 45}, 0}};
  const RoutedCongestion r = router.route(nets, kChip);
  // Monotone path over an 8x5 cell span touches exactly 8+5-1 cells.
  EXPECT_DOUBLE_EQ(total_usage(r), 12.0);
  EXPECT_DOUBLE_EQ(r.max_usage(), 1.0);
  // Endpoints must be used.
  EXPECT_DOUBLE_EQ(r.usage(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(r.usage(7, 4), 1.0);
}

TEST(Router, TypeTwoNetRoutesBetweenItsPins) {
  const GlobalRouter router(coarse());
  const std::vector<TwoPinNet> nets{{Point{5, 45}, Point{75, 5}, 0}};
  const RoutedCongestion r = router.route(nets, kChip);
  EXPECT_DOUBLE_EQ(r.usage(0, 4), 1.0);  // upper-left pin
  EXPECT_DOUBLE_EQ(r.usage(7, 0), 1.0);  // lower-right pin
  EXPECT_DOUBLE_EQ(total_usage(r), 12.0);
}

TEST(Router, DegenerateNetsOccupyTheirCells) {
  const GlobalRouter router(coarse());
  const std::vector<TwoPinNet> nets{
      {Point{15, 15}, Point{15, 15}, 0},
      {Point{5, 55}, Point{95, 55}, 1},
  };
  const RoutedCongestion r = router.route(nets, kChip);
  EXPECT_DOUBLE_EQ(r.usage(1, 1), 1.0);
  for (int x = 0; x < 10; ++x) EXPECT_DOUBLE_EQ(r.usage(x, 5), 1.0);
}

TEST(Router, PathsStayInsideRoutingRange) {
  Rng rng(71);
  const GlobalRouter router(coarse());
  for (int trial = 0; trial < 20; ++trial) {
    const Point a{rng.uniform(0, 100), rng.uniform(0, 100)};
    const Point b{rng.uniform(0, 100), rng.uniform(0, 100)};
    const std::vector<TwoPinNet> nets{{a, b, 0}};
    const RoutedCongestion r = router.route(nets, kChip);
    const GridSpec& g = r.grid();
    const GridPoint ca = g.cell_of(a), cb = g.cell_of(b);
    for (int cy = 0; cy < g.ny(); ++cy) {
      for (int cx = 0; cx < g.nx(); ++cx) {
        if (r.usage(cx, cy) > 0.0) {
          EXPECT_GE(cx, std::min(ca.x, cb.x));
          EXPECT_LE(cx, std::max(ca.x, cb.x));
          EXPECT_GE(cy, std::min(ca.y, cb.y));
          EXPECT_LE(cy, std::max(ca.y, cb.y));
        }
      }
    }
  }
}

TEST(Router, ConservationAcrossDiagonals) {
  // Every routed (non-degenerate) net crosses each anti-diagonal of its
  // span exactly once, so total usage = sum of (g1 + g2 - 1) per net.
  Rng rng(72);
  std::vector<TwoPinNet> nets;
  double expected = 0.0;
  const GridSpec grid = GridSpec::from_pitch(kChip, 10, 10);
  for (int i = 0; i < 25; ++i) {
    const TwoPinNet net{{rng.uniform(0, 100), rng.uniform(0, 100)},
                        {rng.uniform(0, 100), rng.uniform(0, 100)},
                        i};
    nets.push_back(net);
    const SpannedNet s = span_net(grid, net);
    expected += s.shape.g1 + s.shape.g2 - 1;
  }
  const GlobalRouter router(coarse());
  EXPECT_DOUBLE_EQ(total_usage(router.route(nets, kChip)), expected);
}

TEST(Router, CongestionAwareRoutingSpreadsLoad) {
  // Eight identical nets spanning the same 10x10 cell window: every net
  // must use the two pin cells (usage 8 there is unavoidable), but a
  // congestion-aware router spreads the staircases in between — a blind
  // router would stack all 8 on one path.
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 8; ++i) {
    nets.push_back(TwoPinNet{Point{5, 5}, Point{95, 95}, i});
  }
  const GlobalRouter router(coarse());
  const RoutedCongestion r = router.route(nets, kChip);
  EXPECT_DOUBLE_EQ(r.usage(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(r.usage(9, 9), 8.0);
  long long heavy = 0;
  for (int cy = 0; cy < 10; ++cy) {
    for (int cx = 0; cx < 10; ++cx) {
      if (r.usage(cx, cy) >= 7.0) ++heavy;
    }
  }
  EXPECT_LE(heavy, 4);  // only the pin neighbourhoods may stay heavy
}

TEST(Router, RipUpReducesOverflow) {
  Rng rng(73);
  std::vector<TwoPinNet> nets;
  for (int i = 0; i < 120; ++i) {
    nets.push_back(TwoPinNet{{rng.uniform(30, 70), rng.uniform(30, 70)},
                             {rng.uniform(30, 70), rng.uniform(30, 70)},
                             i});
  }
  RouterParams no_ripup = coarse();
  no_ripup.ripup_passes = 0;
  RouterParams with_ripup = coarse();
  with_ripup.ripup_passes = 3;
  const double before =
      GlobalRouter(no_ripup).route(nets, kChip).overflow(coarse().capacity);
  const double after =
      GlobalRouter(with_ripup).route(nets, kChip).overflow(coarse().capacity);
  EXPECT_LE(after, before);
}

TEST(Router, OverflowMetrics) {
  RoutedCongestion r(GridSpec::from_counts(kChip, 2, 2));
  r.add_usage(0, 0, 5.0);
  r.add_usage(1, 1, 1.0);
  EXPECT_DOUBLE_EQ(r.overflow(2.0), 3.0);
  EXPECT_EQ(r.overflowed_cells(2.0), 1);
  EXPECT_DOUBLE_EQ(r.max_usage(), 5.0);
  EXPECT_DOUBLE_EQ(r.top_fraction_usage(0.25), 5.0);
}

TEST(Router, RejectsBadParams) {
  RouterParams bad;
  bad.pitch = 0.0;
  EXPECT_THROW(GlobalRouter{bad}, std::invalid_argument);
  RouterParams bad2;
  bad2.ripup_passes = -1;
  EXPECT_THROW(GlobalRouter{bad2}, std::invalid_argument);
}

TEST(Router, EstimatorsPredictRoutedCongestion) {
  // The paper's core premise, end to end: both probabilistic estimators
  // must rank placements consistently with actually-routed congestion.
  const Netlist netlist = make_mcnc("ami33");
  FloorplanOptions o;
  o.effort = 0.15;
  o.anneal.stop_temperature_ratio = 1e-2;
  std::vector<double> routed, judged;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    o.seed = seed;
    const FloorplanSolution sol = Floorplanner(netlist, o).run();
    const auto nets = decompose_to_two_pin(netlist, sol.placement);
    RouterParams rp;
    rp.pitch = 20.0;
    rp.capacity = 3.0;
    routed.push_back(
        GlobalRouter(rp).route(nets, sol.placement.chip).top_fraction_usage());
    judged.push_back(
        make_judging_model(20.0).cost(nets, sol.placement.chip));
  }
  EXPECT_GT(pearson(routed, judged), 0.5);
}

TEST(Router, CorrelationFloorsHold) {
  // How well the IR cost (30 um, banded) and the fixed 10 um judge predict
  // routed congestion, over the placements bench_router_validation
  // samples: 40 area + wire anneals of ami33 at efforts 0.1-0.4 with the
  // bench's tuned schedule, each routed at 20 um, capacity 3, with two
  // rip-up passes. Measured against routed top-10% usage:
  //
  //   estimator     Pearson  Spearman
  //   IR 30 um       0.723    0.440
  //   fixed 10 um    0.923    0.830
  //
  // The IR cost is the weakest estimator by this judge (ROADMAP, "Make
  // the IR cost predict routed congestion").
  // Each floor is the measured value less a bootstrap margin: the gap
  // between that value and its 5% quantile over 10,000 resamples of the
  // 40 placements (0.32 / 0.27 for IR, 0.12 / 0.13 for fixed 10 um),
  // rounded down to two decimals. A change to the scorer or the cost that
  // moves a correlation below its floor has made the estimate worse, not
  // noisier.
  const Netlist netlist = make_mcnc("ami33");
  RouterParams rp;
  rp.pitch = 20.0;
  rp.capacity = 3.0;
  rp.ripup_passes = 2;
  const GlobalRouter router(rp);
  const IrregularGridModel ir;
  const FixedGridModel judge = make_judging_model(10.0);
  std::vector<double> routed, ir_cost, judged;
  for (int i = 0; i < 40; ++i) {
    FloorplanOptions o;
    o.effort = 0.1 + 0.1 * (i % 4);
    o.seed = static_cast<std::uint64_t>(100 + i);
    o.anneal.cooling = 0.90;
    o.anneal.max_stall_temperatures = 8;
    o.anneal.stop_temperature_ratio = 1e-4;
    const Placement placement = Floorplanner(netlist, o).run().placement;
    const auto nets = decompose_to_two_pin(netlist, placement);
    routed.push_back(
        router.route(nets, placement.chip).top_fraction_usage(0.10));
    ir_cost.push_back(ir.cost(nets, placement.chip));
    judged.push_back(judge.cost(nets, placement.chip));
  }
  EXPECT_GE(pearson(ir_cost, routed), 0.40);
  EXPECT_GE(spearman(ir_cost, routed), 0.17);
  EXPECT_GE(pearson(judged, routed), 0.80);
  EXPECT_GE(spearman(judged, routed), 0.70);
}

}  // namespace
}  // namespace ficon
