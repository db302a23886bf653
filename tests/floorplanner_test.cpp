// Routability-driven floorplanner facade: end-to-end behaviour.
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "congestion/irregular_grid.hpp"
#include "core/floorplanner.hpp"
#include "route/two_pin.hpp"
#include "util/rng.hpp"

namespace ficon {
namespace {

FloorplanOptions fast_options() {
  FloorplanOptions o;
  o.effort = 0.15;
  o.anneal.cooling = 0.8;
  o.anneal.max_stall_temperatures = 4;
  o.anneal.stop_temperature_ratio = 1e-3;
  return o;
}

TEST(Floorplanner, ProducesLegalPlacement) {
  const Netlist netlist = make_mcnc("hp");
  const Floorplanner planner(netlist, fast_options());
  const FloorplanSolution sol = planner.run();
  EXPECT_TRUE(placement_is_legal(sol.placement));
  EXPECT_EQ(sol.placement.module_rects.size(), netlist.module_count());
  EXPECT_GE(sol.metrics.area + 1e-6, netlist.total_module_area());
  EXPECT_GT(sol.metrics.wirelength, 0.0);
  EXPECT_GT(sol.seconds, 0.0);
}

TEST(Floorplanner, DeterministicPerSeed) {
  const Netlist netlist = make_mcnc("apte");
  FloorplanOptions o = fast_options();
  o.seed = 77;
  const FloorplanSolution a = Floorplanner(netlist, o).run();
  const FloorplanSolution b = Floorplanner(netlist, o).run();
  EXPECT_EQ(a.expression.to_string(), b.expression.to_string());
  EXPECT_DOUBLE_EQ(a.metrics.area, b.metrics.area);
  EXPECT_DOUBLE_EQ(a.metrics.wirelength, b.metrics.wirelength);
  o.seed = 78;
  const FloorplanSolution c = Floorplanner(netlist, o).run();
  EXPECT_NE(a.expression.to_string(), c.expression.to_string());
}

TEST(Floorplanner, EvaluateMatchesFromScratchReferencesAlongAWalk) {
  // The evaluation pipeline (cached re-pack, one caching decomposition
  // shared by both terms) is a pure speedup. Along a seeded
  // Polish walk, a warm planner's every metric must equal the from-scratch
  // references bit for bit, and its normalized cost must equal what a
  // freshly built planner (cold caches) computes for the same expression.
  const Netlist netlist = make_mcnc("ami33");
  FloorplanOptions o = fast_options();
  o.objective.model = CongestionModelKind::kIrregularGrid;
  o.objective.gamma = 1.0;
  o.seed = 9;
  const Floorplanner warm(netlist, o);
  const SlicingPacker packer(netlist);
  const IrregularGridModel model(o.objective.irregular);

  Rng rng(2025);
  PolishExpression expr =
      PolishExpression::initial(static_cast<int>(netlist.module_count()));
  for (int move = 0; move < 60; ++move) {
    expr.random_move(rng);
    SCOPED_TRACE("move " + std::to_string(move) + ": " + expr.to_string());
    const FloorplanMetrics got = warm.evaluate(expr);
    const Placement placement = packer.pack(expr).placement;
    EXPECT_EQ(got.area, placement.chip.area());
    EXPECT_EQ(got.wirelength, mst_wirelength(netlist, placement));
    EXPECT_EQ(got.congestion,
              model.cost(decompose_to_two_pin(netlist, placement),
                         placement.chip));
    EXPECT_EQ(got.cost, Floorplanner(netlist, o).evaluate(expr).cost);
  }
}

TEST(Floorplanner, OptimizationBeatsInitialExpression) {
  const Netlist netlist = make_mcnc("ami33");
  const Floorplanner planner(netlist, fast_options());
  const FloorplanMetrics initial = planner.evaluate(
      PolishExpression::initial(static_cast<int>(netlist.module_count())));
  const FloorplanSolution sol = planner.run();
  EXPECT_LT(sol.metrics.cost, initial.cost);
  EXPECT_LT(sol.metrics.area, initial.area);
}

TEST(Floorplanner, AreaOnlyObjectiveReachesTightPacking) {
  const Netlist netlist = make_mcnc("apte");
  FloorplanOptions o = fast_options();
  o.objective.alpha = 1.0;
  o.objective.beta = 0.0;
  o.effort = 0.5;
  const FloorplanSolution sol = Floorplanner(netlist, o).run();
  // Slicing floorplans of apte typically reach < 25% deadspace quickly.
  EXPECT_LT(sol.metrics.area, netlist.total_module_area() * 1.35);
}

TEST(Floorplanner, SnapshotsArriveInOrder) {
  const Netlist netlist = make_mcnc("hp");
  const Floorplanner planner(netlist, fast_options());
  int last_step = -1;
  int count = 0;
  const FloorplanSolution sol = planner.run([&](const TemperatureSnapshot& s) {
    EXPECT_EQ(s.step, last_step + 1);
    last_step = s.step;
    EXPECT_TRUE(placement_is_legal(s.placement));
    EXPECT_GT(s.metrics.area, 0.0);
    ++count;
  });
  EXPECT_EQ(count, sol.stats.temperature_steps);
}

TEST(Floorplanner, CongestionObjectiveIsEvaluated) {
  const Netlist netlist = make_mcnc("hp");
  FloorplanOptions o = fast_options();
  o.objective.model = CongestionModelKind::kIrregularGrid;
  o.objective.gamma = 1.0;
  o.objective.irregular.grid_w = 30;
  o.objective.irregular.grid_h = 30;
  const Floorplanner planner(netlist, o);
  const FloorplanSolution sol = planner.run();
  EXPECT_GT(sol.metrics.congestion, 0.0);
  EXPECT_TRUE(placement_is_legal(sol.placement));
}

TEST(Floorplanner, CongestionDrivenReducesJudgedCongestion) {
  // Experiment 1 in miniature: with a congestion term, the judged
  // congestion of the result should not be (much) worse than without it.
  // Run a couple of seeds and compare means to damp annealing noise.
  const Netlist netlist = make_mcnc("ami33");
  const FixedGridModel judge = make_judging_model(20.0);  // coarser = faster
  const auto judged = [&](const FloorplanSolution& sol) {
    const auto nets = decompose_to_two_pin(netlist, sol.placement);
    return judge.cost(nets, sol.placement.chip);
  };
  double base_sum = 0.0, cgt_sum = 0.0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    FloorplanOptions base = fast_options();
    base.effort = 0.25;
    base.seed = seed;
    base_sum += judged(Floorplanner(netlist, base).run());
    FloorplanOptions cgt = base;
    cgt.objective.model = CongestionModelKind::kIrregularGrid;
    cgt.objective.gamma = 1.5;
    cgt_sum += judged(Floorplanner(netlist, cgt).run());
  }
  // Generous slack: small-effort SA is noisy; the congestion-driven mean
  // must at least not regress by more than 15%.
  EXPECT_LT(cgt_sum, base_sum * 1.15);
}

TEST(Floorplanner, FixedGridObjectiveSupported) {
  const Netlist netlist = make_mcnc("hp");
  FloorplanOptions o = fast_options();
  o.objective.model = CongestionModelKind::kFixedGrid;
  o.objective.gamma = 1.0;
  o.objective.fixed.grid_w = 100;
  o.objective.fixed.grid_h = 100;
  const FloorplanSolution sol = Floorplanner(netlist, o).run();
  EXPECT_GT(sol.metrics.congestion, 0.0);
}

TEST(Floorplanner, CongestionOnlyObjective) {
  // Experiment 3 setup: alpha = beta = 0.
  const Netlist netlist = make_mcnc("hp");
  FloorplanOptions o = fast_options();
  o.objective.alpha = 0.0;
  o.objective.beta = 0.0;
  o.objective.gamma = 1.0;
  o.objective.model = CongestionModelKind::kIrregularGrid;
  const FloorplanSolution sol = Floorplanner(netlist, o).run();
  EXPECT_TRUE(placement_is_legal(sol.placement));
  EXPECT_GT(sol.metrics.congestion, 0.0);
}

TEST(Floorplanner, SequencePairEngineProducesLegalPlacements) {
  const Netlist netlist = make_mcnc("hp");
  FloorplanOptions o = fast_options();
  o.engine = FloorplanEngine::kSequencePair;
  const FloorplanSolution sol = Floorplanner(netlist, o).run();
  EXPECT_TRUE(placement_is_legal(sol.placement));
  EXPECT_GE(sol.metrics.area + 1e-6, netlist.total_module_area());
  EXPECT_FALSE(sol.representation.empty());
  EXPECT_NE(sol.representation.find('|'), std::string::npos);
}

TEST(Floorplanner, SequencePairEngineDeterministicPerSeed) {
  const Netlist netlist = make_mcnc("apte");
  FloorplanOptions o = fast_options();
  o.engine = FloorplanEngine::kSequencePair;
  o.seed = 5;
  const FloorplanSolution a = Floorplanner(netlist, o).run();
  const FloorplanSolution b = Floorplanner(netlist, o).run();
  EXPECT_EQ(a.representation, b.representation);
  EXPECT_DOUBLE_EQ(a.metrics.area, b.metrics.area);
}

TEST(Floorplanner, SequencePairEngineSupportsCongestionObjective) {
  const Netlist netlist = make_mcnc("hp");
  FloorplanOptions o = fast_options();
  o.engine = FloorplanEngine::kSequencePair;
  o.objective.model = CongestionModelKind::kIrregularGrid;
  o.objective.gamma = 1.0;
  int snapshots = 0;
  const FloorplanSolution sol =
      Floorplanner(netlist, o).run([&](const TemperatureSnapshot& s) {
        EXPECT_TRUE(placement_is_legal(s.placement));
        ++snapshots;
      });
  EXPECT_GT(sol.metrics.congestion, 0.0);
  EXPECT_EQ(snapshots, sol.stats.temperature_steps);
}

TEST(Floorplanner, EnginesReachComparableAreas) {
  // Both engines should land in the same area ballpark on a small circuit
  // at equal (reduced) effort — a smoke check that the sequence-pair DP
  // and the slicing packer optimize the same objective. The bound is loose
  // because a short anneal is noisy.
  const Netlist netlist = make_mcnc("apte");
  FloorplanOptions o = fast_options();
  o.effort = 0.5;
  const double polish_area = Floorplanner(netlist, o).run().metrics.area;
  o.engine = FloorplanEngine::kSequencePair;
  const double sp_area = Floorplanner(netlist, o).run().metrics.area;
  EXPECT_LT(std::abs(polish_area - sp_area) / polish_area, 0.5);
}

TEST(Floorplanner, RejectsBadOptions) {
  const Netlist netlist = make_mcnc("hp");
  FloorplanOptions o;
  o.objective.alpha = -1.0;
  EXPECT_THROW(Floorplanner(netlist, o), std::invalid_argument);
  FloorplanOptions o2;
  o2.effort = 0.0;
  EXPECT_THROW(Floorplanner(netlist, o2), std::invalid_argument);
  // Moves per temperature that overflow an int: the unchecked cast was
  // undefined behavior and left a 1e12-effort run at 10 moves per step.
  for (const double effort :
       {1e12, 3e7, std::numeric_limits<double>::infinity()}) {
    FloorplanOptions big;
    big.effort = effort;
    EXPECT_THROW(Floorplanner(netlist, big), std::invalid_argument)
        << "effort " << effort;
  }
  FloorplanOptions scaled;
  scaled.anneal.moves_per_temperature = 1000;
  scaled.effort = 1e7;
  EXPECT_THROW(Floorplanner(netlist, scaled), std::invalid_argument);
  // The largest counts that fit are still accepted, exactly.
  FloorplanOptions fits;
  fits.anneal.moves_per_temperature = 1;
  fits.effort = 2147483647.0;
  EXPECT_EQ(Floorplanner(netlist, fits).options().anneal.moves_per_temperature,
            2147483647);
}

}  // namespace
}  // namespace ficon
