// Cross-thread-count determinism: the contract of the parallel evaluators
// (util/thread_pool.hpp) is that FICON_THREADS changes wall-clock time and
// NOTHING else. Every computation is blocked by problem size and reduced
// in block order, so congestion maps, costs, and whole seed sweeps must be
// bit-identical at 1, 2, 4 and 8 threads.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "congestion/fixed_grid.hpp"
#include "congestion/irregular_grid.hpp"
#include "core/floorplanner.hpp"
#include "exp/experiment.hpp"
#include "route/two_pin.hpp"
#include "util/thread_pool.hpp"

namespace ficon {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

FloorplanOptions tiny_options() {
  FloorplanOptions o;
  o.effort = 0.15;
  o.anneal.cooling = 0.8;
  o.anneal.stop_temperature_ratio = 1e-3;
  o.anneal.max_stall_temperatures = 4;
  return o;
}

/// A fixed non-trivial placement shared by the map tests: one deterministic
/// annealing run (computed at 1 thread, used at every thread count).
struct PlacedCircuit {
  Netlist netlist;
  Placement placement;
  std::vector<TwoPinNet> nets;

  explicit PlacedCircuit(const std::string& name) : netlist(make_mcnc(name)) {
    ThreadPool::set_global_threads(1);
    FloorplanOptions o = tiny_options();
    o.seed = 5;
    placement = Floorplanner(netlist, o).run().placement;
    nets = decompose_to_two_pin(netlist, placement);
  }
};

class DeterminismTest : public ::testing::Test {
 protected:
  // Every test leaves the global pool back at 1 thread so ordering between
  // tests cannot matter.
  void TearDown() override { ThreadPool::set_global_threads(1); }
};

TEST_F(DeterminismTest, IrregularGridMapBitIdenticalAcrossThreadCounts) {
  const PlacedCircuit pc("hp");
  for (const IrEvalStrategy strategy :
       {IrEvalStrategy::kBandedExact, IrEvalStrategy::kTheorem1,
        IrEvalStrategy::kExactPerRegion}) {
    IrregularGridParams params;
    params.strategy = strategy;

    ThreadPool::set_global_threads(1);
    const IrregularGridModel model(params);
    const IrregularCongestionMap reference =
        model.evaluate(pc.nets, pc.placement.chip);
    ASSERT_GT(reference.cell_count(), 0);

    for (const int threads : kThreadCounts) {
      ThreadPool::set_global_threads(threads);
      const IrregularCongestionMap map =
          model.evaluate(pc.nets, pc.placement.chip);
      ASSERT_EQ(map.nx(), reference.nx());
      ASSERT_EQ(map.ny(), reference.ny());
      for (int iy = 0; iy < map.ny(); ++iy) {
        for (int ix = 0; ix < map.nx(); ++ix) {
          // EXPECT_EQ, not EXPECT_NEAR: bit-identical is the contract.
          EXPECT_EQ(map.flow(ix, iy), reference.flow(ix, iy))
              << "strategy=" << static_cast<int>(strategy)
              << " threads=" << threads << " cell=(" << ix << ',' << iy << ')';
        }
      }
      EXPECT_EQ(map.top_fraction_cost(0.10), reference.top_fraction_cost(0.10));
    }
  }
}

TEST_F(DeterminismTest, CongestionDrivenAnnealPinnedAtEveryThreadCount) {
  // End-to-end anchor: a short congestion-driven anneal of ami33 (IR
  // objective, gamma 0.4, 30 um pitch, banded strategy) ends at a pinned
  // cost, and every thread count reaches the 1-thread run's floorplan.
  // The cost guards the annealer's trajectory; last-bit drift in the
  // banded flows is pinned by irregular_grid_test's hashes.
  const Netlist netlist = make_mcnc("ami33");
  FloorplanOptions o;
  o.effort = 0.05;
  o.anneal.cooling = 0.90;
  o.anneal.max_stall_temperatures = 8;
  o.anneal.stop_temperature_ratio = 1e-4;
  o.objective.model = CongestionModelKind::kIrregularGrid;
  o.objective.gamma = 0.4;
  o.objective.irregular.grid_w = 30.0;
  o.objective.irregular.grid_h = 30.0;
  o.seed = 1;

  std::string reference;
  for (const int threads : kThreadCounts) {
    ThreadPool::set_global_threads(threads);
    const FloorplanSolution run = Floorplanner(netlist, o).run();
    EXPECT_EQ(run.metrics.cost, 0.70658411648833175) << "threads=" << threads;
    if (threads == 1) reference = run.representation;
    EXPECT_EQ(run.representation, reference) << "threads=" << threads;
  }
}

TEST_F(DeterminismTest, FixedGridMapBitIdenticalAcrossThreadCounts) {
  const PlacedCircuit pc("hp");
  const FixedGridModel judge = make_judging_model(25.0);

  ThreadPool::set_global_threads(1);
  const CongestionMap reference = judge.evaluate(pc.nets, pc.placement.chip);

  for (const int threads : kThreadCounts) {
    ThreadPool::set_global_threads(threads);
    const CongestionMap map = judge.evaluate(pc.nets, pc.placement.chip);
    ASSERT_EQ(map.values().size(), reference.values().size());
    for (std::size_t i = 0; i < map.values().size(); ++i) {
      EXPECT_EQ(map.values()[i], reference.values()[i])
          << "threads=" << threads << " cell " << i;
    }
    EXPECT_EQ(map.top_fraction_cost(0.10), reference.top_fraction_cost(0.10));
  }
}

TEST_F(DeterminismTest, SeedSweepIdenticalAcrossThreadCounts) {
  const Netlist netlist = make_mcnc("apte");
  const FixedGridModel judge = make_judging_model(50.0);
  FloorplanOptions base = tiny_options();
  base.objective.gamma = 0.4;
  base.objective.model = CongestionModelKind::kIrregularGrid;
  constexpr int kSeeds = 3;

  ThreadPool::set_global_threads(1);
  const SeedSweep reference = run_seed_sweep(netlist, base, kSeeds, judge);
  ASSERT_EQ(reference.runs.size(), static_cast<std::size_t>(kSeeds));

  for (const int threads : kThreadCounts) {
    ThreadPool::set_global_threads(threads);
    const SeedSweep sweep = run_seed_sweep(netlist, base, kSeeds, judge);
    ASSERT_EQ(sweep.runs.size(), reference.runs.size());
    for (std::size_t s = 0; s < sweep.runs.size(); ++s) {
      // Same seed -> same annealing trajectory -> same solution, metrics
      // and judging verdict, whichever thread ran it.
      EXPECT_EQ(sweep.runs[s].solution.representation,
                reference.runs[s].solution.representation)
          << "threads=" << threads << " seed " << s;
      EXPECT_EQ(sweep.runs[s].solution.metrics.cost,
                reference.runs[s].solution.metrics.cost);
      EXPECT_EQ(sweep.runs[s].solution.metrics.congestion,
                reference.runs[s].solution.metrics.congestion);
      EXPECT_EQ(sweep.runs[s].judging_cost, reference.runs[s].judging_cost);
    }
    EXPECT_EQ(sweep.best().solution.metrics.cost,
              reference.best().solution.metrics.cost);
    EXPECT_EQ(sweep.mean_judging(), reference.mean_judging());
    EXPECT_EQ(sweep.mean_congestion(), reference.mean_congestion());
  }
}

}  // namespace
}  // namespace ficon
