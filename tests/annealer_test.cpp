// Generic simulated-annealing engine tests.
#include <cmath>

#include <gtest/gtest.h>

#include "anneal/annealer.hpp"

namespace ficon {
namespace {

/// Toy problem: minimize (x - 7)^2 over integers via +-1 moves.
Annealer<int> quadratic_annealer(AnnealOptions opts = {}) {
  return Annealer<int>(
      [](const int& x) { return static_cast<double>((x - 7) * (x - 7)); },
      [](const int& x, Rng& rng) { return rng.chance(0.5) ? x + 1 : x - 1; },
      opts);
}

TEST(Annealer, SolvesToyProblem) {
  AnnealOptions opts;
  opts.moves_per_temperature = 50;
  auto annealer = quadratic_annealer(opts);
  Rng rng(1);
  const auto result = annealer.run(100, rng);
  EXPECT_EQ(result.best, 7);
  EXPECT_EQ(result.best_cost, 0.0);
  EXPECT_GT(result.stats.temperature_steps, 0);
  EXPECT_GT(result.stats.moves_accepted, 0);
  EXPECT_GE(result.stats.moves_proposed, result.stats.moves_accepted);
}

TEST(Annealer, DeterministicPerSeed) {
  auto a = quadratic_annealer();
  auto b = quadratic_annealer();
  Rng r1(42), r2(42);
  const auto ra = a.run(50, r1);
  const auto rb = b.run(50, r2);
  EXPECT_EQ(ra.best, rb.best);
  EXPECT_EQ(ra.stats.moves_proposed, rb.stats.moves_proposed);
  EXPECT_EQ(ra.stats.moves_accepted, rb.stats.moves_accepted);
  EXPECT_DOUBLE_EQ(ra.stats.initial_temperature,
                   rb.stats.initial_temperature);
}

TEST(Annealer, SnapshotCalledOncePerTemperature) {
  AnnealOptions opts;
  opts.moves_per_temperature = 10;
  auto annealer = quadratic_annealer(opts);
  Rng rng(3);
  int calls = 0;
  int last_step = -1;
  double last_temp = 1e300;
  const auto result = annealer.run(
      40, rng, [&](int step, double temp, const int&, double) {
        EXPECT_EQ(step, last_step + 1);  // consecutive steps
        EXPECT_LT(temp, last_temp);      // strictly cooling
        last_step = step;
        last_temp = temp;
        ++calls;
      });
  EXPECT_EQ(calls, result.stats.temperature_steps);
}

TEST(Annealer, InitialTemperatureAcceptsUphill) {
  // At T0 a typical uphill move should be accepted with probability near
  // initial_accept: verify T0 is calibrated to the cost scale (uphill moves
  // on the toy problem near x=100 cost ~200).
  auto annealer = quadratic_annealer();
  Rng rng(4);
  const auto result = annealer.run(100, rng);
  EXPECT_GT(result.stats.initial_temperature, 100.0);
  EXPECT_LT(result.stats.final_temperature,
            result.stats.initial_temperature);
}

TEST(Annealer, StallTerminationStopsEarly) {
  AnnealOptions opts;
  opts.moves_per_temperature = 20;
  opts.max_stall_temperatures = 2;
  opts.stop_temperature_ratio = 1e-30;  // would run ~forever without stall
  auto annealer = quadratic_annealer(opts);
  Rng rng(5);
  const auto result = annealer.run(9, rng);
  EXPECT_EQ(result.best, 7);
  // With ratio 1e-30 and cooling 0.9, temperature termination would need
  // ~650 steps; stalling must cut it far shorter.
  EXPECT_LT(result.stats.temperature_steps, 200);
}

TEST(Annealer, StallResetsWhileDescendingFromExcursion) {
  // Pins the documented stall rule: a temperature that improves
  // current_cost — even without touching the global best — does NOT count
  // toward the stall limit. Landscape (deterministic +1 moves): the walk
  // hits the global best at x=1 (cost 1), climbs to x=2 (cost 90,
  // accepted while hot), then descends one unit per temperature down a
  // long ramp that never beats the best, and finally flattens out.
  // Counting only best-cost improvements would stop max_stall
  // temperatures after x=1 (~10 steps); counting current-cost progress
  // rides the whole ~58-temperature ramp and stalls only on the plateau.
  const auto cost = [](const int& x) {
    if (x <= 0) return 100.0;
    if (x == 1) return 1.0;
    if (x <= 60) return 90.0 - (x - 2);
    return 32.0;
  };
  AnnealOptions opts;
  opts.moves_per_temperature = 1;
  opts.max_stall_temperatures = 8;
  Annealer<int> annealer(
      cost, [](const int& x, Rng&) { return x + 1; }, opts);
  Rng rng(7);
  const auto result = annealer.run(0, rng);
  EXPECT_EQ(result.best, 1);
  EXPECT_DOUBLE_EQ(result.best_cost, 1.0);
  EXPECT_GT(result.stats.temperature_steps, 40);  // rode the ramp down
  EXPECT_LT(result.stats.temperature_steps, 85);  // stalled on the plateau
}

TEST(Annealer, GreedyAtLowTemperature) {
  // With aggressive cooling the end phase is effectively greedy: from any
  // start the result is a local (here global) optimum.
  AnnealOptions opts;
  opts.cooling = 0.5;
  opts.moves_per_temperature = 100;
  auto annealer = quadratic_annealer(opts);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    EXPECT_EQ(annealer.run(-50, rng).best, 7) << "seed " << seed;
  }
}

TEST(Annealer, RejectsBadOptions) {
  AnnealOptions bad;
  bad.cooling = 1.5;
  EXPECT_THROW(quadratic_annealer(bad), std::invalid_argument);
  AnnealOptions bad2;
  bad2.moves_per_temperature = 0;
  EXPECT_THROW(quadratic_annealer(bad2), std::invalid_argument);
}

TEST(Annealer, HandlesFlatCostSurface) {
  // No uphill moves ever: T0 falls back to the heuristic and the run
  // terminates normally.
  Annealer<int> flat([](const int&) { return 1.0; },
                     [](const int& x, Rng&) { return x + 1; },
                     AnnealOptions{});
  Rng rng(6);
  const auto result = flat.run(0, rng);
  EXPECT_EQ(result.best_cost, 1.0);
  EXPECT_GT(result.stats.initial_temperature, 0.0);
}

}  // namespace
}  // namespace ficon
