// Generic simulated-annealing engine.
//
// The paper's floorplanner is "based on simulated annealing algorithm with
// normalized Polish expression [7]". The engine is kept generic over the
// state type so the floorplanner, tests and ablation experiments can reuse
// it. Classic geometric schedule:
//   * T0 calibrated from the average uphill move of a warm-up random walk
//     so the initial acceptance probability is `initial_accept`,
//   * T <- cooling * T after `moves_per_temperature` proposed moves,
//   * stop when T drops below stop_temperature_ratio * T0 or when
//     `max_stall_temperatures` consecutive temperatures made no progress.
//
// "Progress" for the stall counter means the temperature either produced a
// new global best *or* left `current_cost` strictly below where the
// temperature started. The second clause matters: after a large uphill
// excursion the walk can spend many temperatures descending back toward
// (but not yet beating) the global best — that descent is productive search
// and must not trip the early stop. Only temperatures where the walk is
// genuinely treading water count toward the stall limit.
//
// A per-temperature snapshot hook exposes the locally-optimized
// intermediate solutions — Experiment 2 (Figure 9) plots exactly these.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ficon {

struct AnnealOptions {
  static constexpr double initial_accept = 0.90;  ///< target P(accept) at T0
  double cooling = 0.90;              ///< geometric temperature factor
  int moves_per_temperature = 100;
  double stop_temperature_ratio = 1e-4;
  int max_stall_temperatures = 8;
  static constexpr int warmup_samples = 60;  ///< random walk length for T0
  /// Cooperative cancellation hook (empty = never cancel). Polled at
  /// every temperature step and every 64 proposed moves; when it returns
  /// true the run stops early and returns the best state found so far
  /// with stats.cancelled set. The poll is a pure read — as long as it
  /// keeps returning false the run is bit-identical to one with no hook
  /// installed (the service layer's determinism rests on this).
  std::function<bool()> should_stop;
};

struct AnnealStats {
  int temperature_steps = 0;
  long long moves_proposed = 0;
  long long moves_accepted = 0;
  double initial_temperature = 0.0;
  double final_temperature = 0.0;
  bool cancelled = false;  ///< should_stop() fired before convergence
};

template <typename State>
class Annealer {
 public:
  using CostFn = std::function<double(const State&)>;
  using NeighborFn = std::function<State(const State&, Rng&)>;
  /// step (0-based temperature index), temperature, current state, its cost.
  using SnapshotFn =
      std::function<void(int, double, const State&, double)>;

  struct Result {
    State best;
    double best_cost = 0.0;
    AnnealStats stats;
  };

  Annealer(CostFn cost, NeighborFn neighbor, AnnealOptions options)
      : cost_(std::move(cost)),
        neighbor_(std::move(neighbor)),
        options_(options) {
    FICON_REQUIRE(options.cooling > 0.0 && options.cooling < 1.0,
                  "cooling factor must be in (0,1)");
    FICON_REQUIRE(options.moves_per_temperature > 0, "no moves per level");
  }

  Result run(State initial, Rng& rng, SnapshotFn snapshot = {}) const {
    Result result{initial, cost_(initial), {}};
    State current = std::move(initial);
    double current_cost = result.best_cost;

    double t = initial_temperature(current, rng);
    result.stats.initial_temperature = t;
    const double t_stop = t * options_.stop_temperature_ratio;

    // Telemetry is a pure observer: when tracing is off this is one
    // relaxed load; when on, each temperature is one record on the calling
    // thread's sink and nothing here touches the RNG stream or the accept
    // decisions.
    const bool tracing = obs::trace_enabled();
    const int trace_run = tracing ? obs::next_anneal_run() : 0;
    if (tracing) obs::count(obs::Counter::kAnnealRuns);

    const auto cancel_requested = [this] {
      return options_.should_stop && options_.should_stop();
    };

    int stall = 0;
    for (int step = 0; t > t_stop && stall < options_.max_stall_temperatures;
         ++step) {
      if (cancel_requested()) {
        result.stats.cancelled = true;
        break;
      }
      bool improved = false;
      const double cost_at_start = current_cost;
      obs::AnnealEvent event;
      for (int mv = 0; mv < options_.moves_per_temperature; ++mv) {
        if ((mv & 63) == 0 && mv != 0 && cancel_requested()) {
          result.stats.cancelled = true;
          break;
        }
        State candidate = neighbor_(current, rng);
        const double candidate_cost = cost_(candidate);
        ++result.stats.moves_proposed;
        const double delta = candidate_cost - current_cost;
        // The neighbour functor deposits its move kind (1..3, 0 when it
        // does not report one) in a thread-local side channel.
        const int kind =
            tracing ? std::clamp(obs::take_move_kind(), 0,
                                 obs::kMoveKinds - 1)
                    : 0;
        if (tracing) {
          ++event.proposed;
          ++event.proposed_by_kind[static_cast<std::size_t>(kind)];
        }
        if (delta <= 0.0 || rng.uniform() < std::exp(-delta / t)) {
          current = std::move(candidate);
          current_cost = candidate_cost;
          ++result.stats.moves_accepted;
          if (tracing) {
            ++event.accepted;
            ++event.accepted_by_kind[static_cast<std::size_t>(kind)];
            if (delta > 0.0) ++event.uphill_accepted;
            event.accepted_delta_sum += delta;
          }
          if (current_cost < result.best_cost) {
            result.best = current;
            result.best_cost = current_cost;
            improved = true;
          }
        }
      }
      // A cancelled temperature is partial work: stop before counting it
      // or feeding it to the snapshot/trace consumers.
      if (result.stats.cancelled) break;
      ++result.stats.temperature_steps;
      if (snapshot) snapshot(step, t, current, current_cost);
      // See the header comment: descending back from an uphill excursion
      // (current_cost < cost_at_start) resets the stall counter even when
      // the global best did not move.
      stall = (improved || current_cost < cost_at_start) ? 0 : stall + 1;
      if (tracing) {
        event.run = trace_run;
        event.step = step;
        event.temperature = t;
        event.current_cost = current_cost;
        event.best_cost = result.best_cost;
        event.stall = stall;
        obs::record_anneal(event);
      }
      t *= options_.cooling;
    }
    result.stats.final_temperature = t;
    return result;
  }

 private:
  /// T0 = -avg_uphill / ln(p0), from a short random walk; falls back to a
  /// cost-scale heuristic if the walk saw no uphill move.
  double initial_temperature(const State& start, Rng& rng) const {
    State walker = start;
    double walker_cost = cost_(walker);
    double uphill_sum = 0.0;
    int uphill_count = 0;
    for (int i = 0; i < options_.warmup_samples; ++i) {
      State next = neighbor_(walker, rng);
      const double next_cost = cost_(next);
      if (next_cost > walker_cost) {
        uphill_sum += next_cost - walker_cost;
        ++uphill_count;
      }
      walker = std::move(next);
      walker_cost = next_cost;
    }
    if (uphill_count == 0) {
      return std::max(1e-12, std::abs(walker_cost)) * 0.1;
    }
    const double avg_uphill = uphill_sum / uphill_count;
    return -avg_uphill / std::log(options_.initial_accept);
  }

  CostFn cost_;
  NeighborFn neighbor_;
  AnnealOptions options_;
};

}  // namespace ficon
