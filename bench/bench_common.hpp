// Shared configuration for the benches.
//
// Every bench prints a banner describing how the run is scaled relative to
// the paper (20 seeds, full annealing schedules on a 2.4 GHz P4). Set
// FICON_SEEDS=20 FICON_SCALE=1.0 to reproduce at paper scale.
#pragma once

#include <functional>
#include <string>

#include "ficon.hpp"

namespace ficon::bench {

/// Mean wall-clock milliseconds of `fn` over `repeats` runs.
inline double timed_ms(const std::function<void()>& fn, int repeats) {
  FICON_REQUIRE(repeats > 0, "need at least one repeat");
  Stopwatch sw;
  for (int i = 0; i < repeats; ++i) fn();
  return sw.milliseconds() / repeats;
}

/// Annealing options tuned for the reproduction benches.
inline FloorplanOptions tuned_options(const ExperimentConfig& config) {
  FloorplanOptions o;
  o.effort = config.scale;
  o.anneal.cooling = 0.90;
  o.anneal.max_stall_temperatures = 8;
  o.anneal.stop_temperature_ratio = 1e-4;
  return o;
}

/// Congestion weight for the Table 2/3 objective. The paper does not state
/// its alpha/beta/gamma; 0.4 reproduces its trade-off at our reduced SA
/// effort (judged congestion clearly improves at a few percent of area /
/// wire penalty — see the gamma sweep in EXPERIMENTS.md). FICON_GAMMA
/// overrides.
inline double congestion_gamma() { return env_double("FICON_GAMMA", 0.4); }

/// The paper's per-circuit IR-grid fine pitch (Table 2): 60x60 um^2 for
/// apte, 30x30 um^2 for the others.
inline IrregularGridParams paper_ir_params(const std::string& circuit) {
  IrregularGridParams p;
  const double pitch = circuit == "apte" ? 60.0 : 30.0;
  p.grid_w = pitch;
  p.grid_h = pitch;
  return p;
}

/// Same pitches but forcing the paper's actual algorithm: Theorem 1 per
/// region, with the library's accuracy-first exact fallbacks narrowed so
/// the approximation really is what runs on MCNC-scale ranges.
inline IrregularGridParams paper_mode_params(const std::string& circuit) {
  IrregularGridParams p = paper_ir_params(circuit);
  p.strategy = IrEvalStrategy::kTheorem1;
  p.approx.narrow_range_threshold = 5;
  p.approx.small_region_threshold = 4;
  return p;
}

}  // namespace ficon::bench
