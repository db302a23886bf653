// The benchmark's four workloads. Each builds its inputs from the seed,
// measures a fixed amount of work sized from `seconds`, checks the
// outputs, and returns either the end-to-end metrics (trace off) or the
// per-layer metrics of a traced pass (trace on).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// End-to-end metrics every untraced run prints, in order.
const std::vector<MetricSpec>& end_to_end_metrics();

/// Per-layer metrics every traced run prints, in order; a layer that a
/// workload does not pass through reports 0.
const std::vector<MetricSpec>& per_layer_metrics();

/// Run one workload. Throws std::invalid_argument for an unknown name.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
