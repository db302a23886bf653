/// \file
/// Low-overhead, deterministic telemetry for the annealing/evaluation
/// pipeline.
///
/// Design goals, in priority order:
///
///  1. **Near-zero cost when disabled.** Every instrumentation site goes
///     through `trace_enabled()`, a single relaxed atomic load plus a
///     predictable branch. No allocation, no clock read, no lock is
///     reached unless tracing is on (`FICON_TRACE`).
///  2. **Never perturbs results.** Counters and timers are *observers*:
///     they read the pipeline, the pipeline never reads them. Each thread
///     writes to its own sink (registered once, on first use), so there is
///     no cross-thread contention that could reorder floating-point
///     reductions or change scheduling-visible behaviour. Aggregation
///     happens only in `capture()`, at a join point.
///  3. **Thread-safe under TSan.** Sinks are `std::atomic` counters with
///     relaxed ordering (they are statistics, not synchronization);
///     event vectors are mutex-guarded; the registry of sinks is
///     mutex-guarded and holds `shared_ptr`s so a sink outlives its
///     thread.
///
/// The `FICON_TRACE` environment variable controls the initial state:
/// unset/"0"/"false"/"off" leaves tracing disabled; "1"/"true"/"on"
/// enables it; any other value enables it *and* names a JSONL output
/// path that tools (`ficon_cli`, the benches) honour via
/// `trace_output_path()`. Tests flip the toggle at runtime with
/// `set_trace_enabled()`.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

namespace ficon::obs {

/// Every typed counter in the system. Names (see `counter_name`) are
/// stable identifiers used in the JSONL export — extend at the end of a
/// section rather than reordering.
enum class Counter : int {
  // Annealer. Its temperatures and moves are the `AnnealEvent` records;
  // a run cancelled before its first temperature leaves none, so the run
  // count is not a sum of them.
  kAnnealRuns = 0,
  // Incremental-pipeline caches.
  kScoreMemoHits,
  kScoreMemoMisses,
  kScoreMemoEvictions,
  kPackCacheIncremental,
  kPackCacheFullRebuilds,
  kPackCacheNodesRecomputed,
  kPackCacheNodesTotal,
  kDecomposeCalls,
  kDecomposeNetsReused,
  kDecomposeNetsRecomputed,
  // Irregular-grid congestion model.
  kIrEvaluations,
  kIrNetsScored,
  kIrNetsDegenerate,
  kIrRegionsTheorem1,
  kIrRegionsExact,
  kIrRegionsBanded,
  kIrRegionsCertain,
  kIrTheorem1ExactFallbacks,
  kIrBandSteps,
  // Fixed-grid (judging) congestion model.
  kFixedEvaluations,
  kFixedNetsScored,
  // Thread pool.
  kPoolJobs,
  kPoolBlocks,
  kPoolInlineBlocks,
  kPoolQueueWaitNs,
  kCount,
};

inline constexpr int kCounterCount = static_cast<int>(Counter::kCount);

/// Stable snake_case identifier for the JSONL export.
const char* counter_name(Counter c);

/// Facade phases timed by `ScopedPhase`. Each phase is its per-call
/// latency histogram (nanoseconds): its count is the phase's calls and
/// its sum the phase's total time. A new phase is one entry here and one
/// name in `obs/schema.hpp::kPhaseNames`.
enum class Phase : int {
  kPack = 0,
  kDecompose,
  kCongestion,
  kCount,
};

inline constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

const char* phase_name(Phase p);

/// Power-of-two buckets: index 0 holds values <= 0, index b >= 1 holds
/// [2^(b-1), 2^b). 64 buckets cover the full non-negative long long
/// range.
inline constexpr int kHistBuckets = 64;

/// Bucket index for a sample (pure; shared by recorder and tests).
inline int hist_bucket(long long v) {
  if (v <= 0) return 0;
  int b = 0;
  unsigned long long u = static_cast<unsigned long long>(v);
  while (u != 0) {
    u >>= 1;
    ++b;
  }
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

/// Inclusive lower edge of bucket `b`.
inline constexpr long long hist_bucket_lo(int b) {
  return b == 0 ? 0 : 1LL << (b - 1);
}

/// Exclusive upper edge of bucket `b`. The top bucket holds every sample
/// from 2^62 up, so its edge is LLONG_MAX.
inline constexpr long long hist_bucket_hi(int b) {
  if (b == 0) return 1;
  if (b >= kHistBuckets - 1) return std::numeric_limits<long long>::max();
  return 1LL << b;
}

namespace detail {

extern std::atomic<bool> g_enabled;

void count_slow(Counter c, long long n);
void record_phase_slow(Phase p, long long ns);

}  // namespace detail

/// One relaxed load + branch; the only cost paid when tracing is off.
inline bool trace_enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Runtime toggle (tests use this; tools inherit `FICON_TRACE`).
void set_trace_enabled(bool enabled);

/// JSONL output path named by `FICON_TRACE` (empty when the variable is
/// unset or a plain on/off token).
std::string trace_output_path();

/// Add `n` to counter `c` on the calling thread's sink. No-op (one load,
/// one branch) when tracing is disabled.
inline void count(Counter c, long long n = 1) {
  if (trace_enabled()) detail::count_slow(c, n);
}

/// RAII span timer for a facade phase: one sample, the span's
/// nanoseconds, into the phase's histogram. Reads the clock only when
/// tracing is enabled at construction.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase)
      : phase_(phase), active_(trace_enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhase() {
    if (active_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      detail::record_phase_slow(phase_, ns);
    }
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Phase phase_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

/// Move-kind side channel. The neighbour functors return the move kind
/// (1..3, 0 = none) from `random_move`, but the annealer's accept loop is
/// representation-agnostic; the functor deposits the kind here and the
/// annealer collects it with `take_move_kind()`. Thread-local, so
/// concurrent annealing runs (seed sweeps) do not interleave.
void note_move_kind(int kind);
int take_move_kind();

inline constexpr int kMoveKinds = 4;  // index 0 = unknown/none, 1..3 = M1..M3.

/// Per-temperature annealer record.
struct AnnealEvent {
  int run = 0;   ///< Which annealer run (monotonic id within a process).
  int step = 0;  ///< Temperature step within the run.
  double temperature = 0.0;
  long long proposed = 0;
  long long accepted = 0;
  long long uphill_accepted = 0;
  std::array<long long, kMoveKinds> proposed_by_kind{};
  std::array<long long, kMoveKinds> accepted_by_kind{};
  double accepted_delta_sum = 0.0;  ///< Sum of accepted cost deltas.
  double current_cost = 0.0;
  double best_cost = 0.0;
  int stall = 0;  ///< Stall counter after this temperature.
};

/// Monotonic id for the next annealer run (used as AnnealEvent::run).
int next_anneal_run();

/// Record a per-temperature event on the calling thread's sink.
void record_anneal(const AnnealEvent& event);

/// Label the calling thread in thread-pool samples ("main", "worker-0",
/// ...). Threads that never call this keep a registration-order label.
void set_thread_label(const std::string& label);

/// Thread-pool activity of one thread label, summed over every thread
/// that carried it (a rebuilt pool reuses "worker-0", ...).
struct PoolThreadSample {
  std::string thread;
  long long tasks = 0;  ///< The label's `pool_blocks`: blocks it ran.
  long long queue_wait_ns = 0;
};

/// Merged snapshot of one log-bucketed histogram.
struct HistSnapshot {
  std::array<long long, kHistBuckets> buckets{};
  long long count = 0;  ///< Total samples (== sum of bucket counts).
  long long sum = 0;    ///< Sum of raw sample values.

  /// Upper edge of the bucket where the cumulative count first reaches
  /// `fraction` of the total (a conservative quantile estimate).
  long long quantile_upper_bound(double fraction) const;
};

/// Aggregated snapshot of every sink, merged at a join point.
struct TraceReport {
  std::array<long long, kCounterCount> counters{};
  std::array<HistSnapshot, kPhaseCount> phases{};  ///< Per-call latency, ns.
  std::vector<PoolThreadSample> pool_threads;  ///< One per label, sorted.
  std::vector<AnnealEvent> anneal;  ///< Sorted by (run, step).

  long long counter(Counter c) const {
    return counters[static_cast<int>(c)];
  }
  const HistSnapshot& phase(Phase p) const {
    return phases[static_cast<int>(p)];
  }
  double phase_seconds(Phase p) const {
    return static_cast<double>(phase(p).sum) * 1e-9;
  }
  long long phase_call_count(Phase p) const { return phase(p).count; }
};

/// Merge every registered sink into one report. Safe to call while other
/// threads are idle (the pipeline's own join points); not intended to be
/// called concurrently with active instrumentation.
TraceReport capture();

/// Zero all sinks and the run-id counter (the registry itself persists —
/// thread sinks are registered once per thread).
void reset();

}  // namespace ficon::obs
