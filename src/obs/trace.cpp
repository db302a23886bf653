#include "obs/trace.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "obs/schema.hpp"
#include "util/env.hpp"
#include "util/mutex.hpp"

namespace ficon::obs {
namespace {

/// Per-thread histogram storage: relaxed-atomic bucket counts plus a
/// running sum, merged into `HistSnapshot`s by `capture()`. Each phase
/// has one.
struct HistSink {
  std::array<std::atomic<long long>, kHistBuckets> buckets{};
  std::atomic<long long> count{0};
  std::atomic<long long> sum{0};

  void record(long long v) {
    buckets[hist_bucket(v)].fetch_add(1, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_relaxed);
    sum.fetch_add(v, std::memory_order_relaxed);
  }
  void merge_into(HistSnapshot& merged) const {
    for (int b = 0; b < kHistBuckets; ++b) {
      merged.buckets[b] += buckets[b].load(std::memory_order_relaxed);
    }
    merged.count += count.load(std::memory_order_relaxed);
    merged.sum += sum.load(std::memory_order_relaxed);
  }
  void clear() {
    for (auto& b : buckets) b.store(0, std::memory_order_relaxed);
    count.store(0, std::memory_order_relaxed);
    sum.store(0, std::memory_order_relaxed);
  }
};

/// One sink per thread. Counters are relaxed atomics: they are pure
/// statistics, never used for synchronization, and `capture()` runs at
/// join points where the producing threads are quiescent. The
/// variable-size members (events, label) are guarded by the sink's own
/// mutex; lock order is registry.mutex before sink.mutex.
struct ThreadSink {
  std::array<std::atomic<long long>, kCounterCount> counters{};
  std::array<HistSink, kPhaseCount> phases{};
  Mutex mutex;
  std::vector<AnnealEvent> events FICON_GUARDED_BY(mutex);
  std::string label FICON_GUARDED_BY(mutex);
};

struct Registry {
  Mutex mutex;
  std::vector<std::shared_ptr<ThreadSink>> sinks FICON_GUARDED_BY(mutex);
};

/// Never destroyed: a pool worker can first register its sink after
/// main() returned, while static destructors run (the global pool joins
/// its workers only when its own static is destroyed).
Registry& registry() {
  static Registry& r = *new Registry;
  return r;
}

ThreadSink& local_sink() {
  thread_local std::shared_ptr<ThreadSink> sink = [] {
    auto s = std::make_shared<ThreadSink>();
    Registry& r = registry();
    const MutexLock lock(r.mutex);
    {
      const MutexLock sink_lock(s->mutex);
      s->label = "thread-" + std::to_string(r.sinks.size());
    }
    r.sinks.push_back(s);
    return s;
  }();
  return *sink;
}

struct TraceConfig {
  bool enabled = false;
  std::string path;
};

const TraceConfig& trace_config() {
  static const TraceConfig config = [] {
    TraceConfig c;
    const std::string v = env_string("FICON_TRACE", "");
    if (!v.empty() && v != "0" && v != "false" && v != "off") {
      c.enabled = true;
      if (v != "1" && v != "true" && v != "on") c.path = v;
    }
    return c;
  }();
  return config;
}

std::atomic<int> g_next_run{0};

// Reads FICON_TRACE once at static-init time so instrumented code sees
// the right toggle before main() runs.
struct EnvInit {
  EnvInit() {
    detail::g_enabled.store(trace_config().enabled,
                            std::memory_order_relaxed);
  }
};
EnvInit g_env_init;

thread_local int g_move_kind = 0;

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{false};

void count_slow(Counter c, long long n) {
  local_sink().counters[static_cast<int>(c)].fetch_add(
      n, std::memory_order_relaxed);
}

void record_phase_slow(Phase p, long long ns) {
  local_sink().phases[static_cast<int>(p)].record(ns);
}

}  // namespace detail

// The schema registry is the single source of truth for export names;
// these asserts pin the tables to the enums so a counter added without a
// registered name (or vice versa) is a compile error.
static_assert(std::size(schema::kCounterNames) == kCounterCount,
              "obs/schema.hpp counter-name table out of sync with Counter");
static_assert(std::size(schema::kPhaseNames) == kPhaseCount,
              "obs/schema.hpp phase-name table out of sync with Phase");

const char* counter_name(Counter c) {
  const int i = static_cast<int>(c);
  if (i < 0 || i >= kCounterCount) return "unknown";
  return schema::kCounterNames[i];
}

const char* phase_name(Phase p) {
  const int i = static_cast<int>(p);
  if (i < 0 || i >= kPhaseCount) return "unknown";
  return schema::kPhaseNames[i];
}

long long HistSnapshot::quantile_upper_bound(double fraction) const {
  if (count <= 0) return 0;
  const double target = fraction * static_cast<double>(count);
  long long cumulative = 0;
  for (int b = 0; b < kHistBuckets; ++b) {
    cumulative += buckets[b];
    if (static_cast<double>(cumulative) >= target) return hist_bucket_hi(b);
  }
  return hist_bucket_hi(kHistBuckets - 1);
}

void set_trace_enabled(bool enabled) {
  detail::g_enabled.store(enabled, std::memory_order_relaxed);
}

std::string trace_output_path() { return trace_config().path; }

void note_move_kind(int kind) { g_move_kind = kind; }

int take_move_kind() {
  const int kind = g_move_kind;
  g_move_kind = 0;
  return kind;
}

int next_anneal_run() {
  return g_next_run.fetch_add(1, std::memory_order_relaxed);
}

void record_anneal(const AnnealEvent& event) {
  ThreadSink& sink = local_sink();
  const MutexLock lock(sink.mutex);
  sink.events.push_back(event);
}

void set_thread_label(const std::string& label) {
  ThreadSink& sink = local_sink();
  const MutexLock lock(sink.mutex);
  sink.label = label;
}

TraceReport capture() {
  TraceReport report;
  // Pool blocks run and queue wait per thread label. Each dispatched block
  // counts once, on the thread that ran it. Sinks outlive their threads,
  // and a rebuilt pool labels its workers "worker-0", ... again, so every
  // label's sinks are summed into one row; the map keeps label order.
  std::map<std::string, PoolThreadSample> pool_threads;
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  for (const std::shared_ptr<ThreadSink>& sink : r.sinks) {
    for (int i = 0; i < kCounterCount; ++i) {
      report.counters[i] +=
          sink->counters[i].load(std::memory_order_relaxed);
    }
    for (int i = 0; i < kPhaseCount; ++i) {
      sink->phases[i].merge_into(report.phases[i]);
    }
    const long long blocks =
        sink->counters[static_cast<int>(Counter::kPoolBlocks)].load(
            std::memory_order_relaxed);
    const long long wait_ns =
        sink->counters[static_cast<int>(Counter::kPoolQueueWaitNs)].load(
            std::memory_order_relaxed);
    {
      const MutexLock sink_lock(sink->mutex);
      if (blocks > 0 || wait_ns > 0) {
        PoolThreadSample& row = pool_threads[sink->label];
        row.thread = sink->label;
        row.tasks += blocks;
        row.queue_wait_ns += wait_ns;
      }
      report.anneal.insert(report.anneal.end(), sink->events.begin(),
                           sink->events.end());
    }
  }
  for (auto& entry : pool_threads) {
    report.pool_threads.push_back(std::move(entry.second));
  }
  std::stable_sort(report.anneal.begin(), report.anneal.end(),
                   [](const AnnealEvent& a, const AnnealEvent& b) {
                     return a.run != b.run ? a.run < b.run
                                           : a.step < b.step;
                   });
  return report;
}

void reset() {
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  for (const std::shared_ptr<ThreadSink>& sink : r.sinks) {
    for (auto& c : sink->counters) c.store(0, std::memory_order_relaxed);
    for (HistSink& p : sink->phases) p.clear();
    const MutexLock sink_lock(sink->mutex);
    sink->events.clear();
  }
  g_next_run.store(0, std::memory_order_relaxed);
}

}  // namespace ficon::obs
