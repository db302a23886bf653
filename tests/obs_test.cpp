// Observability layer: the telemetry must be a pure observer (enabling it
// never changes results, at any thread count), each fact must have one
// record that agrees with the run it observed, and the JSONL export must
// round-trip through the validator.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "ficon.hpp"

namespace ficon {
namespace {

/// Every test starts from zeroed sinks and leaves tracing disabled so the
/// rest of the suite runs untraced.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::reset();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::reset();
    ThreadPool::set_global_threads(ThreadPool::env_threads());
  }
};

FloorplanOptions small_run_options() {
  FloorplanOptions options;
  options.seed = 7;
  options.effort = 0.05;
  options.objective.alpha = 1.0;
  options.objective.beta = 1.0;
  options.objective.gamma = 0.4;
  options.objective.model = CongestionModelKind::kIrregularGrid;
  options.objective.irregular.grid_w = 30.0;
  options.objective.irregular.grid_h = 30.0;
  return options;
}

TEST_F(ObsTest, TracingIsBitIdenticalAcrossToggleAndThreadCounts) {
  const Netlist netlist = make_mcnc("apte");
  const FloorplanOptions options = small_run_options();

  // Reference: tracing off, single thread.
  ThreadPool::set_global_threads(1);
  const FloorplanSolution reference = Floorplanner(netlist, options).run();

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool::set_global_threads(threads);
    for (const bool tracing : {false, true}) {
      obs::set_trace_enabled(tracing);
      obs::reset();
      const FloorplanSolution sol = Floorplanner(netlist, options).run();
      EXPECT_EQ(sol.metrics.cost, reference.metrics.cost)
          << "threads=" << threads << " tracing=" << tracing;
      EXPECT_EQ(sol.metrics.area, reference.metrics.area)
          << "threads=" << threads << " tracing=" << tracing;
      EXPECT_EQ(sol.metrics.wirelength, reference.metrics.wirelength)
          << "threads=" << threads << " tracing=" << tracing;
      EXPECT_EQ(sol.metrics.congestion, reference.metrics.congestion)
          << "threads=" << threads << " tracing=" << tracing;
      obs::set_trace_enabled(false);
    }
  }
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  const Netlist netlist = make_mcnc("apte");
  ASSERT_FALSE(obs::trace_enabled());
  (void)Floorplanner(netlist, small_run_options()).run();
  const obs::TraceReport report = obs::capture();
  for (int c = 0; c < obs::kCounterCount; ++c) {
    EXPECT_EQ(report.counters[static_cast<std::size_t>(c)], 0)
        << obs::counter_name(static_cast<obs::Counter>(c));
  }
  EXPECT_TRUE(report.anneal.empty());
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    EXPECT_EQ(report.phases[static_cast<std::size_t>(p)].count, 0)
        << obs::phase_name(static_cast<obs::Phase>(p));
  }
}

TEST_F(ObsTest, HistBucketIndexIsLogBaseTwo) {
  // Bucket 0 holds v <= 0 plus nothing else; bucket b >= 1 holds
  // [2^(b-1), 2^b). The bucket edges, hist_bucket_lo and hist_bucket_hi,
  // depend on exactly this placement.
  EXPECT_EQ(obs::hist_bucket(-5), 0);
  EXPECT_EQ(obs::hist_bucket(0), 0);
  EXPECT_EQ(obs::hist_bucket(1), 1);
  EXPECT_EQ(obs::hist_bucket(2), 2);
  EXPECT_EQ(obs::hist_bucket(3), 2);
  EXPECT_EQ(obs::hist_bucket(4), 3);
  EXPECT_EQ(obs::hist_bucket(1023), 10);
  EXPECT_EQ(obs::hist_bucket(1024), 11);
  // Saturates at the last bucket instead of indexing out of range.
  EXPECT_EQ(obs::hist_bucket((1LL << 62) + 1), obs::kHistBuckets - 1);
}

TEST_F(ObsTest, QuantileBoundCoversTheTopBucket) {
  // The top bucket holds every sample from 2^62 up; its quantile bound is
  // the edge the JSONL writes for it, not 2^62, which is below them.
  const long long sample = (1LL << 62) + 1;
  obs::HistSnapshot h;
  h.buckets[static_cast<std::size_t>(obs::hist_bucket(sample))] = 1;
  h.count = 1;
  h.sum = sample;
  EXPECT_GE(h.quantile_upper_bound(1.0), sample);
  EXPECT_EQ(h.quantile_upper_bound(1.0),
            obs::hist_bucket_hi(obs::kHistBuckets - 1));
  // Below the top, a bucket's bound is its upper edge, 2^b.
  h.buckets = {};
  h.buckets[static_cast<std::size_t>(obs::hist_bucket(1000))] = 1;
  EXPECT_EQ(h.quantile_upper_bound(0.5), 1024);
  EXPECT_EQ(obs::hist_bucket_lo(obs::hist_bucket(1000)), 512);
}

TEST_F(ObsTest, LatencyHistogramsTrackPhaseCallCounts) {
  // A phase is its latency histogram: one sample per ScopedPhase, so its
  // bucket counts sum to its calls and its sum is its total time.
  obs::set_trace_enabled(true);
  const Netlist netlist = make_mcnc("apte");
  (void)Floorplanner(netlist, small_run_options()).run();
  const obs::TraceReport report = obs::capture();

  for (int p = 0; p < obs::kPhaseCount; ++p) {
    const obs::Phase phase = static_cast<obs::Phase>(p);
    const obs::HistSnapshot& snap = report.phase(phase);
    EXPECT_EQ(report.phase_call_count(phase), snap.count);
    EXPECT_EQ(report.phase_seconds(phase),
              static_cast<double>(snap.sum) * 1e-9);
    long long total = 0;
    for (const long long b : snap.buckets) total += b;
    EXPECT_EQ(total, snap.count) << obs::phase_name(phase);
    EXPECT_GT(snap.count, 0) << obs::phase_name(phase);
    EXPECT_LE(snap.quantile_upper_bound(0.5), snap.quantile_upper_bound(0.99))
        << obs::phase_name(phase);
  }
}

/// The value cell of the summary row whose first cell is `label`.
std::string summary_value(const std::string& summary,
                          const std::string& label) {
  std::istringstream lines(summary);
  std::string line;
  const std::string prefix = "| " + label + " ";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t bar = line.find(" | ", prefix.size() - 1);
    if (bar == std::string::npos) return "";
    std::string cell = line.substr(bar + 3);
    cell.erase(cell.find_last_not_of(" |") + 1);
    return cell;
  }
  return "";
}

TEST_F(ObsTest, AnnealRecordsAgreeWithTheRunAndTheSummary) {
  // The temperature records are the annealer's one record: they must
  // add up to the run's own AnnealStats, and the summary prints their
  // totals.
  obs::set_trace_enabled(true);
  const Netlist netlist = make_mcnc("apte");
  const FloorplanSolution sol =
      Floorplanner(netlist, small_run_options()).run();
  const obs::TraceReport report = obs::capture();

  EXPECT_EQ(report.counter(obs::Counter::kAnnealRuns), 1);
  EXPECT_EQ(static_cast<long long>(report.anneal.size()),
            sol.stats.temperature_steps);
  long long proposed = 0;
  long long accepted = 0;
  for (const obs::AnnealEvent& e : report.anneal) {
    proposed += e.proposed;
    accepted += e.accepted;
    long long by_kind = 0;
    for (const long long k : e.proposed_by_kind) by_kind += k;
    EXPECT_EQ(by_kind, e.proposed);
    by_kind = 0;
    for (const long long k : e.accepted_by_kind) by_kind += k;
    EXPECT_EQ(by_kind, e.accepted);
    EXPECT_LE(e.accepted, e.proposed);
    EXPECT_LE(e.uphill_accepted, e.accepted);
  }
  EXPECT_EQ(proposed, sol.stats.moves_proposed);
  EXPECT_EQ(accepted, sol.stats.moves_accepted);
  EXPECT_GT(proposed, 0);

  std::ostringstream out;
  obs::write_summary(out, report);
  const std::string summary = out.str();
  EXPECT_EQ(summary_value(summary, "runs"), "1") << summary;
  EXPECT_EQ(summary_value(summary, "temperatures"),
            std::to_string(sol.stats.temperature_steps))
      << summary;
  EXPECT_EQ(summary_value(summary, "moves proposed"),
            std::to_string(sol.stats.moves_proposed))
      << summary;
  EXPECT_EQ(summary_value(summary, "moves accepted"),
            std::to_string(sol.stats.moves_accepted))
      << summary;

  // The phases the facade wraps all ran.
  EXPECT_GT(report.phase_call_count(obs::Phase::kPack), 0);
  EXPECT_GT(report.phase_call_count(obs::Phase::kDecompose), 0);
  EXPECT_GT(report.phase_call_count(obs::Phase::kCongestion), 0);
  EXPECT_GT(report.counter(obs::Counter::kIrEvaluations), 0);
}

TEST_F(ObsTest, PoolRowsAreOnePerThreadLabelAcrossPoolRebuilds) {
  // Sinks outlive their threads, and every rebuilt pool labels its
  // workers "worker-0", ... again. The capture must still hold one row
  // per label, and the rows must sum to pool_blocks, which counts each
  // block once. Blocks sleep so that the workers, not only the caller,
  // claim some.
  obs::set_trace_enabled(true);
  for (int rebuild = 0; rebuild < 3; ++rebuild) {
    ThreadPool::set_global_threads(3);
    for (int job = 0; job < 4; ++job) {
      ThreadPool::global().run(32, [](int) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      });
    }
  }
  const obs::TraceReport report = obs::capture();
  std::set<std::string> labels;
  long long tasks = 0;
  for (const obs::PoolThreadSample& t : report.pool_threads) {
    EXPECT_TRUE(labels.insert(t.thread).second) << "repeated row " << t.thread;
    tasks += t.tasks;
  }
  EXPECT_EQ(tasks, report.counter(obs::Counter::kPoolBlocks));
  EXPECT_EQ(tasks, 3 * 4 * 32);
}

TEST(ObsExitDeathTest, ThreadStartingDuringExitCanStillLabelItself) {
  // A pool worker can first run after main() returned, while static
  // destructors run, and it labels itself on entry. The handler below
  // runs after every static constructed later than its registration,
  // the sink registry included.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        std::atexit([] {
          std::thread([] { obs::set_thread_label("late"); }).join();
        });
        obs::set_thread_label("early");
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST_F(ObsTest, JsonlExportRoundTripsThroughValidator) {
  obs::set_trace_enabled(true);
  ThreadPool::set_global_threads(2);
  const Netlist netlist = make_mcnc("apte");
  const FloorplanSolution sol =
      Floorplanner(netlist, small_run_options()).run();
  const obs::TraceReport report = obs::capture();

  std::ostringstream jsonl;
  obs::write_jsonl(jsonl, report, "obs_test");
  obs::write_solution_jsonl(jsonl, sol.metrics.area, sol.metrics.wirelength,
                            sol.metrics.congestion, sol.metrics.cost,
                            sol.seconds);
  std::istringstream in(jsonl.str());
  std::string error;
  EXPECT_TRUE(obs::validate_trace(in, &error)) << error;

  // The export carries records from every instrumented layer.
  const std::string text = jsonl.str();
  EXPECT_NE(text.find("\"type\":\"meta\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"anneal_temperature\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"thread_pool\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"solution\""), std::string::npos);
  // Each fact has one record: no record or counter restates another.
  for (const char* restated :
       {"\"type\":\"hist\"", "\"type\":\"cache\"",
        "\"type\":\"anneal_summary\"", "\"name\":\"anneal_temperatures\"",
        "\"name\":\"anneal_moves_proposed\"",
        "\"name\":\"anneal_moves_accepted\"",
        "\"name\":\"anneal_uphill_accepted\"",
        "\"name\":\"anneal_stall_temperatures\"",
        "\"name\":\"pool_tasks\"", "accept_ratio_ppm"}) {
    EXPECT_EQ(text.find(restated), std::string::npos) << restated;
  }
  // Every phase record carries its latency buckets.
  std::istringstream lines(text);
  std::string line;
  int phases = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"type\":\"phase\"") == std::string::npos) continue;
    ++phases;
    EXPECT_NE(line.find("\"buckets\":[{"), std::string::npos) << line;
  }
  EXPECT_EQ(phases, obs::kPhaseCount);

  // The human summary renders without throwing and mentions each table.
  std::ostringstream summary;
  obs::write_summary(summary, report);
  EXPECT_NE(summary.str().find("annealer"), std::string::npos);
  EXPECT_NE(summary.str().find("cache"), std::string::npos);
  EXPECT_NE(summary.str().find("strategy"), std::string::npos);
  EXPECT_NE(summary.str().find("~p99 ns"), std::string::npos);
}

TEST_F(ObsTest, ResetZeroesEverything) {
  obs::set_trace_enabled(true);
  obs::count(obs::Counter::kIrEvaluations, 5);
  { const obs::ScopedPhase phase(obs::Phase::kPack); }
  obs::AnnealEvent event;
  event.run = obs::next_anneal_run();
  obs::record_anneal(event);
  obs::reset();
  const obs::TraceReport report = obs::capture();
  EXPECT_EQ(report.counter(obs::Counter::kIrEvaluations), 0);
  EXPECT_TRUE(report.anneal.empty());
  EXPECT_EQ(report.phase(obs::Phase::kPack).count, 0);
  EXPECT_EQ(report.phase(obs::Phase::kPack).sum, 0);
  for (const long long b : report.phase(obs::Phase::kPack).buckets) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(obs::next_anneal_run(), 0);  // run ids restart after reset
}

}  // namespace
}  // namespace ficon
