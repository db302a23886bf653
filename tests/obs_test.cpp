// Observability layer: the telemetry must be a pure observer (enabling it
// never changes results, at any thread count), its counters and
// histograms must agree with each other, and the JSONL export must
// round-trip through the validator.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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
  for (int h = 0; h < obs::kHistCount; ++h) {
    EXPECT_EQ(report.hists[static_cast<std::size_t>(h)].count, 0)
        << obs::hist_name(static_cast<obs::Hist>(h));
  }
}

TEST_F(ObsTest, HistBucketIndexIsLogBaseTwo) {
  // Bucket 0 holds v <= 0 plus nothing else; bucket b >= 1 holds
  // [2^(b-1), 2^b). The JSONL bounds in report.cpp depend on exactly this
  // placement.
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

TEST_F(ObsTest, LatencyHistogramsTrackPhaseCallCounts) {
  // A phase is its latency histogram: one sample per ScopedPhase, so its
  // bucket counts sum to its calls and its sum is its total time.
  obs::set_trace_enabled(true);
  const Netlist netlist = make_mcnc("apte");
  (void)Floorplanner(netlist, small_run_options()).run();
  const obs::TraceReport report = obs::capture();

  // One accept-ratio sample per temperature with at least one proposal.
  long long proposing_temps = 0;
  for (const obs::AnnealEvent& e : report.anneal) {
    if (e.proposed > 0) ++proposing_temps;
  }
  EXPECT_EQ(report.hist(obs::Hist::kAcceptRatioPpm).count, proposing_temps);

  std::vector<std::pair<std::string, const obs::HistSnapshot*>> snapshots;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    const obs::Phase phase = static_cast<obs::Phase>(p);
    snapshots.emplace_back(obs::phase_name(phase), &report.phase(phase));
    EXPECT_EQ(report.phase_call_count(phase), report.phase(phase).count);
    EXPECT_EQ(report.phase_seconds(phase),
              static_cast<double>(report.phase(phase).sum) * 1e-9);
  }
  for (int h = 0; h < obs::kHistCount; ++h) {
    const obs::Hist hist = static_cast<obs::Hist>(h);
    snapshots.emplace_back(obs::hist_name(hist), &report.hist(hist));
  }
  for (const auto& [name, snap] : snapshots) {
    long long total = 0;
    for (const long long b : snap->buckets) total += b;
    EXPECT_EQ(total, snap->count) << name;
    EXPECT_GT(snap->count, 0) << name;
    EXPECT_GE(snap->mean(), 0.0) << name;
    EXPECT_LE(snap->quantile_upper_bound(0.5),
              snap->quantile_upper_bound(0.99))
        << name;
  }
}

TEST_F(ObsTest, AnnealEventsAreConsistentWithCounterTotals) {
  obs::set_trace_enabled(true);
  const Netlist netlist = make_mcnc("apte");
  (void)Floorplanner(netlist, small_run_options()).run();
  const obs::TraceReport report = obs::capture();

  EXPECT_EQ(report.counter(obs::Counter::kAnnealRuns), 1);
  EXPECT_EQ(report.counter(obs::Counter::kAnnealTemperatures),
            static_cast<long long>(report.anneal.size()));
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
  EXPECT_EQ(report.counter(obs::Counter::kAnnealMovesProposed), proposed);
  EXPECT_EQ(report.counter(obs::Counter::kAnnealMovesAccepted), accepted);
  EXPECT_GT(proposed, 0);

  // The phases the facade wraps all ran.
  EXPECT_GT(report.phase_call_count(obs::Phase::kPack), 0);
  EXPECT_GT(report.phase_call_count(obs::Phase::kDecompose), 0);
  EXPECT_GT(report.phase_call_count(obs::Phase::kCongestion), 0);
  EXPECT_GT(report.counter(obs::Counter::kIrEvaluations), 0);
}

TEST_F(ObsTest, PoolRowsAreOnePerThreadLabelAcrossPoolRebuilds) {
  // Sinks outlive their threads, and every rebuilt pool labels its
  // workers "worker-0", ... again. The capture must still hold one row
  // per label, and the rows must account for every pool task. Blocks
  // sleep so that the workers, not only the caller, claim some.
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
  EXPECT_EQ(tasks, report.counter(obs::Counter::kPoolTasks));
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
  EXPECT_NE(text.find("\"type\":\"hist\""), std::string::npos);
  // Counters are the one record of cache and annealer totals.
  EXPECT_EQ(text.find("\"type\":\"cache\""), std::string::npos);
  EXPECT_EQ(text.find("\"type\":\"anneal_summary\""), std::string::npos);
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
  EXPECT_NE(summary.str().find("histogram"), std::string::npos);
  EXPECT_NE(summary.str().find("~p99 ns"), std::string::npos);
}

TEST_F(ObsTest, ResetZeroesEverything) {
  obs::set_trace_enabled(true);
  obs::count(obs::Counter::kIrEvaluations, 5);
  obs::record_hist(obs::Hist::kAcceptRatioPpm, 1234);
  { const obs::ScopedPhase phase(obs::Phase::kPack); }
  obs::AnnealEvent event;
  event.run = obs::next_anneal_run();
  obs::record_anneal(event);
  obs::reset();
  const obs::TraceReport report = obs::capture();
  EXPECT_EQ(report.counter(obs::Counter::kIrEvaluations), 0);
  EXPECT_TRUE(report.anneal.empty());
  EXPECT_EQ(report.hist(obs::Hist::kAcceptRatioPpm).count, 0);
  EXPECT_EQ(report.hist(obs::Hist::kAcceptRatioPpm).sum, 0);
  EXPECT_EQ(report.phase(obs::Phase::kPack).count, 0);
  EXPECT_EQ(report.phase(obs::Phase::kPack).sum, 0);
  for (const long long b : report.phase(obs::Phase::kPack).buckets) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(obs::next_anneal_run(), 0);  // run ids restart after reset
}

}  // namespace
}  // namespace ficon
