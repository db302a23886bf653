// Shape-keyed LRU memo for per-net IR-grid scoring.
#include <gtest/gtest.h>

#include "congestion/score_cache.hpp"
#include "obs/trace.hpp"

namespace ficon {
namespace {

/// Tracing on over zeroed sinks for one test's scope, so the test reads
/// the memo counters of its own lookups only.
class TracedScope {
 public:
  TracedScope() : was_enabled_(obs::trace_enabled()) {
    obs::reset();
    obs::set_trace_enabled(true);
  }
  ~TracedScope() {
    obs::set_trace_enabled(was_enabled_);
    obs::reset();
  }
  TracedScope(const TracedScope&) = delete;
  TracedScope& operator=(const TracedScope&) = delete;

 private:
  bool was_enabled_;
};

long long counter(obs::Counter c) { return obs::capture().counter(c); }

ScoreMemo::Key key(int v) { return ScoreMemo::Key{v, v + 1, v + 2}; }
ScoreMemo::Value value(double v) { return ScoreMemo::Value{v, 2 * v}; }

TEST(ScoreMemo, DisabledByDefaultAndAtZeroCapacity) {
  ScoreMemo memo;
  EXPECT_FALSE(memo.enabled());
  memo.insert(key(1), value(1.0));
  EXPECT_EQ(memo.find(key(1)), nullptr);
  EXPECT_EQ(memo.size(), 0u);
  memo.configure(0, 42);
  EXPECT_FALSE(memo.enabled());
}

TEST(ScoreMemo, FindReturnsInsertedValue) {
  const TracedScope traced;
  ScoreMemo memo;
  memo.configure(4, 1);
  EXPECT_TRUE(memo.enabled());
  EXPECT_EQ(memo.find(key(1)), nullptr);  // cold miss
  memo.insert(key(1), value(0.25));
  const ScoreMemo::Value* hit = memo.find(key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, value(0.25));
  EXPECT_EQ(counter(obs::Counter::kScoreMemoHits), 1);
  EXPECT_EQ(counter(obs::Counter::kScoreMemoMisses), 1);
  EXPECT_EQ(counter(obs::Counter::kScoreMemoEvictions), 0);
}

TEST(ScoreMemo, EvictsLeastRecentlyUsed) {
  const TracedScope traced;
  ScoreMemo memo;
  memo.configure(2, 1);
  memo.insert(key(1), value(1.0));
  memo.insert(key(2), value(2.0));
  ASSERT_NE(memo.find(key(1)), nullptr);  // refresh 1: now 2 is LRU
  memo.insert(key(3), value(3.0));        // evicts 2
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(counter(obs::Counter::kScoreMemoEvictions), 1);
  EXPECT_EQ(memo.find(key(2)), nullptr);
  EXPECT_NE(memo.find(key(1)), nullptr);
  EXPECT_NE(memo.find(key(3)), nullptr);
}

TEST(ScoreMemo, InsertOverwritesExistingKey) {
  ScoreMemo memo;
  memo.configure(2, 1);
  memo.insert(key(1), value(1.0));
  memo.insert(key(1), value(9.0));
  EXPECT_EQ(memo.size(), 1u);
  const ScoreMemo::Value* hit = memo.find(key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, value(9.0));
}

TEST(ScoreMemo, FingerprintChangeClearsEntries) {
  // Values are pure functions of (key, evaluation options); when the
  // options fingerprint changes the whole cache must go, or stale matrices
  // from another strategy would be served.
  ScoreMemo memo;
  memo.configure(4, 1);
  memo.insert(key(1), value(1.0));
  memo.configure(4, 1);  // same binding: entries survive
  EXPECT_EQ(memo.size(), 1u);
  memo.configure(4, 2);  // new fingerprint: cleared
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_EQ(memo.find(key(1)), nullptr);
  memo.insert(key(1), value(5.0));
  memo.configure(8, 2);  // capacity change also clears
  EXPECT_EQ(memo.size(), 0u);
}

}  // namespace
}  // namespace ficon
