// Tests for the benchmark's own helpers: the shelf-row start, seeded input
// generation, span self times and the tail-percentile rule.
#include <gtest/gtest.h>

#include <numeric>

#include "helpers.hpp"

namespace perfbench {
namespace {

using namespace ficon;

TEST(ShelfRow, ValidNormalizedExpressionOverEveryModule) {
  for (const char* tier : {"ami49x1", "ami49x4"}) {
    const Netlist netlist = make_scale_netlist(parse_scale_tier(tier), 5);
    const PolishExpression expr = shelf_row_expression(netlist);
    EXPECT_TRUE(PolishExpression::is_valid(expr.tokens())) << tier;
    EXPECT_TRUE(PolishExpression::is_normalized(expr.tokens())) << tier;
    EXPECT_EQ(expr.module_count(), static_cast<int>(netlist.module_count()));
  }
}

TEST(ShelfRow, PacksToACompactChip) {
  for (const char* tier : {"ami49x1", "ami49x4", "ami49x20"}) {
    const Netlist netlist = make_scale_netlist(parse_scale_tier(tier), 5);
    const SlicingResult packed =
        SlicingPacker(netlist).pack(shelf_row_expression(netlist));
    EXPECT_TRUE(placement_is_legal(packed.placement)) << tier;
    // 15% shelf slack plus ragged row ends and mixed row heights, and
    // tighter than the PolishExpression::initial spiral.
    EXPECT_LT(packed.area, 1.75 * netlist.total_module_area()) << tier;
    const SlicingResult spiral = SlicingPacker(netlist).pack(
        PolishExpression::initial(static_cast<int>(netlist.module_count())));
    EXPECT_LT(packed.area, spiral.area) << tier;
    const double aspect = packed.width / packed.height;
    EXPECT_GT(aspect, 0.5) << tier;
    EXPECT_LT(aspect, 2.0) << tier;
  }
}

TEST(Inputs, SameSeedSameInputs) {
  const ScaleTierSpec spec = parse_scale_tier("ami49x4");
  const Netlist a = make_scale_netlist(spec, 11);
  const Netlist b = make_scale_netlist(spec, 11);
  const Netlist c = make_scale_netlist(spec, 12);
  EXPECT_EQ(netlist_fingerprint(a), netlist_fingerprint(b));
  EXPECT_NE(netlist_fingerprint(a), netlist_fingerprint(c));
  EXPECT_EQ(shelf_row_expression(a), shelf_row_expression(b));

  // The stream's move and accept streams.
  for (const std::uint64_t purpose : {1u, 2u}) {
    Rng r1(derive_seed(11, purpose));
    Rng r2(derive_seed(11, purpose));
    Rng r3(derive_seed(12, purpose));
    bool differs = false;
    for (int i = 0; i < 16; ++i) {
      const double x = r1.uniform();
      EXPECT_EQ(x, r2.uniform());
      differs = differs || x != r3.uniform();
    }
    EXPECT_TRUE(differs);
  }
  EXPECT_NE(derive_seed(11, 1), derive_seed(11, 2));

  // The service request walk.
  const Netlist ami49 = make_mcnc("ami49");
  const std::vector<std::string> w1 = request_walk(ami49, 11, 50);
  EXPECT_EQ(w1, request_walk(ami49, 11, 50));
  EXPECT_NE(w1, request_walk(ami49, 12, 50));
  ASSERT_EQ(w1.size(), 50u);
  EXPECT_NE(w1.front(), w1.back());
  // Each restart begins one move from the initial expression.
  const std::string initial =
      PolishExpression::initial(static_cast<int>(ami49.module_count()))
          .to_string();
  for (std::size_t i = 0; i < w1.size(); i += kWalkRestart) {
    EXPECT_NE(w1[i], initial);
  }
}

TEST(Checksum, OrderAndBitSensitive) {
  Checksum a, b, c;
  a.add(1.0);
  a.add(2.0);
  b.add(2.0);
  b.add(1.0);
  c.add(1.0);
  c.add(std::nextafter(2.0, 3.0));
  EXPECT_NE(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_EQ(a.hex().size(), 16u);
}

TEST(Spans, SelfTimeIsSpanMinusChildren) {
  SpanRecorder rec;
  const int move = rec.name_id("move");
  const int pack = rec.name_id("pack");
  const int score = rec.name_id("score");
  const int cut = rec.name_id("cut");
  EXPECT_EQ(rec.name_id("pack"), pack);

  // move [0, 100): pack [10, 30), score [30, 90) holding cut [40, 55).
  const int m = rec.open(move, 7, 0);
  rec.close(rec.open(pack, 7, 10), 30);
  const int s = rec.open(score, 7, 30);
  rec.close(rec.open(cut, 7, 40), 55);
  rec.close(s, 90);
  rec.close(m, 100);
  // A second move adds to the same names.
  const int m2 = rec.open(move, 8, 200);
  rec.close(rec.open(pack, 8, 200), 205);
  rec.close(m2, 210);

  EXPECT_EQ(rec.spans()[1].parent, m);
  EXPECT_EQ(rec.spans()[3].parent, s);
  EXPECT_DOUBLE_EQ(rec.self_seconds("move"), (100 - 20 - 60 + 10 - 5) * 1e-9);
  EXPECT_DOUBLE_EQ(rec.self_seconds("pack"), (20 + 5) * 1e-9);
  EXPECT_DOUBLE_EQ(rec.self_seconds("score"), (60 - 15) * 1e-9);
  EXPECT_DOUBLE_EQ(rec.self_seconds("cut"), 15 * 1e-9);
  // Self times of a tree sum to its roots' durations.
  EXPECT_DOUBLE_EQ(rec.self_seconds("move") + rec.self_seconds("pack") +
                       rec.self_seconds("score") + rec.self_seconds("cut"),
                   (100 + 10) * 1e-9);
  EXPECT_DOUBLE_EQ(rec.self_seconds("unknown"), 0.0);
}

TEST(Spans, ScopeWithoutRecorderRecordsNothing) {
  SpanRecorder rec;
  { const SpanRecorder::Scope s(nullptr, 0, 1); }
  { const SpanRecorder::Scope s(&rec, rec.name_id("x"), 1); }
  ASSERT_EQ(rec.spans().size(), 1u);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[0].start_ns);
}

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentiles, TailPicksHighestWithTenBeyond) {
  // 1000 samples: p99 has rank 990, leaving exactly 10 above it.
  TailPercentile t = tail_percentile(iota_samples(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.count, 1000u);
  EXPECT_EQ(t.beyond, 10u);

  // 999 samples: p99 would leave 9, so p95 (rank 950, 49 beyond).
  t = tail_percentile(iota_samples(999));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 950.0);
  EXPECT_EQ(t.beyond, 49u);

  // 10000 samples reach p99.9.
  t = tail_percentile(iota_samples(10000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.beyond, 10u);

  // Too few for anything above the median: fall back to p50.
  t = tail_percentile(iota_samples(12));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 6.0);
  EXPECT_EQ(t.beyond, 6u);

  t = tail_percentile({});
  EXPECT_EQ(t.count, 0u);
}

TEST(Percentiles, CapHoldsTheTailAtOnePercentile) {
  // 1000 samples qualify for p99, but a p90 cap reports p90.
  TailPercentile t = tail_percentile(iota_samples(1000), 10, 90.0);
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 900.0);
  EXPECT_EQ(t.beyond, 100u);
  // The cap never lifts a percentile the count does not support.
  t = tail_percentile(iota_samples(60), 10, 95.0);
  EXPECT_EQ(t.percentile, 75.0);
  EXPECT_EQ(t.beyond, 15u);
}

TEST(Percentiles, UnsortedInputAndMedian) {
  const std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_EQ(percentile(v, 50.0), 3.0);
  EXPECT_EQ(percentile(v, 100.0), 5.0);
  EXPECT_EQ(percentile(v, 1.0), 1.0);
  EXPECT_EQ(median(v), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(RunReport, ChecksCountAttemptsAndFailures) {
  RunReport r;
  r.check(true, "fine");
  r.check(false, "broken");
  r.metric("x", 1.5, "s");
  EXPECT_EQ(r.attempted, 2);
  EXPECT_EQ(r.failed, 1);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0], "broken");
  ASSERT_EQ(r.metrics.size(), 1u);
  EXPECT_EQ(r.metrics[0].unit, "s");
  EXPECT_EQ(fmt_num(0.1), "0.10000000000000001");
}

}  // namespace
}  // namespace perfbench
