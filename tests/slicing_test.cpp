// Slicing packer: expressions -> legal placements.
#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "floorplan/slicing.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace ficon {
namespace {

/// Tracing on over zeroed sinks for one test's scope, so the test reads
/// the pack-cache counters of its own packs only.
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

Netlist three_modules() {
  return Netlist("t",
                 {{"a", 10, 10}, {"b", 20, 5}, {"c", 5, 15}},
                 {{"n", {Pin::on_module(0, 0.5, 0.5), Pin::on_module(1, 0.5, 0.5)}}});
}

std::vector<PolishToken> toks(std::initializer_list<int> vals) {
  std::vector<PolishToken> out;
  for (const int v : vals) out.push_back(PolishToken{v});
  return out;
}
constexpr int H = PolishToken::kH;
constexpr int V = PolishToken::kV;

TEST(Slicing, TwoModuleVerticalCut) {
  const Netlist n("t", {{"a", 10, 10}, {"b", 20, 5}}, {
      {"n", {Pin::on_module(0, 0.5, 0.5), Pin::on_module(1, 0.5, 0.5)}}});
  const SlicingPacker packer(n);
  const SlicingResult r = packer.pack(PolishExpression(toks({0, 1, V})));
  // Optimal: rotate b to 5x20? Options: a(10x10) | b(20x5 or 5x20).
  // V-cut: widths add, heights max:
  //   10+20 wide, max(10,5)=10 tall -> 300; 10+5, max(10,20)=20 -> 300.
  EXPECT_DOUBLE_EQ(r.area, 300.0);
  EXPECT_TRUE(placement_is_legal(r.placement));
  // Modules must keep their (possibly transposed) dimensions.
  const Rect& ra = r.placement.module_rects[0];
  EXPECT_DOUBLE_EQ(ra.width() * ra.height(), 100.0);
  const Rect& rb = r.placement.module_rects[1];
  EXPECT_DOUBLE_EQ(rb.width() * rb.height(), 100.0);
}

TEST(Slicing, HorizontalCutStacksBottomToTop) {
  const Netlist n("t", {{"a", 10, 4}, {"b", 10, 6}}, {
      {"n", {Pin::on_module(0, 0.5, 0.5), Pin::on_module(1, 0.5, 0.5)}}});
  const SlicingPacker packer(n);
  const SlicingResult r = packer.pack(PolishExpression(toks({0, 1, H})));
  EXPECT_DOUBLE_EQ(r.width, 10.0);
  EXPECT_DOUBLE_EQ(r.height, 10.0);
  // H places the left operand (module 0) below the right operand.
  EXPECT_DOUBLE_EQ(r.placement.module_rects[0].ylo, 0.0);
  EXPECT_DOUBLE_EQ(r.placement.module_rects[1].ylo,
                   r.placement.module_rects[0].yhi);
  EXPECT_TRUE(placement_is_legal(r.placement));
}

TEST(Slicing, VerticalCutPlacesLeftToRight) {
  const Netlist n("t", {{"a", 4, 10}, {"b", 6, 10}}, {
      {"n", {Pin::on_module(0, 0.5, 0.5), Pin::on_module(1, 0.5, 0.5)}}});
  const SlicingPacker packer(n);
  const SlicingResult r = packer.pack(PolishExpression(toks({0, 1, V})));
  EXPECT_DOUBLE_EQ(r.placement.module_rects[0].xlo, 0.0);
  EXPECT_DOUBLE_EQ(r.placement.module_rects[1].xlo,
                   r.placement.module_rects[0].xhi);
}

TEST(Slicing, AreaLowerBoundedByModuleSum) {
  const Netlist n = three_modules();
  const SlicingPacker packer(n);
  for (const auto& expr :
       {toks({0, 1, V, 2, H}), toks({0, 1, H, 2, V}), toks({0, 1, 2, V, H}),
        toks({2, 0, V, 1, H})}) {
    const SlicingResult r = packer.pack(PolishExpression(expr));
    EXPECT_GE(r.area + 1e-9, n.total_module_area());
    EXPECT_TRUE(placement_is_legal(r.placement));
  }
}

TEST(Slicing, RandomExpressionsAlwaysLegal) {
  // Property sweep: every reachable expression packs into a legal,
  // area-consistent placement on a realistic circuit.
  const Netlist n = make_mcnc("ami33");
  const SlicingPacker packer(n);
  Rng rng(31);
  PolishExpression e =
      PolishExpression::initial(static_cast<int>(n.module_count()));
  for (int iter = 0; iter < 100; ++iter) {
    for (int k = 0; k < 10; ++k) e.random_move(rng);
    const SlicingResult r = packer.pack(e);
    ASSERT_TRUE(placement_is_legal(r.placement)) << "iter " << iter;
    ASSERT_GE(r.area + 1e-6, n.total_module_area());
    ASSERT_DOUBLE_EQ(r.area, r.width * r.height);
    // Each module keeps its area (rotation only).
    for (std::size_t m = 0; m < n.module_count(); ++m) {
      const Rect& rect = r.placement.module_rects[m];
      ASSERT_NEAR(rect.area(), n.modules()[m].area(), 1e-6);
      const Module& mod = n.modules()[m];
      if (r.placement.rotated[m]) {
        ASSERT_DOUBLE_EQ(rect.width(), mod.height);
      } else {
        ASSERT_DOUBLE_EQ(rect.width(), mod.width);
      }
    }
  }
}

TEST(Slicing, CachedPackMatchesFullPackBitwise) {
  // The pipeline's contract: pack_cached_ref() is bit-identical to the
  // stateless pack() after any sequence of Wong-Liu moves — including M3
  // moves, which change the kind pattern and force a full rebuild.
  const TracedScope traced;
  const Netlist n = make_mcnc("ami33");
  SlicingPacker cached(n);
  const SlicingPacker fresh(n);
  Rng rng(33);
  PolishExpression e =
      PolishExpression::initial(static_cast<int>(n.module_count()));
  for (int iter = 0; iter < 200; ++iter) {
    e.random_move(rng);
    const SlicingResult a = cached.pack_cached_ref(e);
    const SlicingResult b = fresh.pack(e);
    ASSERT_EQ(a.width, b.width) << "iter " << iter;
    ASSERT_EQ(a.height, b.height) << "iter " << iter;
    ASSERT_EQ(a.area, b.area) << "iter " << iter;
    ASSERT_EQ(a.placement.chip, b.placement.chip) << "iter " << iter;
    for (std::size_t m = 0; m < n.module_count(); ++m) {
      ASSERT_EQ(a.placement.module_rects[m], b.placement.module_rects[m])
          << "iter " << iter << " module " << m;
      ASSERT_EQ(a.placement.rotated[m], b.placement.rotated[m])
          << "iter " << iter << " module " << m;
    }
  }
  // 200 random moves must have exercised both cache paths, and the dirty
  // pass must be doing real work: far fewer curves recombined than a full
  // rebuild per move would cost.
  const obs::TraceReport report = obs::capture();
  EXPECT_GT(report.counter(obs::Counter::kPackCacheIncremental), 0);
  // M3 moves change the kind pattern.
  EXPECT_GT(report.counter(obs::Counter::kPackCacheFullRebuilds), 0);
  EXPECT_LT(report.counter(obs::Counter::kPackCacheNodesRecomputed),
            report.counter(obs::Counter::kPackCacheNodesTotal) / 2);
}

TEST(Slicing, PackCachedRefMatchesPackAcrossMoves) {
  // pack_cached_ref() reuses one internal SlicingResult across calls; a
  // partially-updated buffer (stale rect or rotation flag from the previous
  // move surviving) would show up here as a mismatch against pack().
  const Netlist n = make_mcnc("ami33");
  SlicingPacker cached(n);
  const SlicingPacker fresh(n);
  Rng rng(77);
  PolishExpression e =
      PolishExpression::initial(static_cast<int>(n.module_count()));
  for (int iter = 0; iter < 120; ++iter) {
    e.random_move(rng);
    const SlicingResult& a = cached.pack_cached_ref(e);
    const SlicingResult b = fresh.pack(e);
    ASSERT_EQ(a.area, b.area) << "iter " << iter;
    ASSERT_EQ(a.placement.chip, b.placement.chip) << "iter " << iter;
    for (std::size_t m = 0; m < n.module_count(); ++m) {
      ASSERT_EQ(a.placement.module_rects[m], b.placement.module_rects[m])
          << "iter " << iter << " module " << m;
      ASSERT_EQ(a.placement.rotated[m], b.placement.rotated[m])
          << "iter " << iter << " module " << m;
    }
  }
}

TEST(Slicing, WarmRepackOfTheSameExpressionRecomputesNothing) {
  const TracedScope traced;
  const Netlist n = three_modules();
  SlicingPacker packer(n);
  const PolishExpression e(toks({0, 1, V, 2, H}));
  packer.pack_cached_ref(e);  // cold: one full rebuild
  packer.pack_cached_ref(e);  // warm: incremental, zero dirty nodes
  const obs::TraceReport report = obs::capture();
  EXPECT_EQ(report.counter(obs::Counter::kPackCacheFullRebuilds), 1);
  EXPECT_EQ(report.counter(obs::Counter::kPackCacheIncremental), 1);
  EXPECT_EQ(report.counter(obs::Counter::kPackCacheNodesRecomputed), 0);
}

TEST(Slicing, DeadspaceReasonableAfterManyMoves) {
  // Not an optimality proof — just a sanity bound: even unoptimized random
  // slicing packings of ami33 stay within ~2.5x the module area (the
  // annealer's job is to close the rest of the gap; see floorplanner_test).
  const Netlist n = make_mcnc("ami33");
  const SlicingPacker packer(n);
  Rng rng(32);
  PolishExpression e =
      PolishExpression::initial(static_cast<int>(n.module_count()));
  double best = 1e300;
  for (int iter = 0; iter < 300; ++iter) {
    e.random_move(rng);
    best = std::min(best, packer.pack(e).area);
  }
  EXPECT_LT(best, n.total_module_area() * 2.5);
}

TEST(Slicing, RejectsMismatchedExpression) {
  const Netlist n = three_modules();
  const SlicingPacker packer(n);
  EXPECT_THROW(packer.pack(PolishExpression(toks({0, 1, V}))),
               std::invalid_argument);
}

TEST(Slicing, SingleModule) {
  const Netlist n("t", {{"a", 12, 8}, {"b", 1, 1}},
                  {{"n", {Pin::on_module(0, 0.5, 0.5), Pin::on_module(1, 0.5, 0.5)}}});
  const SlicingPacker packer(n);
  const SlicingResult r = packer.pack(PolishExpression(toks({0, 1, V})));
  EXPECT_TRUE(placement_is_legal(r.placement));
}

TEST(Slicing, SoftModulesFlexToFillDeadspace) {
  // A 10x10 hard block next to a 100-area soft block: with aspect range
  // [0.25, 4] the soft block can become 10 tall and the V-cut packing is
  // deadspace-free; pinned at a square it cannot.
  const Netlist flexible(
      "t", {{"a", 10, 10}, Module::make_soft("s", 100.0, 0.25, 4.0)},
      {{"n", {Pin::on_module(0), Pin::on_module(1)}}});
  const SlicingPacker packer(flexible);
  const SlicingResult r = packer.pack(
      PolishExpression({PolishToken{0}, PolishToken{1}, PolishToken{PolishToken::kV}}));
  EXPECT_NEAR(r.area, 200.0, 1e-6);  // perfect packing
  EXPECT_TRUE(placement_is_legal(r.placement));
  // Soft module keeps its area at the chosen aspect.
  EXPECT_NEAR(r.placement.module_rects[1].area(), 100.0, 1e-6);
}

TEST(PlacementLegality, DetectsOverlapsAndEscapes) {
  Placement p;
  p.chip = Rect{0, 0, 10, 10};
  p.module_rects = {Rect{0, 0, 5, 5}, Rect{4, 4, 8, 8}};
  p.rotated = {false, false};
  EXPECT_FALSE(placement_is_legal(p));
  p.module_rects = {Rect{0, 0, 5, 5}, Rect{5, 0, 11, 5}};
  EXPECT_FALSE(placement_is_legal(p));  // escapes chip
  p.module_rects = {Rect{0, 0, 5, 5}, Rect{5, 0, 10, 5}};
  EXPECT_TRUE(placement_is_legal(p));  // abutting is fine
}

}  // namespace
}  // namespace ficon
