// Tests for the scalable synthetic benchmark generator (src/gen/scale.hpp):
// tier spec arithmetic, structural invariants of the generated netlists,
// the determinism contract — same (spec, seed) means byte-identical
// netlists regardless of the thread-pool configuration — and pinned
// pack / decompose / IR-cell results on two generated tiers.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "congestion/cutlines.hpp"
#include "congestion/irregular_grid.hpp"
#include "floorplan/slicing.hpp"
#include "gen/scale.hpp"
#include "route/two_pin.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ficon {
namespace {

TEST(ScaleTierSpec, Ami49TierMatchesPublishedStatsPerTile) {
  const ScaleTierSpec one = ami49x_spec(1);
  EXPECT_EQ(one.name, "ami49x1");
  EXPECT_EQ(one.modules, 49);
  EXPECT_EQ(one.nets, 408);
  EXPECT_EQ(one.pins, 953);
  EXPECT_EQ(one.terminals, 22);
  EXPECT_DOUBLE_EQ(one.total_area_um2, 35445424.0);
  EXPECT_FALSE(one.soft);

  const ScaleTierSpec four = ami49x_spec(4);
  EXPECT_EQ(four.modules, 4 * 49);
  EXPECT_EQ(four.nets, 4 * 408);
  EXPECT_DOUBLE_EQ(four.total_area_um2, 4 * 35445424.0);
  // Pads ring the outline: count grows ~sqrt(copies), not linearly.
  EXPECT_EQ(four.terminals, 44);
}

TEST(ScaleTierSpec, GsrcStyleHitsTheN100Anchor) {
  const ScaleTierSpec spec = gsrc_style_spec(100);
  EXPECT_EQ(spec.name, "n100");
  EXPECT_EQ(spec.modules, 100);
  EXPECT_EQ(spec.nets, 885);
  EXPECT_TRUE(spec.soft);
  // The generator needs >= 2 pins per plain net; the published pin count
  // is below that floor, so the spec raises it.
  EXPECT_GE(spec.pins, 2 * spec.nets);
  EXPECT_LE(spec.terminals, spec.nets);
}

TEST(ScaleTierSpec, ParseAcceptsAllThreeTokenForms) {
  EXPECT_EQ(parse_scale_tier("n300").name, "n300");
  EXPECT_EQ(parse_scale_tier("ami49x20").modules, 20 * 49);
  // A bare module count maps to the smallest covering ami49x rung.
  const ScaleTierSpec bare = parse_scale_tier("500");
  EXPECT_EQ(bare.name, "ami49x11");
  EXPECT_GE(bare.modules, 500);
  EXPECT_THROW(parse_scale_tier("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_scale_tier("n"), std::invalid_argument);
  EXPECT_THROW(parse_scale_tier("ami49x"), std::invalid_argument);
}

TEST(MakeScaleNetlist, AggregateCountsMatchTheSpecExactly) {
  const ScaleTierSpec spec = ami49x_spec(2);
  // Construction runs Netlist::validate(), so structural invariants
  // (degree >= 2, at least one module pin per net, offsets in range) are
  // covered by the constructor not throwing.
  const Netlist netlist = make_scale_netlist(spec);
  EXPECT_EQ(static_cast<int>(netlist.module_count()), spec.modules);
  EXPECT_EQ(static_cast<int>(netlist.net_count()), spec.nets);
  EXPECT_EQ(static_cast<int>(netlist.terminal_count()), spec.terminals);
  EXPECT_EQ(static_cast<int>(netlist.pin_count()), spec.pins);
  // Areas are renormalized to the target total (rounding to whole um
  // perturbs each module, so allow a few percent in aggregate).
  EXPECT_NEAR(netlist.total_module_area() / spec.total_area_um2, 1.0, 0.05);
}

TEST(MakeScaleNetlist, SoftTiersProduceSoftModules) {
  const Netlist netlist = make_scale_netlist(gsrc_style_spec(60));
  for (const Module& m : netlist.modules()) {
    EXPECT_TRUE(m.soft);
    EXPECT_DOUBLE_EQ(m.min_aspect, 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(m.max_aspect, 3.0);
  }
}

TEST(MakeScaleNetlist, FingerprintIsDeterministicAcrossThreadCounts) {
  const ScaleTierSpec spec = ami49x_spec(3);
  ThreadPool::set_global_threads(1);
  const std::uint64_t single = netlist_fingerprint(make_scale_netlist(spec));
  ThreadPool::set_global_threads(8);
  const std::uint64_t eight = netlist_fingerprint(make_scale_netlist(spec));
  ThreadPool::set_global_threads(ThreadPool::env_threads());
  EXPECT_EQ(single, eight);
  // Repeatable within one configuration too.
  EXPECT_EQ(netlist_fingerprint(make_scale_netlist(spec)), single);
}

TEST(MakeScaleNetlist, SeedAndSpecChangeTheFingerprint) {
  const ScaleTierSpec spec = ami49x_spec(2);
  const std::uint64_t base = netlist_fingerprint(make_scale_netlist(spec, 7));
  EXPECT_NE(netlist_fingerprint(make_scale_netlist(spec, 8)), base);
  EXPECT_NE(netlist_fingerprint(make_scale_netlist(ami49x_spec(3), 7)), base);
}

TEST(NetlistFingerprint, SeesEveryField) {
  const Netlist a = make_mcnc("apte");
  const std::uint64_t base = netlist_fingerprint(a);
  // Same circuit, perturbed module dimension: fingerprint must move.
  std::vector<Module> modules = a.modules();
  modules.front().width += 1.0;
  const Netlist b(a.name(), std::move(modules),
                  a.terminals(), a.nets());
  EXPECT_NE(netlist_fingerprint(b), base);
}

/// Deterministic O(m) shelf packing in module-index order. The generator
/// numbers modules tile by tile, so index order keeps each locality tile
/// spatially contiguous and net routing ranges realistically small; 15%
/// deadspace stands in for a packed floorplan's overhead.
Placement shelf_placement(const Netlist& netlist) {
  const double shelf_w = std::sqrt(1.15 * netlist.total_module_area());
  Placement p;
  p.module_rects.reserve(netlist.module_count());
  p.rotated.assign(netlist.module_count(), false);
  double x = 0.0, y = 0.0, row_h = 0.0, xmax = 0.0;
  for (const Module& m : netlist.modules()) {
    if (x > 0.0 && x + m.width > shelf_w) {
      x = 0.0;
      y += row_h;
      row_h = 0.0;
    }
    p.module_rects.push_back(Rect::from_size({x, y}, m.width, m.height));
    x += m.width;
    row_h = std::max(row_h, m.height);
    xmax = std::max(xmax, x);
  }
  p.chip = Rect{0.0, 0.0, xmax, y + row_h};
  return p;
}

/// FNV-1a over the line counts and the IEEE bit pattern of every cut
/// line, xs then ys: equal hashes mean bit-identical cut lines.
std::uint64_t cutlines_hash(const CutLines& lines) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const std::vector<double>* axis : {&lines.xs(), &lines.ys()}) {
    mix(axis->size());
    for (const double v : *axis) mix(std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

/// Expected values of one generated tier through the pipeline.
struct TierPin {
  std::string token;
  std::string name;
  std::uint64_t fingerprint;
  int modules;
  int nets;
  int pins;
  std::size_t two_pin_nets;
  double ir_pitch_um;
  long long ir_cells;
  std::uint64_t cutlines_hash;
  double stream_wirelength_um;
};

TEST(ScaleTierPipeline, TierResultsArePinnedBitForBit) {
  // Per tier, at generator seed 7: the netlist fingerprint; the two-pin
  // nets and IR-cell count of a shelf placement, evaluated at the pitch
  // max(30 um, chip extent / 200) that holds ami49's relative resolution;
  // the hash of its cut lines at merge factor 2, built on a 1-, 2-, 4-
  // and 8-thread pool; and the summed wirelength of 50 random Polish moves
  // through pack_cached_ref and the caching decomposer. ami49x21 sorts
  // 23,066 coordinates per axis.
  const TierPin pins[] = {
      {"n100", "n100", 7848313446471626199ULL, 100, 885, 1873, 988, 30.0, 32,
       4972141620354504023ULL, 35875913.630642481},
      {"1000", "ami49x21", 5304025613109544904ULL, 1029, 8568, 20101, 11533,
       324.19999999999999, 1770, 17532071665057823994ULL, 87359364372.467728},
  };
  const int pool_threads = ThreadPool::global().threads();
  for (const TierPin& pin : pins) {
    SCOPED_TRACE(pin.token);
    const ScaleTierSpec spec = parse_scale_tier(pin.token);
    EXPECT_EQ(spec.name, pin.name);
    EXPECT_EQ(spec.modules, pin.modules);
    EXPECT_EQ(spec.nets, pin.nets);
    EXPECT_EQ(spec.pins, pin.pins);
    const Netlist netlist = make_scale_netlist(spec, 7);
    EXPECT_EQ(netlist_fingerprint(netlist), pin.fingerprint);

    const Placement shelf = shelf_placement(netlist);
    TwoPinDecomposer decomposer;
    const std::span<const TwoPinNet> nets =
        decomposer.decompose(netlist, shelf);
    EXPECT_EQ(nets.size(), pin.two_pin_nets);
    const double extent = std::max(shelf.chip.width(), shelf.chip.height());
    IrregularGridParams params;
    params.grid_w = params.grid_h = std::max(30.0, extent / 200.0);
    EXPECT_EQ(params.grid_w, pin.ir_pitch_um);
    EXPECT_EQ(IrregularGridModel(params).evaluate(nets, shelf.chip)
                  .cell_count(),
              pin.ir_cells);
    for (const int threads : {1, 2, 4, 8}) {
      ThreadPool::set_global_threads(threads);
      const double gap = 2.0 * params.grid_w;
      EXPECT_EQ(cutlines_hash(build_cutlines(nets, shelf.chip, gap, gap)),
                pin.cutlines_hash)
          << "threads=" << threads;
    }
    ThreadPool::set_global_threads(pool_threads);

    SlicingPacker packer(netlist);
    PolishExpression expr =
        PolishExpression::initial(static_cast<int>(netlist.module_count()));
    Rng rng(7);
    double wirelength = 0.0;
    for (int i = 0; i < 50; ++i) {
      expr.random_move(rng);
      const SlicingResult& packed = packer.pack_cached_ref(expr);
      wirelength +=
          total_length(decomposer.decompose(netlist, packed.placement));
    }
    EXPECT_EQ(wirelength, pin.stream_wirelength_um);
  }
}

}  // namespace
}  // namespace ficon
