// MST net decomposition and wirelength tests.
#include <algorithm>
#include <limits>
#include <numeric>

#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "floorplan/polish.hpp"
#include "floorplan/slicing.hpp"
#include "gen/scale.hpp"
#include "obs/trace.hpp"
#include "route/two_pin.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ficon {
namespace {

/// Brute-force minimum spanning tree weight over all spanning trees via
/// Prim with exhaustive validation on small inputs: here we just recompute
/// with Kruskal for an independent answer.
double kruskal_weight(const std::vector<Point>& pins) {
  struct Edge {
    double w;
    std::size_t a, b;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    for (std::size_t j = i + 1; j < pins.size(); ++j) {
      edges.push_back(Edge{manhattan(pins[i], pins[j]), i, j});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.w < b.w; });
  std::vector<std::size_t> parent(pins.size());
  std::iota(parent.begin(), parent.end(), 0u);
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  double total = 0.0;
  for (const Edge& e : edges) {
    const auto ra = find(e.a), rb = find(e.b);
    if (ra != rb) {
      parent[ra] = rb;
      total += e.w;
    }
  }
  return total;
}

TEST(MstEdges, TwoPinsSingleEdge) {
  const std::vector<Point> pins{{0, 0}, {3, 4}};
  const auto edges = mst_edges(pins, 7);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].source_net, 7);
  EXPECT_DOUBLE_EQ(edges[0].manhattan_length(), 7.0);
  EXPECT_EQ(edges[0].routing_range(), (Rect{0, 0, 3, 4}));
}

TEST(MstEdges, TreeProperty) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = rng.uniform_int(2, 8);
    std::vector<Point> pins;
    for (int i = 0; i < k; ++i) {
      pins.push_back(Point{rng.uniform(0, 100), rng.uniform(0, 100)});
    }
    const auto edges = mst_edges(pins, 0);
    EXPECT_EQ(edges.size(), pins.size() - 1);  // spanning tree edge count
  }
}

TEST(MstEdges, WeightMatchesKruskal) {
  Rng rng(12);
  for (int trial = 0; trial < 100; ++trial) {
    const int k = rng.uniform_int(2, 7);
    std::vector<Point> pins;
    for (int i = 0; i < k; ++i) {
      pins.push_back(Point{rng.uniform(0, 50), rng.uniform(0, 50)});
    }
    const auto edges = mst_edges(pins, 0);
    double prim_weight = 0.0;
    for (const auto& e : edges) prim_weight += e.manhattan_length();
    EXPECT_NEAR(prim_weight, kruskal_weight(pins), 1e-9);
  }
}

TEST(MstEdges, CoincidentPinsYieldZeroEdges) {
  const std::vector<Point> pins{{5, 5}, {5, 5}, {5, 5}};
  const auto edges = mst_edges(pins, 0);
  ASSERT_EQ(edges.size(), 2u);
  for (const auto& e : edges) {
    EXPECT_DOUBLE_EQ(e.manhattan_length(), 0.0);
    EXPECT_TRUE(e.routing_range().is_point());
  }
}

TEST(MstEdges, RequiresTwoPins) {
  EXPECT_THROW(mst_edges({Point{0, 0}}, 0), std::invalid_argument);
}

TEST(Decompose, EdgeCountIsPinsMinusNets) {
  const Netlist netlist = make_mcnc("ami33");
  Placement placement;
  placement.chip = Rect{0, 0, 2000, 2000};
  Rng rng(5);
  for (std::size_t i = 0; i < netlist.module_count(); ++i) {
    const Module& m = netlist.modules()[i];
    const double x = rng.uniform(0, 2000 - m.width);
    const double y = rng.uniform(0, 2000 - m.height);
    placement.module_rects.push_back(Rect::from_size(Point{x, y}, m.width, m.height));
    placement.rotated.push_back(false);
  }
  const auto nets = decompose_to_two_pin(netlist, placement);
  EXPECT_EQ(nets.size(), netlist.pin_count() - netlist.net_count());
  for (const auto& n : nets) {
    EXPECT_GE(n.source_net, 0);
    EXPECT_LT(n.source_net, static_cast<int>(netlist.net_count()));
  }
}

TEST(Decompose, WirelengthIsSumOfEdges) {
  const Netlist netlist = make_mcnc("hp");
  Placement placement;
  placement.chip = Rect{0, 0, 5000, 5000};
  Rng rng(6);
  for (std::size_t i = 0; i < netlist.module_count(); ++i) {
    const Module& m = netlist.modules()[i];
    placement.module_rects.push_back(Rect::from_size(
        Point{rng.uniform(0, 1000), rng.uniform(0, 1000)}, m.width, m.height));
    placement.rotated.push_back(i % 2 == 1);
  }
  const auto nets = decompose_to_two_pin(netlist, placement);
  double sum = 0.0;
  for (const auto& n : nets) sum += n.manhattan_length();
  EXPECT_NEAR(mst_wirelength(netlist, placement), sum, 1e-9);
}

TEST(Decompose, ReusableDecomposerMatchesOneShotApi) {
  // TwoPinDecomposer (the annealing loop's buffer-reusing path) must emit
  // exactly the edges of decompose_to_two_pin, in the same order, across
  // repeated calls on different placements — the incremental pipeline's
  // bit-identical guarantee depends on it.
  const Netlist netlist = make_mcnc("ami33");
  TwoPinDecomposer decomposer;
  Rng rng(15);
  for (int trial = 0; trial < 5; ++trial) {
    Placement placement;
    placement.chip = Rect{0, 0, 3000, 3000};
    for (std::size_t i = 0; i < netlist.module_count(); ++i) {
      const Module& m = netlist.modules()[i];
      placement.module_rects.push_back(Rect::from_size(
          Point{rng.uniform(0, 2000), rng.uniform(0, 2000)}, m.width,
          m.height));
      placement.rotated.push_back(trial % 2 == 0);
    }
    const auto expected = decompose_to_two_pin(netlist, placement);
    const std::span<const TwoPinNet> got =
        decomposer.decompose(netlist, placement);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(got[i].a, expected[i].a) << "trial " << trial << " i=" << i;
      ASSERT_EQ(got[i].b, expected[i].b) << "trial " << trial << " i=" << i;
      ASSERT_EQ(got[i].source_net, expected[i].source_net);
    }
    // total_length must reproduce mst_wirelength exactly (same summation
    // order), so sharing one decomposition between the wirelength and
    // congestion terms cannot change the objective.
    EXPECT_EQ(total_length(decomposer.decompose(netlist, placement)),
              mst_wirelength(netlist, placement));
  }
}

/// Expects `got` to be `want`, edge for edge and bit for bit.
void expect_same_edges(std::span<const TwoPinNet> got,
                       const std::vector<TwoPinNet>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].a, want[i].a) << "edge " << i;
    ASSERT_EQ(got[i].b, want[i].b) << "edge " << i;
    ASSERT_EQ(got[i].source_net, want[i].source_net) << "edge " << i;
  }
}

/// Prim per net on Placement::pin_position, one net after another: the
/// decomposition with no pin cache and no pool blocks.
std::vector<TwoPinNet> serial_decomposition(const Netlist& netlist,
                                            const Placement& placement) {
  std::vector<TwoPinNet> out;
  for (std::size_t n = 0; n < netlist.net_count(); ++n) {
    std::vector<Point> pins;
    for (const Pin& pin : netlist.nets()[n].pins) {
      pins.push_back(placement.pin_position(pin));
    }
    const std::vector<TwoPinNet> edges = mst_edges(pins, static_cast<int>(n));
    out.insert(out.end(), edges.begin(), edges.end());
  }
  return out;
}

TEST(Decompose, SplitDecomposerMatchesOneShotApiAtEveryThreadCount) {
  // ami49x21 has more nets than TwoPinDecomposer::kSplitNets, so its
  // per-net pass runs in pool blocks. Along 50 Polish moves, and a chip
  // that grows under unmoved modules (only nets with terminal pins
  // change), the caching decomposer and decompose_to_two_pin must both
  // equal a serial Prim per net at every pool size, and the traced work
  // must not depend on it.
  const Netlist netlist =
      make_scale_netlist(parse_scale_tier("ami49x21"), 7);
  ASSERT_GE(netlist.net_count(), TwoPinDecomposer::kSplitNets);
  ASSERT_FALSE(netlist.terminals().empty());
  std::vector<long long> recomputed;
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool::set_global_threads(threads);
    obs::set_trace_enabled(true);
    obs::reset();
    TwoPinDecomposer decomposer;
    SlicingPacker packer(netlist);
    PolishExpression expr =
        PolishExpression::initial(static_cast<int>(netlist.module_count()));
    Rng rng(21);
    for (int move = 0; move < 50; ++move) {
      expr.random_move(rng);
      Placement placement = packer.pack(expr).placement;
      const std::vector<TwoPinNet> want =
          serial_decomposition(netlist, placement);
      expect_same_edges(decompose_to_two_pin(netlist, placement), want);
      expect_same_edges(decomposer.decompose(netlist, placement), want);
      if (move % 10 == 5) {
        placement.chip.xhi += 100.0;
        placement.chip.yhi += 50.0;
        expect_same_edges(decomposer.decompose(netlist, placement),
                          serial_decomposition(netlist, placement));
      }
    }
    recomputed.push_back(
        obs::capture().counter(obs::Counter::kDecomposeNetsRecomputed));
    obs::set_trace_enabled(false);
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
  for (const long long r : recomputed) EXPECT_EQ(r, recomputed.front());
}

TEST(Decompose, BlockErrorsReachTheCaller) {
  // A module placed at NaN leaves Prim no next vertex in the nets it
  // touches. The check throws inside whichever pool block owns such a
  // net, and the error must reach the caller at every pool size, on the
  // first call and on a cached one.
  const Netlist netlist =
      make_scale_netlist(parse_scale_tier("ami49x21"), 7);
  ASSERT_GE(netlist.net_count(), TwoPinDecomposer::kSplitNets);
  const SlicingPacker packer(netlist);
  const Placement good =
      packer
          .pack(PolishExpression::initial(
              static_cast<int>(netlist.module_count())))
          .placement;
  Placement bad = good;
  const std::size_t last = netlist.module_count() - 1;
  bad.module_rects[last].xlo = std::numeric_limits<double>::quiet_NaN();
  bad.module_rects[last].xhi = std::numeric_limits<double>::quiet_NaN();
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool::set_global_threads(threads);
    TwoPinDecomposer fresh;
    EXPECT_THROW(fresh.decompose(netlist, bad), std::logic_error);
    TwoPinDecomposer cached;
    cached.decompose(netlist, good);
    EXPECT_THROW(cached.decompose(netlist, bad), std::logic_error);
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(Decompose, RejectsMismatchedPlacement) {
  const Netlist netlist = make_mcnc("hp");
  Placement placement;  // empty
  EXPECT_THROW(decompose_to_two_pin(netlist, placement),
               std::invalid_argument);
}

}  // namespace
}  // namespace ficon
