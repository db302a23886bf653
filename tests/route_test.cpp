// MST net decomposition and wirelength tests.
#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "circuit/mcnc.hpp"
#include "route/two_pin.hpp"
#include "util/rng.hpp"

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

TEST(Decompose, RejectsMismatchedPlacement) {
  const Netlist netlist = make_mcnc("hp");
  Placement placement;  // empty
  EXPECT_THROW(decompose_to_two_pin(netlist, placement),
               std::invalid_argument);
}

}  // namespace
}  // namespace ficon
