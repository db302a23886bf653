// Geometry primitive tests.
#include <gtest/gtest.h>

#include "geom/point.hpp"
#include "geom/rect.hpp"

namespace ficon {
namespace {

TEST(Point, Distances) {
  const Point a{1.0, 2.0};
  const Point b{4.0, 6.0};
  EXPECT_DOUBLE_EQ(manhattan(a, b), 7.0);
  EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
  EXPECT_DOUBLE_EQ(manhattan(a, a), 0.0);
}

TEST(Point, Arithmetic) {
  const Point a{1.0, 2.0};
  const Point b{4.0, 6.0};
  EXPECT_EQ(a + b, (Point{5.0, 8.0}));
  EXPECT_EQ(b - a, (Point{3.0, 4.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
}

TEST(Rect, SpanningNormalizesCorners) {
  const Rect r = Rect::spanning(Point{5.0, 1.0}, Point{2.0, 7.0});
  EXPECT_EQ(r, (Rect{2.0, 1.0, 5.0, 7.0}));
  EXPECT_TRUE(r.valid());
  EXPECT_DOUBLE_EQ(r.width(), 3.0);
  EXPECT_DOUBLE_EQ(r.height(), 6.0);
  EXPECT_DOUBLE_EQ(r.area(), 18.0);
  EXPECT_DOUBLE_EQ(r.half_perimeter(), 9.0);
  EXPECT_EQ(r.center(), (Point{3.5, 4.0}));
}

TEST(Rect, DegenerateClassification) {
  EXPECT_TRUE(Rect::spanning(Point{1, 1}, Point{1, 1}).is_point());
  EXPECT_TRUE(Rect::spanning(Point{1, 1}, Point{5, 1}).is_segment());
  EXPECT_TRUE(Rect::spanning(Point{1, 1}, Point{1, 5}).is_segment());
  EXPECT_TRUE(Rect::spanning(Point{1, 1}, Point{5, 5}).is_proper());
  EXPECT_FALSE(Rect::spanning(Point{1, 1}, Point{5, 1}).is_proper());
}

TEST(Rect, Containment) {
  const Rect r{0, 0, 10, 10};
  EXPECT_TRUE(r.contains(Point{0, 0}));    // boundary counts
  EXPECT_TRUE(r.contains(Point{10, 10}));
  EXPECT_FALSE(r.contains(Point{10.001, 5}));
  EXPECT_TRUE(r.contains(Rect{2, 2, 10, 10}));
  EXPECT_FALSE(r.contains(Rect{2, 2, 10.5, 10}));
}

TEST(Rect, OverlapSemantics) {
  const Rect a{0, 0, 5, 5};
  const Rect b{5, 0, 10, 5};  // shares an edge with a
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps_interior(b));  // abutment is legal in packings
  const Rect c{4, 4, 6, 6};
  EXPECT_TRUE(a.overlaps_interior(c));
  const Rect d{6, 6, 8, 8};
  EXPECT_FALSE(a.overlaps(d));
}

TEST(Rect, IntersectionAndUnion) {
  const Rect a{0, 0, 5, 5};
  const Rect b{3, 2, 8, 9};
  EXPECT_EQ(a.intersection(b), (Rect{3, 2, 5, 5}));
  EXPECT_EQ(a.united(b), (Rect{0, 0, 8, 9}));
  const Rect disjoint{6, 6, 7, 7};
  EXPECT_FALSE(a.intersection(disjoint).valid());
}

TEST(Rect, Translation) {
  const Rect r{1, 2, 3, 4};
  EXPECT_EQ(r.translated(10, -2), (Rect{11, 0, 13, 2}));
}

TEST(GridRect, CountsAndContainment) {
  const GridRect r{2, 3, 5, 3};
  EXPECT_EQ(r.nx(), 4);
  EXPECT_EQ(r.ny(), 1);
  EXPECT_EQ(r.cell_count(), 4);
  EXPECT_TRUE(r.valid());
  EXPECT_TRUE(r.contains(2, 3));
  EXPECT_TRUE(r.contains(5, 3));
  EXPECT_FALSE(r.contains(6, 3));
  EXPECT_FALSE(r.contains(3, 4));
  EXPECT_FALSE((GridRect{3, 0, 2, 0}).valid());
}

}  // namespace
}  // namespace ficon
