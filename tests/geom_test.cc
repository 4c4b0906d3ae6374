// Tests for geom/: points, rectangles, convex polygon clipping.
#include <gtest/gtest.h>

#include "geom/point.h"
#include "geom/polygon.h"
#include "geom/rect.h"
#include "util/rng.h"

namespace stpq {
namespace {

TEST(PointTest, Distance) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {1, 1}), 0.0);
}

TEST(RectTest, EmptyAndEnlarge) {
  Rect2 r = Rect2::Empty();
  EXPECT_TRUE(r.IsEmpty());
  r.EnlargePoint({0.5, 0.5});
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_TRUE(r.Contains({0.5, 0.5}));
  r.EnlargePoint({0.7, 0.2});
  EXPECT_DOUBLE_EQ(r.lo[1], 0.2);
  EXPECT_DOUBLE_EQ(r.hi[0], 0.7);
}

TEST(RectTest, ContainsAndIntersects) {
  Rect2 a = MakeRect2(0, 0, 1, 1);
  Rect2 b = MakeRect2(0.5, 0.5, 1.5, 1.5);
  Rect2 c = MakeRect2(2, 2, 3, 3);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.ContainsRect(MakeRect2(0.2, 0.2, 0.8, 0.8)));
  EXPECT_FALSE(a.ContainsRect(b));
  // Touching edges count as intersecting.
  EXPECT_TRUE(a.Intersects(MakeRect2(1, 0, 2, 1)));
}

TEST(RectTest, Margin) {
  Rect2 a = MakeRect2(0, 0, 2, 3);
  EXPECT_DOUBLE_EQ(a.Margin(), 5.0);
}

TEST(RectTest, MinDistancePointInside) {
  Rect2 r = MakeRect2(0, 0, 1, 1);
  EXPECT_DOUBLE_EQ(MinDistance(Point{0.5, 0.5}, r), 0.0);
}

TEST(RectTest, MinDistancePointOutside) {
  Rect2 r = MakeRect2(0, 0, 1, 1);
  EXPECT_DOUBLE_EQ(MinDistance(Point{2.0, 1.0}, r), 1.0);
  EXPECT_DOUBLE_EQ(MinDistance(Point{2.0, 2.0}, r), std::sqrt(2.0));
}

TEST(RectTest, MaxDistanceBoundsAllInterior) {
  Rng rng(3);
  for (int iter = 0; iter < 100; ++iter) {
    Rect2 r = MakeRect2(rng.Uniform(), rng.Uniform(), rng.Uniform(),
                        rng.Uniform());
    Point p{rng.Uniform(-1, 2), rng.Uniform(-1, 2)};
    double maxd = MaxDistance(p, r);
    double mind = MinDistance(p, r);
    EXPECT_LE(mind, maxd);
    for (int s = 0; s < 20; ++s) {
      Point q{rng.Uniform(r.lo[0], r.hi[0]), rng.Uniform(r.lo[1], r.hi[1])};
      double d = Distance(p, q);
      EXPECT_LE(d, maxd + 1e-12);
      EXPECT_GE(d, mind - 1e-12);
    }
  }
}

TEST(RectTest, RectRectMinDistance) {
  Rect2 a = MakeRect2(0, 0, 1, 1);
  EXPECT_DOUBLE_EQ(MinDistance(a, MakeRect2(0.5, 0.5, 2, 2)), 0.0);
  EXPECT_DOUBLE_EQ(MinDistance(a, MakeRect2(2, 0, 3, 1)), 1.0);
  EXPECT_DOUBLE_EQ(MinDistance(a, MakeRect2(2, 2, 3, 3)), std::sqrt(2.0));
}

TEST(Rect4Test, FourDimensionalOps) {
  Rect4 r = Rect4::Empty();
  r.EnlargePoint({0.1, 0.2, 0.3, 0.4});
  r.EnlargePoint({0.5, 0.1, 0.6, 0.2});
  EXPECT_TRUE(r.Contains({0.3, 0.15, 0.4, 0.3}));
  EXPECT_FALSE(r.Contains({0.3, 0.15, 0.4, 0.5}));
  EXPECT_DOUBLE_EQ(r.Center(0), 0.3);
}

TEST(HalfPlaneTest, BisectorKeepsCloserSide) {
  Point a{0, 0}, b{2, 0};
  HalfPlane hp = BisectorHalfPlane(a, b);
  EXPECT_TRUE(hp.Contains({0.5, 0.7}));   // closer to a
  EXPECT_FALSE(hp.Contains({1.5, 0.7}));  // closer to b
  EXPECT_TRUE(hp.Contains({1.0, 5.0}));   // equidistant: boundary inclusive
}

TEST(PolygonTest, FromRectIsCcwSquare) {
  ConvexPolygon p = ConvexPolygon::FromRect(MakeRect2(0, 0, 1, 1));
  EXPECT_FALSE(p.IsEmpty());
  EXPECT_EQ(p.vertices().size(), 4u);
  EXPECT_DOUBLE_EQ(p.Area(), 1.0);
  EXPECT_TRUE(p.Contains({0.5, 0.5}));
  EXPECT_TRUE(p.Contains({0.0, 0.0}));  // boundary inclusive
  EXPECT_FALSE(p.Contains({1.5, 0.5}));
}

TEST(PolygonTest, ClipHalvesSquare) {
  ConvexPolygon p = ConvexPolygon::FromRect(MakeRect2(0, 0, 1, 1));
  std::vector<Point> buffer;
  // Keep x <= 0.5.
  p.Clip(HalfPlane{1, 0, 0.5}, &buffer);
  EXPECT_NEAR(p.Area(), 0.5, 1e-12);
  EXPECT_TRUE(p.Contains({0.25, 0.5}));
  EXPECT_FALSE(p.Contains({0.75, 0.5}));
}

TEST(PolygonTest, ClipToEmpty) {
  ConvexPolygon p = ConvexPolygon::FromRect(MakeRect2(0, 0, 1, 1));
  std::vector<Point> buffer;
  p.Clip(HalfPlane{1, 0, -1.0}, &buffer);  // x <= -1: nothing survives
  EXPECT_TRUE(p.IsEmpty());
  EXPECT_DOUBLE_EQ(p.Area(), 0.0);
  // Clipping an empty polygon stays empty.
  p.Clip(HalfPlane{0, 1, 10}, &buffer);
  EXPECT_TRUE(p.IsEmpty());
}

TEST(PolygonTest, DiagonalClipKeepsTriangle) {
  ConvexPolygon p = ConvexPolygon::FromRect(MakeRect2(0, 0, 1, 1));
  std::vector<Point> buffer;
  // Keep x + y <= 1 (lower-left triangle).
  p.Clip(HalfPlane{1, 1, 1}, &buffer);
  EXPECT_NEAR(p.Area(), 0.5, 1e-12);
  EXPECT_TRUE(p.Contains({0.2, 0.2}));
  EXPECT_FALSE(p.Contains({0.9, 0.9}));
}

TEST(PolygonTest, RepeatedClipsMatchVoronoiCell) {
  // Cell of the origin-centered site among a 3x3 grid of sites is the
  // center square of side 1/3 (sites at spacing 1/3).
  ConvexPolygon cell = ConvexPolygon::FromRect(MakeRect2(0, 0, 1, 1));
  std::vector<Point> buffer;
  Point center{0.5, 0.5};
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      if (dx == 0 && dy == 0) continue;
      Point other{0.5 + dx / 3.0, 0.5 + dy / 3.0};
      cell.Clip(BisectorHalfPlane(center, other), &buffer);
    }
  }
  EXPECT_NEAR(cell.Area(), 1.0 / 9.0, 1e-9);
  EXPECT_TRUE(cell.Contains(center));
  EXPECT_FALSE(cell.Contains({0.5 + 0.25, 0.5}));
}

TEST(PolygonTest, BoundingBoxAndMaxDistance) {
  ConvexPolygon p = ConvexPolygon::FromRect(MakeRect2(0.25, 0.25, 0.75, 0.5));
  Rect2 bb = p.BoundingBox();
  EXPECT_DOUBLE_EQ(bb.lo[0], 0.25);
  EXPECT_DOUBLE_EQ(bb.hi[1], 0.5);
  // Farthest vertex from (0.25, 0.25) is (0.75, 0.5).
  EXPECT_NEAR(p.MaxDistanceFrom({0.25, 0.25}),
              std::sqrt(0.25 + 0.0625), 1e-12);
}

TEST(PolygonTest, ClipPreservesContainmentSemantics) {
  // Property: after clipping by a random half-plane, contained points are
  // exactly those inside both the original polygon and the half-plane.
  Rng rng(17);
  std::vector<Point> buffer;
  for (int iter = 0; iter < 50; ++iter) {
    ConvexPolygon p = ConvexPolygon::FromRect(MakeRect2(0, 0, 1, 1));
    Point keep{rng.Uniform(), rng.Uniform()};
    Point other{rng.Uniform(), rng.Uniform()};
    if (keep == other) continue;
    HalfPlane hp = BisectorHalfPlane(keep, other);
    ConvexPolygon clipped = p;
    clipped.Clip(hp, &buffer);
    for (int s = 0; s < 30; ++s) {
      Point q{rng.Uniform(), rng.Uniform()};
      bool expectation = p.Contains(q) && hp.Contains(q, -1e-9);
      bool loose = p.Contains(q) && hp.Contains(q, 1e-9);
      bool got = clipped.Contains(q);
      // Allow epsilon slack exactly on the boundary.
      EXPECT_TRUE(got == expectation || got == loose)
          << "point (" << q.x << ", " << q.y << ") iter " << iter;
    }
  }
}

}  // namespace
}  // namespace stpq
