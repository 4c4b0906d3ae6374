// Convex polygons with half-plane clipping.
//
// Used by the nearest-neighbor variant (Section 7.2) to compute Voronoi
// cells incrementally: the cell of a feature t is the domain rectangle
// clipped by the perpendicular bisector of (t, t') for each nearby feature
// t', and the qualifying region of a combination is the intersection of its
// members' cells.
#ifndef STPQ_GEOM_POLYGON_H_
#define STPQ_GEOM_POLYGON_H_

#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace stpq {

/// Closed half-plane {p : a*p.x + b*p.y <= c}.
struct HalfPlane {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;

  /// Signed slack: negative values are strictly inside.
  double Evaluate(const Point& p) const { return a * p.x + b * p.y - c; }

  bool Contains(const Point& p, double eps = 1e-12) const {
    return Evaluate(p) <= eps;
  }
};

/// Half-plane of points at least as close to `keep` as to `other`
/// (the perpendicular-bisector side of `keep`).
HalfPlane BisectorHalfPlane(const Point& keep, const Point& other);

/// A convex polygon maintained as a counter-clockwise vertex list.
///
/// Supports Sutherland–Hodgman clipping by half-planes; clipping an empty
/// polygon stays empty.
class ConvexPolygon {
 public:
  /// Empty polygon.
  ConvexPolygon() = default;

  /// Rectangle as a polygon (the Voronoi domain bounding box).
  static ConvexPolygon FromRect(const Rect2& r);

  /// Makes this polygon the rectangle `r` (empty if `r` is), reusing the
  /// vertex storage.
  void AssignRect(const Rect2& r);

  /// Makes this polygon empty, keeping the vertex storage.
  void Clear() { vertices_.clear(); }

  /// Clips the polygon by `hp`, keeping the inside part.  The clipped
  /// vertices are built in `buffer` (caller-owned working storage, so a
  /// warm caller clips without allocating) and copied back, which keeps
  /// each polygon's own capacity in place.
  void Clip(const HalfPlane& hp, std::vector<Point>* buffer);

  bool IsEmpty() const { return vertices_.size() < 3; }

  /// Point-in-polygon test (boundary counts as inside).
  bool Contains(const Point& p, double eps = 1e-9) const;

  /// Axis-aligned bounding box; Rect2::Empty() if the polygon is empty.
  Rect2 BoundingBox() const;

  /// Maximum distance from `p` to any vertex.  For a convex polygon this is
  /// the maximum distance from `p` to any point of the polygon, which is the
  /// termination bound for incremental Voronoi-cell computation.
  double MaxDistanceFrom(const Point& p) const;

  const std::vector<Point>& vertices() const { return vertices_; }

  /// Polygon area (shoelace formula); 0 if empty.
  double Area() const;

 private:
  std::vector<Point> vertices_;
};

}  // namespace stpq

#endif  // STPQ_GEOM_POLYGON_H_
