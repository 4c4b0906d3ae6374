#include "geom/polygon.h"

#include <algorithm>
#include <cmath>

namespace stpq {

HalfPlane BisectorHalfPlane(const Point& keep, const Point& other) {
  // dist(p, keep) <= dist(p, other)
  //   <=>  2*(other - keep) . p  <=  |other|^2 - |keep|^2
  HalfPlane hp;
  hp.a = 2.0 * (other.x - keep.x);
  hp.b = 2.0 * (other.y - keep.y);
  hp.c = other.x * other.x + other.y * other.y - keep.x * keep.x -
         keep.y * keep.y;
  return hp;
}

ConvexPolygon ConvexPolygon::FromRect(const Rect2& r) {
  ConvexPolygon p;
  p.AssignRect(r);
  return p;
}

void ConvexPolygon::AssignRect(const Rect2& r) {
  if (r.IsEmpty()) {
    vertices_.clear();
    return;
  }
  vertices_.assign({{r.lo[0], r.lo[1]},
                    {r.hi[0], r.lo[1]},
                    {r.hi[0], r.hi[1]},
                    {r.lo[0], r.hi[1]}});
}

void ConvexPolygon::Clip(const HalfPlane& hp, std::vector<Point>* buffer) {
  if (IsEmpty()) return;
  std::vector<Point>& out = *buffer;
  out.clear();
  const size_t n = vertices_.size();
  for (size_t i = 0; i < n; ++i) {
    const Point& cur = vertices_[i];
    const Point& nxt = vertices_[(i + 1) % n];
    double fc = hp.Evaluate(cur);
    double fn = hp.Evaluate(nxt);
    if (fc <= 0.0) {
      out.push_back(cur);
      if (fn > 0.0) {
        // Edge exits the half-plane: add the crossing point.
        double s = fc / (fc - fn);
        out.push_back({cur.x + s * (nxt.x - cur.x),
                       cur.y + s * (nxt.y - cur.y)});
      }
    } else if (fn <= 0.0) {
      // Edge enters the half-plane: add the crossing point.
      double s = fc / (fc - fn);
      out.push_back(
          {cur.x + s * (nxt.x - cur.x), cur.y + s * (nxt.y - cur.y)});
    }
  }
  if (out.size() < 3) {
    vertices_.clear();
  } else {
    vertices_.assign(out.begin(), out.end());
  }
}

bool ConvexPolygon::Contains(const Point& p, double eps) const {
  if (IsEmpty()) return false;
  const size_t n = vertices_.size();
  for (size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    // CCW orientation: inside points have non-negative cross products.
    double cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x);
    if (cross < -eps) return false;
  }
  return true;
}

Rect2 ConvexPolygon::BoundingBox() const {
  Rect2 box = Rect2::Empty();
  for (const Point& v : vertices_) box.EnlargePoint({v.x, v.y});
  return box;
}

double ConvexPolygon::MaxDistanceFrom(const Point& p) const {
  double best = 0.0;
  for (const Point& v : vertices_) {
    best = std::max(best, SquaredDistance(p, v));
  }
  return std::sqrt(best);
}

double ConvexPolygon::Area() const {
  if (IsEmpty()) return 0.0;
  double twice = 0.0;
  const size_t n = vertices_.size();
  for (size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    twice += a.x * b.y - b.x * a.y;
  }
  return 0.5 * std::abs(twice);
}

}  // namespace stpq
