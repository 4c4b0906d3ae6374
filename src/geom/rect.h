// Axis-aligned D-dimensional rectangles (R-tree MBRs).
//
// The object R-tree and the IR2-tree use D=2; the SRT-index maps features to
// D=4 (x, y, score, normalized Hilbert keyword value), per Section 4.2.
#ifndef STPQ_GEOM_RECT_H_
#define STPQ_GEOM_RECT_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "geom/point.h"
#include "util/logging.h"

namespace stpq {

/// Minimum bounding rectangle in D dimensions.
template <int D>
struct Rect {
  std::array<double, D> lo;
  std::array<double, D> hi;

  /// An empty rectangle: enlarging it by any point yields that point.
  static Rect Empty() {
    Rect r;
    r.lo.fill(std::numeric_limits<double>::infinity());
    r.hi.fill(-std::numeric_limits<double>::infinity());
    return r;
  }

  /// Degenerate rectangle covering a single D-dimensional point.
  static Rect FromPoint(const std::array<double, D>& p) {
    return Rect{p, p};
  }

  bool IsEmpty() const { return lo[0] > hi[0]; }

  /// Grows this rectangle to cover `other`.
  void Enlarge(const Rect& other) {
    for (int d = 0; d < D; ++d) {
      lo[d] = std::min(lo[d], other.lo[d]);
      hi[d] = std::max(hi[d], other.hi[d]);
    }
  }

  /// Grows this rectangle to cover the point `p`.
  void EnlargePoint(const std::array<double, D>& p) {
    for (int d = 0; d < D; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }

  bool Contains(const std::array<double, D>& p) const {
    for (int d = 0; d < D; ++d) {
      if (p[d] < lo[d] || p[d] > hi[d]) return false;
    }
    return true;
  }

  bool ContainsRect(const Rect& other) const {
    for (int d = 0; d < D; ++d) {
      if (other.lo[d] < lo[d] || other.hi[d] > hi[d]) return false;
    }
    return true;
  }

  bool Intersects(const Rect& other) const {
    for (int d = 0; d < D; ++d) {
      if (other.hi[d] < lo[d] || other.lo[d] > hi[d]) return false;
    }
    return true;
  }

  /// Sum of side lengths (the R*-tree margin measure).
  double Margin() const {
    double m = 0.0;
    for (int d = 0; d < D; ++d) m += std::max(0.0, hi[d] - lo[d]);
    return m;
  }

  /// Center coordinate along dimension d.
  double Center(int d) const {
    STPQ_DCHECK(d >= 0 && d < D);
    return 0.5 * (lo[d] + hi[d]);
  }
};

using Rect2 = Rect<2>;
using Rect4 = Rect<4>;

/// Builds a 2-D rectangle from two corner coordinates.
inline Rect2 MakeRect2(double x0, double y0, double x1, double y1) {
  return Rect2{{std::min(x0, x1), std::min(y0, y1)},
               {std::max(x0, x1), std::max(y0, y1)}};
}

/// Degenerate 2-D rectangle for a point.
inline Rect2 PointRect(const Point& p) { return Rect2{{p.x, p.y}, {p.x, p.y}}; }

/// Minimum squared distance from point `p` to rectangle `r` (0 if inside).
inline double MinSquaredDistance(const Point& p, const Rect2& r) {
  double dx = std::max({r.lo[0] - p.x, 0.0, p.x - r.hi[0]});
  double dy = std::max({r.lo[1] - p.y, 0.0, p.y - r.hi[1]});
  return dx * dx + dy * dy;
}

/// The classic R-tree mindist(p, e): lower bound of dist(p, t) for any
/// feature t inside entry e's MBR.
inline double MinDistance(const Point& p, const Rect2& r) {
  return std::sqrt(MinSquaredDistance(p, r));
}

/// Maximum distance from `p` to any point of `r` (upper bound of dist).
inline double MaxDistance(const Point& p, const Rect2& r) {
  double dx = std::max(std::abs(p.x - r.lo[0]), std::abs(p.x - r.hi[0]));
  double dy = std::max(std::abs(p.y - r.lo[1]), std::abs(p.y - r.hi[1]));
  return std::sqrt(dx * dx + dy * dy);
}

/// Minimum distance between two rectangles (0 if they intersect).
inline double MinDistance(const Rect2& a, const Rect2& b) {
  double dx = std::max({b.lo[0] - a.hi[0], 0.0, a.lo[0] - b.hi[0]});
  double dy = std::max({b.lo[1] - a.hi[1], 0.0, a.lo[1] - b.hi[1]});
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace stpq

#endif  // STPQ_GEOM_RECT_H_
