// Incremental Voronoi-cell computation for the NN variant (Section 7.2).
//
// The qualifying region of a feature t_i (the points whose nearest relevant
// feature of F_i is t_i) is t_i's Voronoi cell with respect to the relevant
// features of F_i.  The cell is computed incrementally: relevant features
// are streamed by ascending distance from t_i and their perpendicular
// bisectors clip the domain rectangle; once the next feature is at least
// twice as far as the farthest cell vertex, no further feature can shrink
// the cell and it is final.
//
// The clipped polygon is a floating-point approximation and its Contains
// test has slack, so a point a hair across a bisector can pass it.  The
// polygon therefore only prefilters; VoronoiCell::Owns settles membership
// exactly against the features whose bisectors were clipped.
#ifndef STPQ_CORE_VORONOI_H_
#define STPQ_CORE_VORONOI_H_

#include <vector>

#include "geom/polygon.h"
#include "index/feature_index.h"
#include "text/keyword_set.h"
#include "util/attributes.h"
#include "util/metrics.h"

namespace stpq {

struct TraversalScratch;  // core/scratch.h

/// The Voronoi cell of feature `center` among the relevant features of its
/// feature set.
struct VoronoiCell {
  ObjectId center = 0;
  /// The cell clipped to the domain: a prefilter for Owns.
  ConvexPolygon polygon;
  /// Every relevant feature whose bisector was clipped against `polygon`,
  /// plus relevant features co-located with the center (no bisector, but
  /// they tie with it on distance everywhere).
  std::vector<ObjectId> sites;

  /// Whether `center` is p's nearest relevant feature under the
  /// brute-force rule (BruteForceEvaluator): the smaller SquaredDistance
  /// wins and equal distances go to the higher preference score.  Reads
  /// `table` only, never a page.
  bool Owns(const FeatureTable& table, const Point& p,
            const KeywordSet& query_kw, double lambda) const;
};

/// Computes into `cell` the Voronoi cell of feature `center_id` among the
/// features of `index` with sim(t, query_kw) > 0, clipped to `domain`.
/// `cell` is overwritten; its vectors keep their capacity.  Charges the
/// feature index's buffer pool; cost is recorded in the voronoi_* counters
/// of `stats` (the striped bars of the paper's Figures 13-14).
STPQ_HOT void ComputeVoronoiCell(const FeatureIndex& index,
                                 ObjectId center_id,
                                 const KeywordSet& query_kw, double lambda,
                                 const Rect2& domain, QueryStats& stats,
                                 TraversalScratch& scratch,
                                 VoronoiCell* cell);

/// Intersects `poly` with `other` in place (clips by every edge of
/// `other`); both must be convex with CCW vertex order.  `clip_buffer` is
/// ConvexPolygon::Clip's working storage.
STPQ_HOT void IntersectConvex(ConvexPolygon* poly, const ConvexPolygon& other,
                              std::vector<Point>* clip_buffer);

}  // namespace stpq

#endif  // STPQ_CORE_VORONOI_H_
