#include "core/voronoi.h"

#include <optional>

#include "core/best_first_walk.h"
#include "core/scratch.h"
#include "core/score.h"
#include "obs/trace.h"

namespace stpq {

bool VoronoiCell::Owns(const FeatureTable& table, const Point& p,
                       const KeywordSet& query_kw, double lambda) const {
  const FeatureObject& c = table.Get(center);
  const double d2 = SquaredDistance(p, c.pos);
  for (ObjectId id : sites) {
    const FeatureObject& t = table.Get(id);
    const double t_d2 = SquaredDistance(p, t.pos);
    if (t_d2 < d2) return false;
    if (t_d2 == d2 && PreferenceScore(t, query_kw, lambda) >
                          PreferenceScore(c, query_kw, lambda)) {
      return false;
    }
  }
  return true;
}

void ComputeVoronoiCell(const FeatureIndex& index, ObjectId center_id,
                        const KeywordSet& query_kw, double lambda,
                        const Rect2& domain, QueryStats& stats,
                        TraversalScratch& scratch, VoronoiCell* out) {
  Span span(stats, QueryPhase::kVoronoi, index.set_ordinal(), center_id);
  const BufferPoolStats before = scratch.pool.stats();
  const Point center = index.table().Get(center_id).pos;
  VoronoiCell& cell = *out;
  cell.center = center_id;
  cell.polygon.AssignRect(domain);
  cell.sites.clear();
  ++stats.voronoi_cells;

  // Only relevant features define cells: the memo's views hold exactly
  // the entries that may lead to one.  Min-heap on squared mindist from
  // the center.
  BestFirstWalk<SearchHeapMinOrder, FeatureIndex> walk(
      index, query_kw, lambda, scratch.heap, scratch, stats);
  double max_vertex = cell.polygon.MaxDistanceFrom(center);
  const auto mindist2 = [&](const FeatureBranch& b) {
    return MinSquaredDistance(center, b.mbr);
  };
  // Termination: a feature at distance d can only cut the cell if
  // d / 2 < max vertex distance.
  const auto final_cell = [&](const SearchHeapItem& top) {
    return cell.polygon.IsEmpty() ||
           top.priority >= 4.0 * max_vertex * max_vertex;
  };
  while (const std::optional<SearchHeapItem> top =
             walk.Next(mindist2, final_cell)) {
    if (top->id == center_id) continue;
    const FeatureObject& t = index.table().Get(top->id);
    cell.sites.push_back(top->id);
    if (t.pos == center) continue;  // co-located: bisector undefined
    ++stats.voronoi_clip_features;
    cell.polygon.Clip(BisectorHalfPlane(center, t.pos),
                      &scratch.voronoi.clip);
    max_vertex = cell.polygon.MaxDistanceFrom(center);
  }

  stats.voronoi_reads += (scratch.pool.stats() - before).feature_reads;
}

void IntersectConvex(ConvexPolygon* poly, const ConvexPolygon& other,
                     std::vector<Point>* clip_buffer) {
  if (other.IsEmpty()) {
    poly->Clear();
    return;
  }
  const std::vector<Point>& v = other.vertices();
  for (size_t i = 0; i < v.size() && !poly->IsEmpty(); ++i) {
    const Point& a = v[i];
    const Point& b = v[(i + 1) % v.size()];
    // CCW edge (a -> b): the inside is the left side, i.e.
    // cross(b - a, p - a) >= 0  <=>  (-dy)*p.x + dx*p.y <= dx*a.y - dy*a.x.
    double dx = b.x - a.x;
    double dy = b.y - a.y;
    poly->Clip(HalfPlane{dy, -dx, dy * a.x - dx * a.y}, clip_buffer);
  }
}

}  // namespace stpq
