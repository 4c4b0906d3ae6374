#include "core/voronoi.h"

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
  const uint8_t tree = TraceTreeForSet(index.set_ordinal());
  const BufferPoolStats before = scratch.pool.stats();
  const Point center = index.table().Get(center_id).pos;
  VoronoiCell& cell = *out;
  cell.center = center_id;
  cell.polygon.AssignRect(domain);
  cell.sites.clear();
  ++stats.voronoi_cells;

  // Only relevant features define cells: the memo's views hold exactly
  // the entries that may lead to one.
  // Min-heap on squared mindist from the center.
  BorrowedMinHeap heap(scratch.heap);
  if (index.RootId() != kInvalidNodeId) {
    heap.push({0.0, index.RootId(), false});
  }
  double max_vertex = cell.polygon.MaxDistanceFrom(center);
  while (!heap.empty() && !cell.polygon.IsEmpty()) {
    SearchHeapItem top = heap.top();
    // Termination: a feature at distance d can only cut the cell if
    // d / 2 < max vertex distance.
    if (top.priority >= 4.0 * max_vertex * max_vertex) break;
    heap.pop();
    if (top.is_leaf_item) {
      if (top.id == center_id) continue;
      const FeatureObject& t = index.table().Get(top.id);
      cell.sites.push_back(top.id);
      if (t.pos == center) continue;  // co-located: bisector undefined
      ++stats.voronoi_clip_features;
      cell.polygon.Clip(BisectorHalfPlane(center, t.pos),
                        &scratch.voronoi.clip);
      max_vertex = cell.polygon.MaxDistanceFrom(center);
      continue;
    }
    const NodeChildren node =
        scratch.children.Visit(scratch.pool, index, top.id, query_kw, lambda);
    for (const FeatureBranch& b : node.relevant) {
      heap.push({MinSquaredDistance(center, b.mbr), b.id, b.is_feature});
    }
    RecordNodeVisit(stats, tree, node.level, top.id, node.text_pruned,
                    static_cast<uint32_t>(node.relevant.size()));
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
