#include "core/compute_score.h"

#include <algorithm>

#include "core/score.h"
#include "geom/rect.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace stpq {

BestFeature ComputeBestRange(const FeatureIndex& index, const Point& p,
                             const KeywordSet& query_kw, double lambda,
                             double r, QueryStats& stats,
                             TraversalScratch& scratch) {
  if (index.RootId() == kInvalidNodeId) return {};
  Span span(stats, QueryPhase::kComponentScore, index.set_ordinal());
  HeapWatermark watermark;
  const uint8_t tree = TraceTreeForSet(index.set_ordinal());
  const double r2 = r * r;
  BorrowedMaxHeap heap(scratch.heap);
  heap.push({1.0, index.RootId(), false});
  while (!heap.empty()) {
    SearchHeapItem top = heap.top();
    heap.pop();
    if (top.is_leaf_item) {
      // Features enter the heap pre-filtered (dist <= r, sim > 0), sorted
      // by exact s(t): the first one popped is tau_i(p) (Algorithm 2).
      ++stats.features_retrieved;
      return {top.id, top.priority,
              Distance(p, index.table().Get(top.id).pos)};
    }
    const NodeChildren node =
        scratch.children.Visit(scratch.pool, index, top.id, query_kw, lambda);
    uint32_t pruned = node.text_pruned;
    uint32_t descended = 0;
    for (const FeatureBranch& b : node.relevant) {
      if (MinSquaredDistance(p, b.mbr) > r2) {
        ++pruned;
        continue;
      }
      heap.push({b.score_bound, b.id, b.is_feature});
      ++descended;
      ++stats.heap_pushes;
    }
    RecordNodeVisit(stats, tree, node.level, top.id, pruned, descended);
    watermark.Observe(heap.size());
  }
  return {};
}

BestFeature ComputeBestInfluence(const FeatureIndex& index, const Point& p,
                                 const KeywordSet& query_kw, double lambda,
                                 double r, QueryStats& stats,
                                 TraversalScratch& scratch) {
  if (index.RootId() == kInvalidNodeId) return {};
  Span span(stats, QueryPhase::kComponentScore, index.set_ordinal());
  HeapWatermark watermark;
  const uint8_t tree = TraceTreeForSet(index.set_ordinal());
  BorrowedMaxHeap heap(scratch.heap);
  heap.push({1.0, index.RootId(), false});
  while (!heap.empty()) {
    SearchHeapItem top = heap.top();
    heap.pop();
    if (top.is_leaf_item) {
      ++stats.features_retrieved;
      return {top.id, top.priority,
              Distance(p, index.table().Get(top.id).pos)};
    }
    const NodeChildren node =
        scratch.children.Visit(scratch.pool, index, top.id, query_kw, lambda);
    uint32_t descended = 0;
    for (const FeatureBranch& b : node.relevant) {
      // s-hat(e) decayed at mindist upper-bounds the influence score of
      // every feature below e (score <= s-hat, distance >= mindist).
      double pri =
          b.score_bound * InfluenceFactor(MinDistance(p, b.mbr), r);
      heap.push({pri, b.id, b.is_feature});
      ++descended;
      ++stats.heap_pushes;
    }
    RecordNodeVisit(stats, tree, node.level, top.id, node.text_pruned,
                    descended);
    watermark.Observe(heap.size());
  }
  return {};
}

double ComputeScoreInfluence(const FeatureIndex& index, const Point& p,
                             const KeywordSet& query_kw, double lambda,
                             double r, QueryStats& stats,
                             TraversalScratch& scratch) {
  return ComputeBestInfluence(index, p, query_kw, lambda, r, stats, scratch)
      .score;
}

BestFeature ComputeBestNearestNeighbor(const FeatureIndex& index,
                                       const Point& p,
                                       const KeywordSet& query_kw,
                                       double lambda, QueryStats& stats,
                                       TraversalScratch& scratch) {
  if (index.RootId() == kInvalidNodeId) return {};
  Span span(stats, QueryPhase::kComponentScore, index.set_ordinal());
  HeapWatermark watermark;
  const uint8_t tree = TraceTreeForSet(index.set_ordinal());
  BorrowedMinHeap heap(scratch.heap);
  heap.push({0.0, index.RootId(), false});
  bool found = false;
  double nearest_d2 = std::numeric_limits<double>::infinity();
  BestFeature best;
  while (!heap.empty()) {
    SearchHeapItem top = heap.top();
    // Once the nearest relevant feature is known, only exact-distance ties
    // can still matter (they take the max preference score).  Heap
    // priorities are mindist *lower bounds* on the exact distance, so
    // popping everything with priority <= nearest_d2 covers all potential
    // ties; the tie test itself never uses the heap priority.
    if (found && top.priority > nearest_d2) break;
    heap.pop();
    if (top.is_leaf_item) {
      ++stats.features_retrieved;
      const FeatureObject& t = index.table().Get(top.id);
      // Exact squared distance through one code path for every feature:
      // candidates at geometrically identical distances compare equal even
      // when MBR mindist arithmetic would round differently.
      const double d2 = SquaredDistance(p, t.pos);
      double s = PreferenceScore(t, query_kw, lambda);
      if (!found || d2 < nearest_d2 ||
          (d2 == nearest_d2 && s > best.score)) {
        found = true;
        nearest_d2 = d2;
        best = {top.id, s, std::sqrt(d2)};
      }
      continue;
    }
    const NodeChildren node =
        scratch.children.Visit(scratch.pool, index, top.id, query_kw, lambda);
    uint32_t descended = 0;
    for (const FeatureBranch& b : node.relevant) {
      heap.push({MinSquaredDistance(p, b.mbr), b.id, b.is_feature});
      ++descended;
      ++stats.heap_pushes;
    }
    RecordNodeVisit(stats, tree, node.level, top.id, node.text_pruned,
                    descended);
    watermark.Observe(heap.size());
  }
  return found ? best : BestFeature{};
}

double ComputeScoreNearestNeighbor(const FeatureIndex& index, const Point& p,
                                   const KeywordSet& query_kw, double lambda,
                                   QueryStats& stats,
                                   TraversalScratch& scratch) {
  return ComputeBestNearestNeighbor(index, p, query_kw, lambda, stats,
                                    scratch)
      .score;
}

void ComputeScoresRangeBatch(const FeatureIndex& index,
                             std::span<const BatchObject> batch,
                             const Rect2& batch_mbr,
                             const KeywordSet& query_kw, double lambda,
                             double r, std::span<double> scores,
                             QueryStats& stats, TraversalScratch& scratch) {
  STPQ_CHECK(scores.size() == batch.size());
  std::fill(scores.begin(), scores.end(), 0.0);
  if (index.RootId() == kInvalidNodeId || batch.empty()) return;
  Span span(stats, QueryPhase::kComponentScore, index.set_ordinal());
  HeapWatermark watermark;
  const uint8_t tree = TraceTreeForSet(index.set_ordinal());
  const double r2 = r * r;

  // Indices of batch members whose score is still unresolved.
  std::vector<uint32_t>& active = scratch.active;
  active.resize(batch.size());
  for (uint32_t i = 0; i < batch.size(); ++i) active[i] = i;

  BorrowedMaxHeap heap(scratch.heap);
  heap.push({1.0, index.RootId(), false});
  while (!heap.empty() && !active.empty()) {
    SearchHeapItem top = heap.top();
    heap.pop();
    if (top.is_leaf_item) {
      ++stats.features_retrieved;
      const FeatureObject& t = index.table().Get(top.id);
      // Features pop in descending s(t): the first one within range of a
      // batch member resolves that member.
      for (size_t a = 0; a < active.size();) {
        uint32_t i = active[a];
        if (SquaredDistance(batch[i].pos, t.pos) <= r2) {
          scores[i] = top.priority;
          active[a] = active.back();
          active.pop_back();
        } else {
          ++a;
        }
      }
      continue;
    }
    const NodeChildren node =
        scratch.children.Visit(scratch.pool, index, top.id, query_kw, lambda);
    uint32_t pruned = node.text_pruned;
    uint32_t descended = 0;
    for (const FeatureBranch& b : node.relevant) {
      // Cheap prefilter on the whole batch MBR, then the exact exists-test
      // of Section 5: expand only if at least one active p is in range.
      if (MinDistance(batch_mbr, b.mbr) > r) {
        ++pruned;
        continue;
      }
      bool any = false;
      for (uint32_t i : active) {
        if (MinSquaredDistance(batch[i].pos, b.mbr) <= r2) {
          any = true;
          break;
        }
      }
      if (!any) {
        ++pruned;
        continue;
      }
      heap.push({b.score_bound, b.id, b.is_feature});
      ++descended;
      ++stats.heap_pushes;
    }
    RecordNodeVisit(stats, tree, node.level, top.id, pruned, descended);
    watermark.Observe(heap.size());
  }
}

}  // namespace stpq
