#include "core/compute_score.h"

#include <algorithm>
#include <optional>

#include "core/best_first_walk.h"
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
  const double r2 = r * r;
  BestFirstWalk<SearchHeapMaxOrder, FeatureIndex> walk(
      index, query_kw, lambda, scratch.heap, scratch, stats);
  // Features enter the heap pre-filtered (dist <= r, sim > 0), sorted by
  // exact s(t): the first one popped is tau_i(p) (Algorithm 2).
  const std::optional<SearchHeapItem> top =
      walk.Next([&](const FeatureBranch& b) -> std::optional<double> {
        if (MinSquaredDistance(p, b.mbr) > r2) return std::nullopt;
        return b.score_bound;
      });
  if (!top.has_value()) return {};
  ++stats.features_retrieved;
  return {top->id, top->priority, Distance(p, index.table().Get(top->id).pos)};
}

BestFeature ComputeBestInfluence(const FeatureIndex& index, const Point& p,
                                 const KeywordSet& query_kw, double lambda,
                                 double r, QueryStats& stats,
                                 TraversalScratch& scratch, double floor) {
  if (index.RootId() == kInvalidNodeId) return {};
  Span span(stats, QueryPhase::kComponentScore, index.set_ordinal());
  BestFirstWalk<SearchHeapMaxOrder, FeatureIndex> walk(
      index, query_kw, lambda, scratch.heap, scratch, stats);
  // s-hat(e) decayed at mindist upper-bounds the influence score of every
  // feature below e (score <= s-hat, distance >= mindist).  A child at or
  // below the floor is never pushed: the unbounded walk would pop it only
  // after its first feature, or find no feature above the floor.  s-hat
  // is tested first, so such a child costs no exp2.  With no floor (minus
  // infinity) neither test prunes.
  const std::optional<SearchHeapItem> top =
      walk.Next([&](const FeatureBranch& b) -> std::optional<double> {
        if (b.score_bound <= floor) return std::nullopt;
        const double bound =
            b.score_bound * InfluenceFactor(MinDistance(p, b.mbr), r);
        if (bound <= floor) return std::nullopt;
        return bound;
      });
  if (!top.has_value()) return {};
  ++stats.features_retrieved;
  return {top->id, top->priority, Distance(p, index.table().Get(top->id).pos)};
}

BestFeature ComputeBestNearestNeighbor(const FeatureIndex& index,
                                       const Point& p,
                                       const KeywordSet& query_kw,
                                       double lambda, QueryStats& stats,
                                       TraversalScratch& scratch) {
  if (index.RootId() == kInvalidNodeId) return {};
  Span span(stats, QueryPhase::kComponentScore, index.set_ordinal());
  BestFirstWalk<SearchHeapMinOrder, FeatureIndex> walk(
      index, query_kw, lambda, scratch.heap, scratch, stats);
  bool found = false;
  double nearest_d2 = std::numeric_limits<double>::infinity();
  BestFeature best;
  const auto mindist2 = [&](const FeatureBranch& b) {
    return MinSquaredDistance(p, b.mbr);
  };
  // Once the nearest relevant feature is known, only exact-distance ties
  // can still matter (they take the max preference score).  Heap
  // priorities are mindist *lower bounds* on the exact distance, so
  // popping everything with priority <= nearest_d2 covers all potential
  // ties; the tie test itself never uses the heap priority.
  const auto settled = [&](const SearchHeapItem& top) {
    return found && top.priority > nearest_d2;
  };
  while (const std::optional<SearchHeapItem> top =
             walk.Next(mindist2, settled)) {
    ++stats.features_retrieved;
    const FeatureObject& t = index.table().Get(top->id);
    // Exact squared distance through one code path for every feature:
    // candidates at geometrically identical distances compare equal even
    // when MBR mindist arithmetic would round differently.
    const double d2 = SquaredDistance(p, t.pos);
    double s = PreferenceScore(t, query_kw, lambda);
    if (!found || d2 < nearest_d2 || (d2 == nearest_d2 && s > best.score)) {
      found = true;
      nearest_d2 = d2;
      best = {top->id, s, std::sqrt(d2)};
    }
  }
  return found ? best : BestFeature{};
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
  const double r2 = r * r;

  // Indices of batch members whose score is still unresolved.
  std::vector<uint32_t>& active = scratch.active;
  active.resize(batch.size());
  for (uint32_t i = 0; i < batch.size(); ++i) active[i] = i;

  BestFirstWalk<SearchHeapMaxOrder, FeatureIndex> walk(
      index, query_kw, lambda, scratch.heap, scratch, stats);
  // Cheap prefilter on the whole batch MBR, then the exact exists-test of
  // Section 5: expand only if at least one active p is in range.
  const auto bound = [&](const FeatureBranch& b) -> std::optional<double> {
    if (MinDistance(batch_mbr, b.mbr) > r) return std::nullopt;
    for (uint32_t i : active) {
      if (MinSquaredDistance(batch[i].pos, b.mbr) <= r2) return b.score_bound;
    }
    return std::nullopt;
  };
  const auto resolved = [&](const SearchHeapItem&) { return active.empty(); };
  while (const std::optional<SearchHeapItem> top = walk.Next(bound, resolved)) {
    ++stats.features_retrieved;
    const FeatureObject& t = index.table().Get(top->id);
    // Features pop in descending s(t): the first one within range of a
    // batch member resolves that member.
    for (size_t a = 0; a < active.size();) {
      uint32_t i = active[a];
      if (SquaredDistance(batch[i].pos, t.pos) <= r2) {
        scores[i] = top->priority;
        active[a] = active.back();
        active.pop_back();
      } else {
        ++a;
      }
    }
  }
}

}  // namespace stpq
