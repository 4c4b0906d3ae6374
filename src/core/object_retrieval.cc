#include "core/object_retrieval.h"

#include <array>

#include "geom/rect.h"
#include "obs/trace.h"
#include "rtree/rtree.h"

namespace stpq {

void CollectCombinationObjects(
    const ObjectIndex& objects,
    std::span<const FeatureIndex* const> feature_indexes,
    const Combination& combo, double radius, size_t remaining,
    std::vector<bool>* claimed, std::vector<ResultEntry>* result,
    QueryStats& stats, TraversalScratch& scratch) {
  if (objects.RootId() == kInvalidNodeId || remaining == 0) return;
  std::array<Point, kMaxFeatureSets> positions;
  size_t real = 0;
  for (size_t i = 0; i < combo.members.size(); ++i) {
    if (combo.members[i] == kVirtualFeature) continue;
    positions[real++] = feature_indexes[i]->table().Get(combo.members[i]).pos;
  }
  const std::span<const Point> member_pos(positions.data(), real);
  Span span(stats, QueryPhase::kObjectRetrieval,
            static_cast<uint32_t>(remaining),
            static_cast<uint64_t>(member_pos.size()));
  const double r2 = radius * radius;
  // Whether every real member t has dist2(t) <= r^2.
  const auto all_within = [&](const auto& dist2) {
    for (const Point& t : member_pos) {
      if (dist2(t) > r2) return false;
    }
    return true;
  };
  objects.WalkRegion(
      scratch.pool, remaining,
      // Prune entries out of range of any real member (Section 6.4).
      [&](const Rect2& rect) {
        return all_within(
            [&](const Point& t) { return MinSquaredDistance(t, rect); });
      },
      [&](ObjectId id, const Point& p) {
        const auto dist2 = [&](const Point& t) { return SquaredDistance(p, t); };
        if ((*claimed)[id] || !all_within(dist2)) return false;
        (*claimed)[id] = true;
        ++stats.objects_scored;
        result->push_back(ResultEntry{id, combo.score});
        return true;
      },
      &scratch.stack, &stats);
}

}  // namespace stpq
