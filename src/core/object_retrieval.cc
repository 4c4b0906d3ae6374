#include "core/object_retrieval.h"

#include "geom/rect.h"
#include "obs/trace.h"
#include "rtree/rtree.h"

namespace stpq {

void CollectObjectsInRange(const ObjectIndex& objects,
                           std::span<const Point> member_pos,
                           double radius, double score, size_t remaining,
                           std::vector<bool>* claimed,
                           std::vector<ResultEntry>* result,
                           QueryStats& stats, TraversalScratch& scratch) {
  if (objects.RootId() == kInvalidNodeId || remaining == 0) return;
  Span span(stats, QueryPhase::kObjectRetrieval,
            static_cast<uint32_t>(remaining),
            static_cast<uint64_t>(member_pos.size()));
  const double r2 = radius * radius;
  size_t added = 0;
  std::vector<NodeId>& stack = scratch.stack;
  stack.assign(1, objects.RootId());
  while (!stack.empty() && added < remaining) {
    NodeId nid = stack.back();
    stack.pop_back();
    const NodeView node = objects.ReadNode(scratch.object_pool, nid);
    uint32_t pruned = 0;
    uint32_t descended = 0;
    for (uint32_t i = 0; i < node.size(); ++i) {
      const Rect2 rect = node.mbr(i);
      if (added >= remaining) break;
      // Prune entries out of range of any real member (Section 6.4).
      bool ok = true;
      for (const Point& t : member_pos) {
        if (MinSquaredDistance(t, rect) > r2) {
          ok = false;
          break;
        }
      }
      if (!ok) {
        ++pruned;
        continue;
      }
      if (node.IsLeaf()) {
        if ((*claimed)[node.id(i)]) {
          ++pruned;
          continue;
        }
        Point p{rect.lo[0], rect.lo[1]};
        bool in_range = true;
        for (const Point& t : member_pos) {
          if (SquaredDistance(p, t) > r2) {
            in_range = false;
            break;
          }
        }
        if (!in_range) {
          ++pruned;
          continue;
        }
        (*claimed)[node.id(i)] = true;
        ++stats.objects_scored;
        result->push_back(ResultEntry{node.id(i), score});
        ++added;
        ++descended;
      } else {
        stack.push_back(node.id(i));
        ++descended;
      }
    }
    RecordNodeVisit(stats, kTraceObjectTree, node.level(), nid, pruned,
                    descended);
  }
}

}  // namespace stpq
