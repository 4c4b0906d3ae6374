// STPS for the nearest-neighbor score variant (Section 7.2).
//
// For a combination C, the qualifying objects are those whose nearest
// relevant feature of every F_i is C's member t_i — the intersection of the
// members' Voronoi cells.  Cells are computed incrementally and cached per
// feature; combinations whose intersection turns empty are discarded early.
// The intersected polygons prefilter candidate objects, and each member's
// cell confirms them exactly (VoronoiCell::Owns), so near-ties resolve as
// under the brute-force definition.
#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "core/combination.h"
#include "core/stps.h"
#include "core/voronoi.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace stpq {

namespace {

/// Appends up to `remaining` unclaimed objects inside `region` for which
/// `owned(p)` holds to `result` with score `score`.
template <typename OwnedFn>
void CollectObjectsInRegion(const ObjectIndex& objects,
                            const ConvexPolygon& region, const OwnedFn& owned,
                            double score, size_t remaining,
                            std::vector<bool>* claimed,
                            std::vector<ResultEntry>* result,
                            QueryStats& stats, TraversalScratch& scratch) {
  if (objects.RootId() == kInvalidNodeId || remaining == 0) return;
  Span span(stats, QueryPhase::kObjectRetrieval,
            static_cast<uint32_t>(remaining));
  const Rect2 bbox = region.BoundingBox();
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
      if (!bbox.Intersects(rect)) {
        ++pruned;
        continue;
      }
      if (node.IsLeaf()) {
        if ((*claimed)[node.id(i)]) {
          ++pruned;
          continue;
        }
        Point p{rect.lo[0], rect.lo[1]};
        if (!region.Contains(p) || !owned(p)) {
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

}  // namespace

QueryResult Stps::ExecuteNearestNeighbor(const Query& query,
                                         PullingStrategy strategy,
                                         TraversalScratch& scratch) const {
  QueryResult result;
  result.entries.reserve(std::min<size_t>(query.k, objects_->size()));
  CombinationIterator it(feature_indexes_, query,
                         /*enforce_range_constraint=*/false, strategy,
                         &result.stats, scratch);
  const size_t c = feature_indexes_.size();

  // A virtual member at position i matches an object only when F_i has no
  // relevant feature at all (otherwise every object has a real nearest
  // neighbor in F_i).  Probe each set once.
  std::array<bool, kMaxFeatureSets> set_has_relevant{};
  for (size_t i = 0; i < c; ++i) {
    SortedFeatureStream probe(feature_indexes_[i], &query.keywords[i],
                              query.lambda, &result.stats,
                              &scratch.children, &scratch.heap);
    std::optional<SortedFeatureStream::Item> first = probe.Next();
    set_has_relevant[i] =
        first.has_value() && first->id != kVirtualFeature;
  }

  std::vector<bool>& claimed = scratch.flags;
  claimed.assign(objects_->size(), false);
  // Voronoi cells kept per (feature set, feature): combinations share
  // members.
  VoronoiScratch& voronoi = scratch.voronoi;
  voronoi.used = 0;
  voronoi.index.Clear();
  const Rect2& domain = objects_->domain();
  // Position of the cell in voronoi.cells, computed on first use.
  auto cell_for = [&](size_t i, ObjectId member) -> uint32_t {
    const uint64_t key = (static_cast<uint64_t>(i) << 32) | member;
    bool inserted = false;
    uint32_t& slot = voronoi.index.FindOrInsert(key, &inserted);
    if (!inserted) return slot;
    const uint32_t pos = static_cast<uint32_t>(voronoi.used++);
    slot = pos;
    if (pos == voronoi.cells.size()) voronoi.cells.emplace_back();
    ComputeVoronoiCell(*feature_indexes_[i], member, query.keywords[i],
                       query.lambda, domain, result.stats, scratch,
                       &voronoi.cells[pos]);
    return pos;
  };

  // The cells of the current combination's real members (kNoCell for a
  // virtual member), as positions in voronoi.cells.
  constexpr uint32_t kNoCell = 0xffffffffu;
  std::array<uint32_t, kMaxFeatureSets> cell_of{};
  const auto owned = [&](const Point& p) {
    for (size_t i = 0; i < c; ++i) {
      if (cell_of[i] != kNoCell &&
          !voronoi.cells[cell_of[i]].Owns(feature_indexes_[i]->table(), p,
                                          query.keywords[i], query.lambda)) {
        return false;
      }
    }
    return true;
  };
  ConvexPolygon& region = voronoi.region;
  while (result.entries.size() < query.k) {
    std::optional<Combination> combo = it.Next();
    if (!combo.has_value()) break;
    region.AssignRect(domain);
    bool feasible = true;
    for (size_t i = 0; i < c && feasible; ++i) {
      ObjectId member = combo->members[i];
      cell_of[i] = kNoCell;
      if (member == kVirtualFeature) {
        // tau_i(p) = 0 is only possible when F_i has nothing relevant.
        if (set_has_relevant[i]) feasible = false;
        continue;
      }
      cell_of[i] = cell_for(i, member);
      IntersectConvex(&region, voronoi.cells[cell_of[i]].polygon,
                      &voronoi.clip);
      if (region.IsEmpty()) feasible = false;
    }
    if (!feasible || region.IsEmpty()) continue;
    CollectObjectsInRegion(*objects_, region, owned, combo->score,
                           query.k - result.entries.size(), &claimed,
                           &result.entries, result.stats, scratch);
  }
  return result;
}

}  // namespace stpq
