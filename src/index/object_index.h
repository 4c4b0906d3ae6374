// ObjectIndex: the R-tree over the data objects O ("rtree" in the paper).
#ifndef STPQ_INDEX_OBJECT_INDEX_H_
#define STPQ_INDEX_OBJECT_INDEX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "index/build_params.h"
#include "index/feature.h"
#include "index/paged_tree.h"
#include "obs/trace.h"
#include "rtree/bulk_load.h"
#include "rtree/node_page.h"
#include "rtree/rtree.h"
#include "util/metrics.h"

namespace stpq {

/// 2-D R-tree over data objects, Hilbert bulk-loaded.
class ObjectIndex {
 public:
  /// Builds over `objects` (not owned; must outlive the index) into pages
  /// of its own, with page size and fill from `params`.  The object tree
  /// is tree 0 of the engine's page-id namespace: its page ids start at
  /// TreePageBase(0).
  ObjectIndex(const std::vector<DataObject>* objects,
              const IndexBuildParams& params);

  /// Reads a packed tree (Pack, or a .stpqx file) whose pages `pages`
  /// serves at TreePageBase(0), and recomputes the spatial domain from
  /// `objects` (deterministic, so it matches the builder).
  ObjectIndex(const std::vector<DataObject>* objects, TreeMeta meta,
              const PageStore* pages);

  /// Packs the object R-tree over `objects` into node pages (build time).
  static TreeImage Pack(const std::vector<DataObject>& objects,
                        const IndexBuildParams& params);

  /// Page columns: the id and the 2-D rect.
  static PageLayout Layout() { return PageLayout{}; }

  /// Leaf entry of object `o` stored under record id `id`: its location.
  static PageEntry LeafEntry(uint32_t id, const DataObject& o) {
    return PageEntry{PointRect(o.pos), id, 0.0, {}};
  }

  /// Hilbert sort point of object `o`: its location.
  static SortPoint LeafSortPoint(const DataObject& o) {
    return SpatialSortPoint(o.pos);
  }

  const DataObject& Get(ObjectId id) const { return (*objects_)[id]; }
  size_t size() const { return objects_->size(); }

  /// Ids of all objects within Euclidean distance `radius` of `center`,
  /// into `out` (cleared first).  Every node is read through `pool`.
  /// `stack` is the traversal's working storage; both keep their capacity
  /// for the caller's next walk.  With `stats`, node expansions land in
  /// the object-tree traversal profile (and as trace instants).
  void RangeQuery(BufferPool& pool, const Point& center, double radius,
                  std::vector<ObjectId>* out, std::vector<NodeId>* stack,
                  QueryStats* stats = nullptr) const;

  /// The one depth-first region walk: descends the entries whose MBR
  /// passes `may_hold(const Rect2&)`, offers each object among them to
  /// `take(ObjectId id, const Point& p)`, which returns whether it took
  /// the object, and stops once `limit` objects were taken (the limit is
  /// checked before each entry).  Every node is read through `pool`;
  /// `stack` is the walk's working storage.  With `stats`, each node
  /// visit lands in the object-tree traversal profile: an entry is
  /// descended if it passes `may_hold` and, for an object, `take` takes
  /// it; otherwise it is pruned.
  template <typename MayHold, typename Take>
  void WalkRegion(BufferPool& pool, size_t limit, const MayHold& may_hold,
                  const Take& take, std::vector<NodeId>* stack,
                  QueryStats* stats) const;

  /// Calls `fn(std::span<const ObjectId> ids)` once per leaf node with the
  /// leaf's object ids, reading every node through `pool`.  Used by
  /// batched STDS: each leaf is a spatially clustered batch.  `stack` and
  /// `ids` are the walk's working storage (`fn` must not touch them).
  /// With `stats`, node expansions land in the object-tree traversal
  /// profile (and as trace instants).
  template <typename LeafFn>
  void ForEachLeafBlock(BufferPool& pool, const LeafFn& fn,
                        std::vector<NodeId>* stack,
                        std::vector<ObjectId>* ids,
                        QueryStats* stats = nullptr) const;

  /// The index's pages (the best-first walk, validators, Save).
  const PagedTree& tree() const { return tree_; }

  /// Root node id, or kInvalidNodeId for an empty index.
  NodeId RootId() const { return tree_.root_id(); }

  /// Mutable pages for deliberate-corruption invariant tests only.
  [[nodiscard]] PagedTree& mutable_tree_for_test() { return tree_; }

  /// Spatial bounding box of all data objects (the NN variant's Voronoi
  /// domain).
  const Rect2& domain() const { return domain_; }

 private:
  const std::vector<DataObject>* objects_;
  PagedTree tree_;
  Rect2 domain_ = Rect2::Empty();
};

template <typename MayHold, typename Take>
void ObjectIndex::WalkRegion(BufferPool& pool, size_t limit,
                             const MayHold& may_hold, const Take& take,
                             std::vector<NodeId>* stack,
                             QueryStats* stats) const {
  size_t taken = 0;
  stack->clear();
  if (tree_.root_id() != kInvalidNodeId) stack->push_back(tree_.root_id());
  while (!stack->empty() && taken < limit) {
    const NodeId nid = stack->back();
    stack->pop_back();
    const NodeView node = tree_.ReadNode(pool, nid);
    uint32_t pruned = 0;
    uint32_t descended = 0;
    for (uint32_t i = 0; i < node.size() && taken < limit; ++i) {
      const Rect2 rect = node.mbr(i);
      if (!may_hold(rect)) {
        ++pruned;
      } else if (!node.IsLeaf()) {
        stack->push_back(node.id(i));
        ++descended;
      } else if (take(node.id(i), Point{rect.lo[0], rect.lo[1]})) {
        ++taken;
        ++descended;
      } else {
        ++pruned;
      }
    }
    if (stats != nullptr) {
      RecordNodeVisit(*stats, kTraceObjectTree, node.level(), nid, pruned,
                      descended);
    }
  }
}

template <typename LeafFn>
void ObjectIndex::ForEachLeafBlock(BufferPool& pool, const LeafFn& fn,
                                   std::vector<NodeId>* stack,
                                   std::vector<ObjectId>* ids,
                                   QueryStats* stats) const {
  if (tree_.root_id() == kInvalidNodeId) return;
  stack->assign(1, tree_.root_id());
  while (!stack->empty()) {
    NodeId nid = stack->back();
    stack->pop_back();
    bool leaf = false;
    uint16_t level = 0;
    uint32_t entries = 0;
    {
      // The leaf's ids are copied out, so the page is released before
      // `fn` runs.
      const NodeView node = tree_.ReadNode(pool, nid);
      leaf = node.IsLeaf();
      level = node.level();
      entries = node.size();
      if (leaf) ids->clear();
      for (uint32_t i = 0; i < entries; ++i) {
        if (leaf) {
          ids->push_back(node.id(i));
        } else {
          stack->push_back(node.id(i));
        }
      }
    }
    if (leaf) fn(std::span<const ObjectId>(*ids));
    if (stats != nullptr) {
      // A full scan prunes nothing: every entry is handed on.
      RecordNodeVisit(*stats, kTraceObjectTree, level, nid, 0, entries);
    }
  }
}

}  // namespace stpq

#endif  // STPQ_INDEX_OBJECT_INDEX_H_
