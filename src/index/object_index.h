// ObjectIndex: the R-tree over the data objects O ("rtree" in the paper).
#ifndef STPQ_INDEX_OBJECT_INDEX_H_
#define STPQ_INDEX_OBJECT_INDEX_H_

#include <span>
#include <vector>

#include "index/build_params.h"
#include "index/feature.h"
#include "index/paged_tree.h"
#include "obs/trace.h"
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

  /// Fan-out on a page of `page_size` bytes (2-D rect + id entries).
  static uint32_t FanOut(uint32_t page_size);

  /// Leaf entry of object `o` stored under record id `id`: its location.
  static TreeEntry<2> LeafEntry(uint32_t id, const DataObject& o) {
    return {PointRect(o.pos), id, {}};
  }

  const DataObject& Get(ObjectId id) const { return (*objects_)[id]; }
  size_t size() const { return objects_->size(); }

  /// Ids of all objects within Euclidean distance `radius` of `center`,
  /// into `out` (cleared first).  Every node read is charged to `pool`
  /// (none when it is null).  `stack` is the traversal's working storage;
  /// both keep their capacity for the caller's next walk.  With `stats`,
  /// node expansions land in the object-tree traversal profile (and as
  /// trace instants).
  void RangeQuery(BufferPool* pool, const Point& center, double radius,
                  std::vector<ObjectId>* out, std::vector<NodeId>* stack,
                  QueryStats* stats = nullptr) const;

  /// Calls `fn(std::span<const ObjectId> ids, const Rect2& mbr)` once per
  /// leaf node with the leaf's object ids and its MBR, charging every node
  /// read to `pool` (none when it is null).  Used by batched STDS: each
  /// leaf is a spatially clustered batch.  `stack` and `ids` are the
  /// walk's working storage (`fn` must not touch them).  With `stats`,
  /// node expansions land in the object-tree traversal profile (and as
  /// trace instants).
  template <typename LeafFn>
  void ForEachLeafBlock(BufferPool* pool, const LeafFn& fn,
                        std::vector<NodeId>* stack,
                        std::vector<ObjectId>* ids,
                        QueryStats* stats = nullptr) const;

  /// The index's pages (validators, Save).
  const PagedTree& tree() const { return tree_; }

  /// Root node id, or kInvalidNodeId for an empty index.
  NodeId RootId() const { return tree_.root_id(); }

  /// Reads node `id` for a custom traversal (STPS object retrieval): one
  /// page access charged to `pool` (none when it is null).
  NodeView ReadNode(BufferPool* pool, NodeId id) const {
    return tree_.ReadNode(pool, id);
  }

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

template <typename LeafFn>
void ObjectIndex::ForEachLeafBlock(BufferPool* pool, const LeafFn& fn,
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
    Rect2 mbr = Rect2::Empty();
    {
      // The leaf's ids and MBR are copied out, so the page is released
      // before `fn` runs.
      const NodeView node = tree_.ReadNode(pool, nid);
      leaf = node.IsLeaf();
      level = node.level();
      entries = node.size();
      if (leaf) ids->clear();
      for (uint32_t i = 0; i < entries; ++i) {
        if (leaf) {
          ids->push_back(node.id(i));
          mbr.Enlarge(node.mbr(i));
        } else {
          stack->push_back(node.id(i));
        }
      }
    }
    if (leaf) fn(std::span<const ObjectId>(*ids), mbr);
    if (stats != nullptr) {
      // A full scan prunes nothing: every entry is handed on.
      RecordNodeVisit(*stats, kTraceObjectTree, level, nid, 0, entries);
    }
  }
}

}  // namespace stpq

#endif  // STPQ_INDEX_OBJECT_INDEX_H_
