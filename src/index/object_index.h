// ObjectIndex: the R-tree over the data objects O ("rtree" in the paper).
#ifndef STPQ_INDEX_OBJECT_INDEX_H_
#define STPQ_INDEX_OBJECT_INDEX_H_

#include <span>
#include <vector>

#include "index/feature.h"
#include "obs/trace.h"
#include "rtree/rtree.h"
#include "util/metrics.h"

namespace stpq {

/// Build-time knobs for the object index.
struct ObjectIndexOptions {
  uint32_t page_size_bytes = kDefaultPageSizeBytes;
  BufferPool* buffer_pool = nullptr;
  PageId page_base = 0;
  double fill = 1.0;
};

/// 2-D R-tree over data objects, Hilbert bulk-loaded.
class ObjectIndex {
 public:
  /// Builds over `objects` (not owned; must outlive the index).
  ObjectIndex(const std::vector<DataObject>* objects,
              const ObjectIndexOptions& options);

  /// Restores a persisted index (storage/index_file.*): adopts the
  /// deserialized tree instead of bulk loading and recomputes the spatial
  /// domain from `objects` (deterministic, so it matches the builder).
  ObjectIndex(const std::vector<DataObject>* objects,
              const ObjectIndexOptions& options,
              RestoredTreeData<2, NoAug> restored);

  /// Fan-out on a page of `page_size` bytes (2-D rect + id entries).
  static uint32_t FanOut(uint32_t page_size);

  /// Leaf entry of object `o` stored under record id `id`: its location.
  static RTree<2>::Entry LeafEntry(uint32_t id, const DataObject& o) {
    return {PointRect(o.pos), id, {}};
  }

  const DataObject& Get(ObjectId id) const { return (*objects_)[id]; }
  size_t size() const { return objects_->size(); }

  /// Ids of all objects within Euclidean distance `radius` of `center`,
  /// into `out` (cleared first).  `stack` is the traversal's working
  /// storage; both keep their capacity for the caller's next walk.  With
  /// `stats`, node expansions land in the object-tree traversal profile
  /// (and as trace instants).
  void RangeQuery(const Point& center, double radius,
                  std::vector<ObjectId>* out, std::vector<NodeId>* stack,
                  QueryStats* stats = nullptr) const;

  /// Calls `fn(std::span<const ObjectId> ids, const Rect2& mbr)` once per
  /// leaf node with the leaf's object ids and its MBR.  Used by batched
  /// STDS: each leaf is a spatially clustered batch.  `stack` and `ids`
  /// are the walk's working storage (`fn` must not touch them).  With
  /// `stats`, node expansions land in the object-tree traversal profile
  /// (and as trace instants).
  template <typename LeafFn>
  void ForEachLeafBlock(const LeafFn& fn, std::vector<NodeId>* stack,
                        std::vector<ObjectId>* ids,
                        QueryStats* stats = nullptr) const;

  /// Underlying tree for custom traversals (STPS object retrieval).
  const RTree<2>& tree() const { return tree_; }

  /// Mutable tree access for deliberate-corruption invariant tests only.
  [[nodiscard]] RTree<2>& mutable_tree_for_test() { return tree_; }

  BufferPool* buffer_pool() const { return tree_.options().buffer_pool; }

  /// Spatial bounding box of all data objects (the NN variant's Voronoi
  /// domain).
  const Rect2& domain() const { return domain_; }

 private:
  const std::vector<DataObject>* objects_;
  RTree<2> tree_;
  Rect2 domain_ = Rect2::Empty();
};

template <typename LeafFn>
void ObjectIndex::ForEachLeafBlock(const LeafFn& fn,
                                   std::vector<NodeId>* stack,
                                   std::vector<ObjectId>* ids,
                                   QueryStats* stats) const {
  if (tree_.root_id() == kInvalidNodeId) return;
  stack->assign(1, tree_.root_id());
  while (!stack->empty()) {
    NodeId nid = stack->back();
    stack->pop_back();
    const RTree<2>::Node& node = tree_.ReadNode(nid);
    if (node.IsLeaf()) {
      ids->clear();
      Rect2 mbr = Rect2::Empty();
      for (const auto& e : node.entries) {
        ids->push_back(e.id);
        mbr.Enlarge(e.rect);
      }
      fn(std::span<const ObjectId>(*ids), mbr);
    } else {
      for (const auto& e : node.entries) stack->push_back(e.id);
    }
    if (stats != nullptr) {
      // A full scan prunes nothing: every entry is handed on.
      RecordNodeVisit(*stats, kTraceObjectTree, node.level, nid, 0,
                      static_cast<uint32_t>(node.entries.size()));
    }
  }
}

}  // namespace stpq

#endif  // STPQ_INDEX_OBJECT_INDEX_H_
