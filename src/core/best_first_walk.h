// The one best-first search over an index (DESIGN.md §4, §14).
//
// Algorithm 2 and its influence/NN forms, Algorithm 4's sorted feature
// streams, Section 7.1's object retrieval and nearest-object seeding and
// Section 7.2's Voronoi cells all search a tree the same way: pop the heap
// top; if it is a feature or an object, hand it to the caller; otherwise
// read the node and push the children that survive a bound.
// BestFirstWalk is that loop, written once.  A kernel supplies only
//   * the bound: each child's heap priority, or nullopt to prune it;
//   * the stop test, applied to the heap top before it is popped;
// and decides what to do with each feature or object Next returns.  The
// walk alone reads nodes, counts pruned and descended children and heap
// pushes, records each node visit (RecordNodeVisit) and latches the heap's
// high-water mark (one heap_high_water event per walk while tracing).
//
// A walk is resumable: Next keeps the heap, so a caller may pull again
// later (the sorted feature streams pause between pulls).
//
// Exactness: the heap is a BorrowedHeap (std::priority_queue's push and
// pop sequence) under the caller's order, the root enters alone, and a
// node's children are offered in page order, so the pop order — and with
// it every page access and verdict — is fixed by the bound and the stop
// test alone.
#ifndef STPQ_CORE_BEST_FIRST_WALK_H_
#define STPQ_CORE_BEST_FIRST_WALK_H_

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/scratch.h"
#include "index/feature_index.h"
#include "index/object_index.h"
#include "obs/trace.h"
#include "util/metrics.h"

namespace stpq {

/// A stop test that never stops: the walk runs until its heap is empty.
struct NeverStop {
  bool operator()(const SearchHeapItem&) const { return false; }
};

/// Best-first walk over `Tree`, a FeatureIndex (children read through the
/// query's relevant-children memo) or the ObjectIndex (nodes read through
/// the query's pool), popping by `Order` (SearchHeapMaxOrder or
/// SearchHeapMinOrder).  Everything passed in must outlive the walk.
template <typename Order, typename Tree>
class BestFirstWalk {
  static constexpr bool kFeatureTree = std::is_same_v<Tree, FeatureIndex>;
  static_assert(kFeatureTree || std::is_same_v<Tree, ObjectIndex>);

 public:
  /// Walks feature index `index` under the query's (`query_kw`, `lambda`)
  /// for that set.  The root enters at 1.0 on a max-heap (every s-hat is
  /// at most 1) and at 0.0 on a min-heap (no distance is negative).
  BestFirstWalk(const FeatureIndex& index, const KeywordSet& query_kw,
                double lambda, std::vector<SearchHeapItem>& heap,
                TraversalScratch& scratch, QueryStats& stats)
    requires kFeatureTree
      : tree_(index),
        query_kw_(&query_kw),
        lambda_(lambda),
        heap_(heap),
        scratch_(scratch),
        stats_(stats),
        trace_tree_(TraceTreeForSet(index.set_ordinal())) {
    PushRoot(std::is_same_v<Order, SearchHeapMaxOrder> ? 1.0 : 0.0);
  }

  /// Walks the object R-tree from a root of priority `root_priority`.
  BestFirstWalk(const ObjectIndex& objects, double root_priority,
                std::vector<SearchHeapItem>& heap, TraversalScratch& scratch,
                QueryStats& stats)
    requires(!kFeatureTree)
      : tree_(objects),
        heap_(heap),
        scratch_(scratch),
        stats_(stats),
        trace_tree_(kTraceObjectTree) {
    PushRoot(root_priority);
  }

  BestFirstWalk(const BestFirstWalk&) = delete;
  BestFirstWalk& operator=(const BestFirstWalk&) = delete;

  /// Expands nodes until a feature or object reaches the heap top and
  /// returns it, popped; nullopt once the heap is empty or `stop` holds
  /// for its top (which stays on the heap).  `bound` gives each child of
  /// an expanded node its priority, or nullopt to prune it: it is called
  /// as bound(const FeatureBranch&) on a feature index and as
  /// bound(const Rect2& mbr, bool is_object) on the object tree (an
  /// object's MBR is its point).
  template <typename Bound, typename Stop = NeverStop>
  std::optional<SearchHeapItem> Next(const Bound& bound,
                                     const Stop& stop = {}) {
    while (!heap_.empty()) {
      const SearchHeapItem top = heap_.top();
      if (stop(top)) break;
      heap_.pop();
      if (top.is_leaf_item) return top;
      Expand(top.id, bound);
    }
    return std::nullopt;
  }

 private:
  void PushRoot(double priority) {
    if (tree_.RootId() != kInvalidNodeId) {
      heap_.push({priority, tree_.RootId(), false});
    }
  }

  /// Reads node `id` (one page access), pushes the children `bound`
  /// keeps, and records the visit.
  template <typename Bound>
  void Expand(NodeId id, const Bound& bound) {
    uint32_t pruned = 0;
    uint32_t descended = 0;
    const auto offer = [&](std::optional<double> priority, uint32_t child,
                           bool is_leaf_item) {
      if (!priority.has_value()) {
        ++pruned;
        return;
      }
      heap_.push({*priority, child, is_leaf_item});
      ++descended;
    };
    uint16_t level = 0;
    if constexpr (kFeatureTree) {
      const NodeChildren node = scratch_.children.Visit(
          scratch_.pool, tree_, id, *query_kw_, lambda_);
      pruned = node.text_pruned;
      level = node.level;
      for (const FeatureBranch& b : node.relevant) {
        offer(bound(b), b.id, b.is_feature);
      }
    } else {
      const NodeView node = tree_.tree().ReadNode(scratch_.pool, id);
      level = node.level();
      for (uint32_t i = 0; i < node.size(); ++i) {
        offer(bound(node.mbr(i), node.IsLeaf()), node.id(i), node.IsLeaf());
      }
    }
    stats_.heap_pushes += descended;
    RecordNodeVisit(stats_, trace_tree_, level, id, pruned, descended);
    watermark_.Observe(heap_.size());
  }

  const Tree& tree_;
  const KeywordSet* query_kw_ = nullptr;  ///< feature index only
  double lambda_ = 0.0;                   ///< feature index only
  BorrowedHeap<Order> heap_;
  TraversalScratch& scratch_;
  QueryStats& stats_;
  uint8_t trace_tree_;
  HeapWatermark watermark_;
};

}  // namespace stpq

#endif  // STPQ_CORE_BEST_FIRST_WALK_H_
