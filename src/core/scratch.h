// Reusable per-session traversal buffers (DESIGN.md §13).
//
// Every best-first traversal in the query path needs a search heap, the
// children of the nodes it expands, and (for some kernels) a DFS stack or
// an active-member list.  Constructing those as locals costs one or more
// heap allocations per kernel call — and the kernels run hundreds of times
// per query (once per object per feature set).  A TraversalScratch owns
// the backing storage once per ExecutionSession; kernels borrow it, clear
// what they borrow (capacity is retained), and leave it for the next call,
// so a warm session executes the range-variant hot path with zero
// allocations.
//
// Correctness constraint: borrowing must not change traversal order.
// BorrowedHeap reproduces std::priority_queue exactly — push_back +
// std::push_heap and std::pop_heap + pop_back with the same comparator is
// precisely what libstdc++'s priority_queue does — so pop order, and
// therefore page-read order and every golden I/O count, is bit-identical
// to the former per-call priority_queue code.
//
// Relevant-children memo.  The kernels run once per candidate object or
// Voronoi cell, and each revisits the same feature-index nodes; within one
// query the node's children and their bounds s-hat(e) depend only on the
// query's (W_i, lambda).  ChildrenMemo evaluates each node once per
// binding and hands every later visit the kept children:
//   * Binding.  Each index's memo is keyed to (index pointer, keyword set
//     by value, lambda).  Binding the index to anything else — another
//     keyword set, even one changed in place at the same address, or
//     another lambda — resets that index's entries in O(1) by bumping an
//     epoch stamp; capacity is kept, so a warm scratch cycling through
//     keyword sets still allocates nothing.  Stds/Stps::Execute clear
//     every binding when a query starts, so a caller-held scratch never
//     carries children over to another query (or to another index built
//     at a freed index's address).
//   * Views.  A view (NodeChildren) points into the memo's storage and is
//     valid until the next Visit on the same index.  Kernels consume it
//     before expanding another node.
//   * Page accounting.  A repeated visit still charges its page through
//     FeatureIndex::TouchNode, in the same order as before, so reads,
//     buffer hits, evictions and the per-level traversal profile are the
//     same as evaluating the node every time.  The memo saves CPU only;
//     the paper's I/O model (one page access per node visit) is untouched.
//   * Set-up.  Entries live in an open-addressing table sized by the
//     nodes visited, never by the index, so a fresh per-query scratch
//     costs nothing up front.
#ifndef STPQ_CORE_SCRATCH_H_
#define STPQ_CORE_SCRATCH_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "index/feature_index.h"
#include "text/keyword_set.h"

namespace stpq {

/// Entry of a best-first search heap: a priority plus the node or
/// feature/object id it refers to.  All traversal kernels share this
/// layout; only the meaning of `priority` (score bound, mindist, ...)
/// and the comparator differ.
struct SearchHeapItem {
  double priority;
  uint32_t id;
  bool is_leaf_item;  ///< feature/object (true) vs. index node (false)
};

/// Max-heap ordering on priority (score-bound descent).
struct SearchHeapMaxOrder {
  bool operator()(const SearchHeapItem& a, const SearchHeapItem& b) const {
    return a.priority < b.priority;
  }
};

/// Min-heap ordering on priority (distance ascent).
struct SearchHeapMinOrder {
  bool operator()(const SearchHeapItem& a, const SearchHeapItem& b) const {
    return a.priority > b.priority;
  }
};

/// A binary heap over a borrowed vector: the std::priority_queue interface
/// without owning (or allocating) the storage.  Clears the vector on
/// construction; the vector's capacity persists in the scratch across
/// calls.
template <typename Order>
class BorrowedHeap {
 public:
  explicit BorrowedHeap(std::vector<SearchHeapItem>& storage) : v_(storage) {
    v_.clear();
  }

  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] size_t size() const { return v_.size(); }
  [[nodiscard]] const SearchHeapItem& top() const { return v_.front(); }

  void push(const SearchHeapItem& item) {
    v_.push_back(item);
    std::push_heap(v_.begin(), v_.end(), Order{});
  }

  void pop() {
    std::pop_heap(v_.begin(), v_.end(), Order{});
    v_.pop_back();
  }

 private:
  std::vector<SearchHeapItem>& v_;
};

using BorrowedMaxHeap = BorrowedHeap<SearchHeapMaxOrder>;
using BorrowedMinHeap = BorrowedHeap<SearchHeapMinOrder>;

/// The text-relevant children of one feature-index node.
struct NodeChildren {
  /// The node's entries whose text_match is set, in VisitChildren order.
  std::span<const FeatureBranch> relevant;
  /// Entries dropped because no query keyword can occur below them.
  uint32_t text_pruned = 0;
  /// Tree level of the node (0 = leaf).
  uint16_t level = 0;
};

/// Per-query memo of each visited feature-index node's relevant children
/// (see the file comment for the binding and view-lifetime rules).
class ChildrenMemo {
 public:
  /// Memo slots, one per bound index: a query binds one index per feature
  /// set.  Binding more indexes than this recycles slots round-robin,
  /// which costs re-evaluation but never correctness.
  static constexpr size_t kSlots = 8;

  /// One index's memo under one (keyword set, lambda) binding.
  class IndexMemo {
   public:
    /// The relevant children of `node`.  The first visit evaluates the node
    /// with FeatureIndex::VisitChildren; later visits return the kept
    /// children and charge the page through FeatureIndex::TouchNode.  The
    /// view is valid until the next Visit on this memo.
    NodeChildren Visit(NodeId node) {
      if ((live_ + 1) * 2 > slots_.size()) Grow();
      const size_t mask = slots_.size() - 1;
      for (size_t i = Hash(node);; i = (i + 1) & mask) {
        Entry& e = slots_[i];
        if (e.stamp != epoch_) return Evaluate(node, e);
        if (e.node == node) {
          index_->TouchNode(node);
          return ViewOf(e);
        }
      }
    }

   private:
    friend class ChildrenMemo;

    struct Entry {
      uint32_t stamp = 0;  ///< live iff equal to the memo's epoch
      NodeId node = 0;
      uint32_t begin = 0;  ///< offset of the node's children in children_
      uint32_t count = 0;
      uint32_t text_pruned = 0;
      uint16_t level = 0;
    };

    bool BoundTo(const FeatureIndex& index, const KeywordSet& query_kw,
                 double lambda) const {
      return index_ == &index && lambda_ == lambda && keywords_ == query_kw;
    }
    /// Adopts a new binding, dropping every entry in O(1).
    void Rebind(const FeatureIndex& index, const KeywordSet& query_kw,
                double lambda);
    /// First visit: evaluates `node` into the free slot `e`.
    NodeChildren Evaluate(NodeId node, Entry& e);
    /// Doubles the table, re-inserting the live entries.
    void Grow();

    size_t Hash(NodeId node) const {
      return static_cast<uint32_t>(node * 0x9E3779B9u) >> shift_;
    }
    NodeChildren ViewOf(const Entry& e) const {
      return {std::span<const FeatureBranch>(children_.data() + e.begin,
                                             e.count),
              e.text_pruned, e.level};
    }

    const FeatureIndex* index_ = nullptr;  ///< null = unbound
    KeywordSet keywords_;
    double lambda_ = 0.0;
    uint32_t epoch_ = 0;
    uint32_t live_ = 0;
    uint32_t shift_ = 0;   ///< 32 - log2(slots_.size()), set by Grow
    std::vector<Entry> slots_;  ///< power-of-two open-addressing table
    std::vector<Entry> spare_;  ///< Grow's scratch for the old table
    std::vector<FeatureBranch> children_;  ///< every entry's children
    std::vector<FeatureBranch> visited_;   ///< VisitChildren output
  };

  /// The memo of `index` bound to (`query_kw`, `lambda`), reset first when
  /// the index was bound to anything else.  The reference stays valid
  /// until the next Bind.
  IndexMemo& Bind(const FeatureIndex& index, const KeywordSet& query_kw,
                  double lambda);

  /// Unbinds every index (O(kSlots), capacity kept).  Called when a query
  /// starts.
  void Clear() {
    for (IndexMemo& m : memos_) m.index_ = nullptr;
  }

 private:
  std::array<IndexMemo, kSlots> memos_;
  size_t next_victim_ = 0;
};

/// The per-session buffer set.  The heap, active list and stack are
/// independent: a kernel may use any subset, but two *simultaneously live*
/// traversals must not share one of them (sequential kernel calls are
/// fine — each clears what it borrows).  The query path satisfies this by
/// construction: component-score, Voronoi, and object-retrieval
/// traversals never nest inside each other.  The children memo is shared
/// on purpose, also by interleaved traversals (sorted feature streams
/// paused between pulls): it is only read through short-lived views.
struct TraversalScratch {
  /// Search-heap storage (max- or min-ordered via BorrowedHeap).
  std::vector<SearchHeapItem> heap;
  /// Relevant children of every feature-index node this query visited.
  ChildrenMemo children;
  /// Batched scoring: indexes of still-unresolved batch members.
  std::vector<uint32_t> active;
  /// DFS stack of node ids for object-R-tree walks.
  std::vector<uint32_t> stack;
};

}  // namespace stpq

#endif  // STPQ_CORE_SCRATCH_H_
