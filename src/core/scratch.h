// Reusable per-session query buffers (DESIGN.md §13).
//
// Every best-first traversal in the query path needs a search heap, the
// children of the nodes it expands, and (for some kernels) a DFS stack or
// an active-member list; the query around them needs combination heaps,
// retrieved lists, claimed flags, Voronoi cells and a top-k heap.
// Constructing those as locals costs heap allocations per kernel call —
// and the kernels run hundreds of times per query (once per object per
// feature set).  A TraversalScratch owns the backing storage once per
// ExecutionSession; kernels and executors borrow it, clear what they
// borrow (capacity is retained), and leave it for the next call.  The
// engine leases pooled sessions (core/exec_session.h), so a warm
// Engine::Execute allocates nothing but the entries it returns.
//
// Correctness constraint: borrowing must not change traversal order.
// BorrowedHeap reproduces std::priority_queue exactly — push_back +
// std::push_heap and std::pop_heap + pop_back with the same comparator is
// precisely what libstdc++'s priority_queue does — so pop order, and
// therefore page-read order and every golden I/O count, is bit-identical
// to the former per-call priority_queue code.  CellGrid keeps each grid
// cell's members in insertion order, so the combination iterator tries
// partners cell by cell and in retrieval order, which fixes the order in
// which equal-score tuples enter its heap.
//
// Relevant-children memo.  The kernels run once per candidate object or
// Voronoi cell, and each revisits the same feature-index nodes; within one
// query the node's children and their bounds s-hat(e) depend only on the
// query's (W_i, lambda).  ChildrenMemo evaluates each node once per
// binding and hands every later visit the kept children:
//   * Binding.  Each index's memo is keyed to (index pointer, keyword set
//     by value, lambda).  Binding the index to anything else — another
//     keyword set, even one changed in place at the same address, or
//     another lambda — resets that index's entries in O(1) (StampedMap's
//     epoch stamp); capacity is kept, so a warm scratch cycling through
//     keyword sets still allocates nothing.  Stds/Stps::Execute clear
//     every binding when a query starts, so a caller-held scratch never
//     carries children over to another query (or to another index built
//     at a freed index's address).
//   * Views.  A view (NodeChildren) points into the memo's storage and is
//     valid until the next Visit on the same index.  Kernels consume it
//     before expanding another node.
//   * Page accounting.  The memo holds the pool that feature-index reads
//     charge (the session's feature pool; null for an uncharged bare
//     kernel).  A repeated visit still charges its page through
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
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/query.h"
#include "core/voronoi.h"
#include "geom/point.h"
#include "geom/polygon.h"
#include "index/feature_index.h"
#include "text/keyword_set.h"
#include "util/topk.h"

namespace stpq {

// kMaxFeatureSets (index/build_params.h) sizes the per-set arrays below.
static_assert(kMaxFeatureSets == kMaxProfiledFeatureSets,
              "the traversal profile keeps one slice per feature set");

/// A fixed-size rank tuple indexing into the per-set retrieved lists.
using RankTuple = std::array<uint32_t, kMaxFeatureSets>;

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
template <typename Order, typename Item = SearchHeapItem>
class BorrowedHeap {
 public:
  explicit BorrowedHeap(std::vector<Item>& storage) : v_(&storage) {
    v_->clear();
  }

  [[nodiscard]] bool empty() const { return v_->empty(); }
  [[nodiscard]] size_t size() const { return v_->size(); }
  [[nodiscard]] const Item& top() const { return v_->front(); }

  void push(const Item& item) {
    v_->push_back(item);
    std::push_heap(v_->begin(), v_->end(), Order{});
  }

  void pop() {
    std::pop_heap(v_->begin(), v_->end(), Order{});
    v_->pop_back();
  }

 private:
  std::vector<Item>* v_;
};

using BorrowedMaxHeap = BorrowedHeap<SearchHeapMaxOrder>;
using BorrowedMinHeap = BorrowedHeap<SearchHeapMinOrder>;

/// Open-addressing map from a 64-bit key to a small value, for per-query
/// lookups.  Clear drops every entry in O(1) by bumping an epoch stamp and
/// keeps the table, so a warm scratch refills it without allocating.
template <typename Value>
class StampedMap {
 public:
  /// The value stored under `key`, or nullptr.
  const Value* Find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.stamp != epoch_) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  /// The value stored under `key`, value-initialized and flagged through
  /// `inserted` when the key was absent.  The reference is valid until the
  /// next insertion.
  Value& FindOrInsert(uint64_t key, bool* inserted) {
    if ((live_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key);; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.stamp != epoch_) {
        s = Slot{key, epoch_, Value{}};
        ++live_;
        *inserted = true;
        return s.value;
      }
      if (s.key == key) {
        *inserted = false;
        return s.value;
      }
    }
  }

  void Clear() {
    live_ = 0;
    if (++epoch_ == 0) {
      // Wrapped: a stale stamp could now alias the new epoch.
      for (Slot& s : slots_) s.stamp = 0;
      epoch_ = 1;
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t stamp = 0;  ///< live iff equal to epoch_
    Value value{};
  };

  size_t Hash(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Doubles the table (64 slots at first), re-inserting the live entries.
  void Grow() {
    spare_.swap(slots_);
    const size_t size = spare_.empty() ? 64 : 2 * spare_.size();
    slots_.assign(size, Slot{});
    shift_ = 64 - static_cast<uint32_t>(std::countr_zero(size));
    const size_t mask = size - 1;
    for (const Slot& s : spare_) {
      if (s.stamp != epoch_) continue;
      size_t i = Hash(s.key);
      while (slots_[i].stamp == epoch_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size; empty until first use
  std::vector<Slot> spare_;  ///< Grow's scratch for the old table
  uint32_t epoch_ = 1;
  uint32_t shift_ = 0;  ///< 64 - log2(slots_.size()), set by Grow
  size_t live_ = 0;
};

/// The text-relevant children of one feature-index node.
struct NodeChildren {
  /// The node's entries whose text_match is set, in page order.
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
    /// with FeatureIndex::VisitChildren, which writes its level, its
    /// text-pruned count and only its relevant children straight into the
    /// memo; later visits return the kept children and charge the page
    /// through FeatureIndex::TouchNode.  The view is valid until the next
    /// Visit on this memo.
    NodeChildren Visit(NodeId node) {
      bool first = false;
      Entry& e = entries_.FindOrInsert(node, &first);
      if (first) return Evaluate(node, e);
      index_->TouchNode(pool_, node);
      return ViewOf(e);
    }

   private:
    friend class ChildrenMemo;

    struct Entry {
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
    /// First visit: evaluates `node` into its fresh entry `e`.
    NodeChildren Evaluate(NodeId node, Entry& e);

    NodeChildren ViewOf(const Entry& e) const {
      return {std::span<const FeatureBranch>(children_.data() + e.begin,
                                             e.count),
              e.text_pruned, e.level};
    }

    const FeatureIndex* index_ = nullptr;  ///< null = unbound
    BufferPool* pool_ = nullptr;  ///< the memo's pool, set by Bind
    KeywordSet keywords_;
    double lambda_ = 0.0;
    StampedMap<Entry> entries_;  ///< node id -> its kept children
    std::vector<FeatureBranch> children_;  ///< every entry's children
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

  /// The pool every feature-index read through this memo charges (not
  /// owned; null = uncharged reads).
  [[nodiscard]] BufferPool* pool() const { return pool_; }
  void set_pool(BufferPool* pool) { pool_ = pool; }

 private:
  BufferPool* pool_ = nullptr;
  std::array<IndexMemo, kSlots> memos_;
  size_t next_victim_ = 0;
};

/// The product-mode 2r grid over one retrieved list D_j (Algorithm 4): the
/// ranks of the members that fell into each grid cell, in insertion order.
/// A cell holds the first and last rank of its chain; `next_` links each
/// rank to the following rank of the same cell.
class CellGrid {
 public:
  static constexpr uint32_t kEnd = 0xffffffffu;

  void Clear() { cells_.Clear(); }

  /// Appends `rank` to the chain of `cell`.  Ranks must be inserted at
  /// most once per Clear.
  void Insert(uint64_t cell, uint32_t rank) {
    if (rank >= next_.size()) next_.resize(rank + 1);
    next_[rank] = kEnd;
    bool inserted = false;
    Chain& chain = cells_.FindOrInsert(cell, &inserted);
    if (inserted) {
      chain.head = rank;
    } else {
      next_[chain.tail] = rank;
    }
    chain.tail = rank;
  }

  /// First rank of `cell`, or kEnd when the cell is empty.
  uint32_t First(uint64_t cell) const {
    const Chain* chain = cells_.Find(cell);
    return chain == nullptr ? kEnd : chain->head;
  }

  /// The rank after `rank` in its cell, or kEnd.
  uint32_t Next(uint32_t rank) const { return next_[rank]; }

 private:
  struct Chain {
    uint32_t head = kEnd;
    uint32_t tail = kEnd;
  };

  StampedMap<Chain> cells_;
  std::vector<uint32_t> next_;  ///< indexed by rank
};

/// One member of a retrieved list D_i (Algorithm 4).
struct RetrievedFeature {
  ObjectId id;
  double score;
  Point pos;  ///< undefined for the virtual feature
  bool is_virtual;
};

/// A candidate combination: ranks into the D_i and its score s(C).
struct ScoredTuple {
  double score;
  RankTuple ranks;
};

/// Max-heap ordering on s(C).
struct ScoredTupleOrder {
  bool operator()(const ScoredTuple& a, const ScoredTuple& b) const {
    return a.score < b.score;
  }
};

/// Buffers of one CombinationIterator (core/combination.h).  Arrays are
/// indexed by feature set.  One iterator at a time may borrow them.
struct CombinationScratch {
  /// Search heap of feature set i's SortedFeatureStream.
  std::array<std::vector<SearchHeapItem>, kMaxFeatureSets> stream_heaps;
  /// The retrieved lists D_i.
  std::array<std::vector<RetrievedFeature>, kMaxFeatureSets> retrieved;
  /// Lattice mode: tuples waiting for D_i to grow.
  std::array<std::vector<RankTuple>, kMaxFeatureSets> stalled;
  /// Product mode: the 2r grid over D_i's real members.
  std::array<CellGrid, kMaxFeatureSets> grids;
  /// Product mode: the members of D_i that may join the newest feature.
  std::array<std::vector<uint32_t>, kMaxFeatureSets> candidates;
  /// Heap of candidate combinations.
  std::vector<ScoredTuple> tuples;
  /// Set while an iterator borrows these buffers.
  bool in_use = false;
};

/// NN-variant buffers (Section 7.2).
struct VoronoiScratch {
  /// The query's Voronoi cells: cells[0, used) are live, the rest keep
  /// their capacity for later queries.
  std::vector<VoronoiCell> cells;
  size_t used = 0;
  /// (feature set << 32 | feature id) -> position in `cells`.
  StampedMap<uint32_t> index;
  /// Qualifying region of the current combination.
  ConvexPolygon region;
  /// ConvexPolygon::Clip's output buffer.
  std::vector<Point> clip;
};

/// One member of a batched score computation.
struct BatchObject {
  ObjectId id = 0;
  Point pos;
};

/// Batched STDS buffers (one object-R-tree leaf block at a time).
struct BatchScratch {
  std::vector<BatchObject> batch;
  std::vector<double> partial;
  std::vector<bool> alive;
  /// The still-alive members scored against the current feature set.
  std::vector<BatchObject> sub;
  std::vector<uint32_t> sub_index;
  std::vector<double> set_scores;
};

/// Algorithm 5 (InfluenceMode::kCombinations) buffers.
struct InfluenceScratch {
  /// One combination's retrieved objects; finally the ranked results.
  std::vector<ResultEntry> objects;
  /// Best score per object id, valid where TraversalScratch::flags is set.
  std::vector<double> best;
  /// Ids holding a best score, in first-seen order.
  std::vector<ObjectId> seen;
  /// Selection buffer for the k-th best score.
  std::vector<double> scores;
};

/// The per-session buffer set, and the pools the kernels' reads charge:
/// `object_pool` for object-index reads, the children memo's pool for
/// feature-index reads (both null, uncharged, in a bare scratch; an
/// ExecutionSession points them at the pools it owns).  Buffers are
/// independent: a kernel may use any subset, but two *simultaneously
/// live* users must not share one of them (sequential calls are fine —
/// each clears what it borrows).  The query path satisfies this by
/// construction: component-score, Voronoi, and object-retrieval traversals
/// never nest inside each other, and the executors' own buffers
/// (combination, flags, top-k, ...) are disjoint from the kernels'.  The
/// children memo is shared on purpose, also by interleaved traversals
/// (sorted feature streams paused between pulls): it is only read through
/// short-lived views.
struct TraversalScratch {
  /// The pool object-index reads charge (not owned; null = uncharged).
  BufferPool* object_pool = nullptr;
  /// Search-heap storage (max- or min-ordered via BorrowedHeap).
  std::vector<SearchHeapItem> heap;
  /// Relevant children of every feature-index node this query visited.
  ChildrenMemo children;
  /// Batched scoring: indexes of still-unresolved batch members.
  std::vector<uint32_t> active;
  /// DFS stack of node ids for object-R-tree walks.
  std::vector<uint32_t> stack;
  /// Object ids from an object-R-tree walk (a range query, the nearest
  /// objects, a leaf block).
  std::vector<ObjectId> objects;
  /// One flag per data object: claimed (STPS range and NN), scored
  /// (anchored influence) or seen (Algorithm 5).
  std::vector<bool> flags;
  /// Storage of the executors' TopK heaps.
  std::vector<TopK<ObjectId>::Scored> topk;
  CombinationScratch combination;
  VoronoiScratch voronoi;
  BatchScratch batch;
  InfluenceScratch influence;
};

}  // namespace stpq

#endif  // STPQ_CORE_SCRATCH_H_
