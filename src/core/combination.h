// Algorithm 4: sorted retrieval of valid combinations of feature objects.
//
// Per feature set, a SortedFeatureStream yields features in non-increasing
// preference score s(t) by best-first traversal over s-hat(e), terminated
// by the virtual feature (Section 6.1's "empty-set" member, score 0).  The
// CombinationIterator combines the streams: it maintains the retrieved
// lists D_i with their max_i / min_i scores, the threshold
//   tau = max_j ( sum_{l != j} max_l + min_j ),
// a pulling strategy (Definition 5's prioritized strategy or round-robin),
// and a heap of candidate combinations, emitting combinations in globally
// non-increasing score order.
//
// Candidate generation has two modes (see DESIGN.md Section 4):
//   * Range variant (2r constraint enforced): the paper's product
//     construction — each newly pulled feature e_i is combined with the
//     already-retrieved members of the other D_j lists, discarding pairs
//     farther than 2r.  A spatial grid over each D_j makes partner lookup
//     O(nearby) instead of O(|D_j|), so only *valid* combinations are ever
//     materialized.  Partners are tried cell by cell, and within a cell in
//     retrieval order.
//   * Influence/NN variants (no distance filter): the product would
//     materialize prod |D_i| tuples, so candidates are enumerated
//     lattice-style over rank tuples into the sorted D_i lists, seeded at
//     (0,..,0).  Each tuple is generated exactly once by its canonical
//     parent (decrement at the first nonzero rank), so no visited-set is
//     needed; every popped tuple is valid, so pops == emissions.
// Both modes emit combinations in globally non-increasing s(C) order under
// the same threshold scheme.
//
// Buffers.  The D_i lists, the grids, the stalled lists, the stream heaps
// and the tuple heap live in the caller's TraversalScratch
// (CombinationScratch, core/scratch.h), so a warm session enumerates
// combinations without allocating.  One iterator at a time may borrow a
// scratch; emitted members are a view into the iterator.
#ifndef STPQ_CORE_COMBINATION_H_
#define STPQ_CORE_COMBINATION_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/query.h"
#include "core/scratch.h"
#include "index/feature_index.h"
#include "util/attributes.h"

namespace stpq {

/// Marker id of the virtual feature (the paper's empty-set member).
inline constexpr ObjectId kVirtualFeature = 0xffffffffu;

/// A valid combination C = {t_1, ..., t_c} with s(C) = sum s(t_i).
struct Combination {
  /// One feature id per feature set; kVirtualFeature encodes the empty
  /// member (dist 0 to everything, score 0).  A view into the emitting
  /// iterator, valid until its next Next() call or its destruction.
  std::span<const ObjectId> members;
  double score = 0.0;
};

/// Streams the features of one index in non-increasing s(t), filtered to
/// sim(t, W) > 0, with the virtual feature appended last.
class SortedFeatureStream {
 public:
  /// Pointers are not owned.  `query_kw`, `stats`, `children` and `heap`
  /// must stay valid; `stats` and `children` must be non-null (checked at
  /// construction).  `children` is the query's relevant-children memo
  /// (core/scratch.h), shared with every other traversal of the query.
  /// `heap` is the stream's search-heap storage (cleared here), which no
  /// other live traversal may use.
  SortedFeatureStream(const FeatureIndex* index, const KeywordSet* query_kw,
                      double lambda, QueryStats* stats,
                      ChildrenMemo* children,
                      std::vector<SearchHeapItem>* heap);

  struct Item {
    ObjectId id;
    double score;
  };

  /// Next feature (or the final virtual feature); nullopt afterwards.
  STPQ_HOT std::optional<Item> Next();

  /// True once the virtual feature has been returned.
  bool Exhausted() const { return virtual_emitted_; }

 private:
  const FeatureIndex* index_;
  const KeywordSet* query_kw_;
  double lambda_;
  QueryStats* stats_;
  ChildrenMemo* children_;
  BorrowedMaxHeap heap_;
  bool virtual_emitted_ = false;
};

/// Emits valid combinations in non-increasing s(C) (Algorithm 4).
class CombinationIterator {
 public:
  /// `indexes` holds one feature index per feature set (1 to
  /// kMaxFeatureSets; copied).  `enforce_range_constraint` applies
  /// Definition 4's pairwise dist(t_i, t_j) <= 2r filter (range variant);
  /// the influence and NN variants construct the iterator without it
  /// (Section 7).  `stats` must be non-null (checked at construction).
  /// `query`, `stats` and `scratch` must outlive the iterator, which
  /// borrows scratch.combination (one iterator per scratch at a time) and
  /// hands scratch.children to every feature stream.
  CombinationIterator(std::span<const FeatureIndex* const> indexes,
                      const Query& query, bool enforce_range_constraint,
                      PullingStrategy strategy, QueryStats* stats,
                      TraversalScratch& scratch);
  ~CombinationIterator();

  CombinationIterator(const CombinationIterator&) = delete;
  CombinationIterator& operator=(const CombinationIterator&) = delete;

  /// The next valid combination with the highest score, or nullopt when no
  /// combinations remain.
  STPQ_HOT std::optional<Combination> Next();

 private:
  /// Pulls the next feature from stream `m` into D_m, reactivating tuples
  /// stalled on m.
  void Pull(size_t m);

  /// Threshold tau over the non-exhausted streams; -infinity if all are
  /// exhausted (drain the heap).
  double Threshold() const;

  /// Prioritized (Definition 5) or round-robin choice of the next stream.
  size_t NextFeatureSet();

  /// Lattice mode: pushes the canonical children of `ranks` — increment at
  /// position i is allowed only when every rank before i is zero, so each
  /// tuple has exactly one generating parent.
  void ExpandSuccessors(const RankTuple& ranks);

  /// Lattice mode: pushes a tuple if within bounds, or stalls/drops it.
  void PushTuple(const RankTuple& ranks);

  /// Product mode: generates every valid combination whose member from set
  /// `m` is the newest retrieved feature (grid-accelerated, Definition 4).
  void GenerateValidWithNew(size_t m);

  /// Product mode: depth-first product over the candidate lists of
  /// `others[depth..]`, checking each new member against the members
  /// already chosen for `others[0..depth)`.
  void EmitProduct(std::span<const size_t> others, size_t depth,
                   RankTuple& ranks, double limit2);

  double TupleScore(const RankTuple& ranks) const;
  Combination MakeCombination(const RankTuple& ranks);

  std::array<const FeatureIndex*, kMaxFeatureSets> indexes_{};
  size_t c_;
  const Query& query_;
  bool enforce_range_;
  PullingStrategy strategy_;
  QueryStats* stats_;
  /// Borrowed D_i lists, grids, stalled lists and heaps.
  CombinationScratch& buf_;
  /// Product mode: side of a grid cell (2r).
  double cell_size_;

  std::array<std::optional<SortedFeatureStream>, kMaxFeatureSets> streams_;
  std::array<double, kMaxFeatureSets> max_score_{};  // max_i
  std::array<double, kMaxFeatureSets> min_score_{};  // min_i
  std::array<bool, kMaxFeatureSets> stream_done_{};  // virtual emitted
  std::array<bool, kMaxFeatureSets> has_virtual_{};  // empty member in D_j
  BorrowedHeap<ScoredTupleOrder, ScoredTuple> tuple_heap_;
  /// Members of the last emitted combination.
  std::array<ObjectId, kMaxFeatureSets> members_{};

  size_t round_robin_next_ = 0;
  bool initialized_ = false;
};

}  // namespace stpq

#endif  // STPQ_CORE_COMBINATION_H_
