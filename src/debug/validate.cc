#include "debug/validate.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "hilbert/hilbert.h"
#include "hilbert/keyword_hilbert.h"
#include "rtree/bulk_load.h"
#include "util/thread_annotations.h"

namespace stpq {

namespace {

using validate_internal::FormatRect;

std::string Num(double v) { return std::to_string(v); }
std::string Num(uint64_t v) { return std::to_string(v); }

/// Collects leaf entries in left-to-right tree order (the order bulk
/// loading packed them in).
template <int D, typename Aug>
void CollectLeavesInOrder(const RTree<D, Aug>& tree, NodeId nid,
                          std::vector<typename RTree<D, Aug>::Entry>* out) {
  const auto& node = tree.PeekNode(nid);
  if (node.IsLeaf()) {
    out->insert(out->end(), node.entries.begin(), node.entries.end());
    return;
  }
  for (const auto& e : node.entries) {
    CollectLeavesInOrder(tree, e.id, out);
  }
}

/// Checks that leaf records appear in non-decreasing Hilbert-key order —
/// the packing contract of BulkLoadKind::kHilbert (Kamel & Faloutsos).
/// Recomputes the build-time keys: centers quantized to 16 bits/dim inside
/// the record-set domain, exactly as HilbertSortKey does.
template <int D, typename Aug>
Status CheckHilbertLeafOrder(const RTree<D, Aug>& tree) {
  if (tree.root_id() == kInvalidNodeId) return Status::OK();
  std::vector<typename RTree<D, Aug>::Entry> leaves;
  leaves.reserve(tree.size());
  CollectLeavesInOrder(tree, tree.root_id(), &leaves);
  Rect<D> domain = ComputeDomain<D, Aug>(leaves);
  uint64_t prev_key = 0;
  for (size_t i = 0; i < leaves.size(); ++i) {
    double unit[D];
    for (int d = 0; d < D; ++d) {
      double extent = domain.hi[d] - domain.lo[d];
      unit[d] = extent > 0.0
                    ? (leaves[i].rect.Center(d) - domain.lo[d]) / extent
                    : 0.0;
    }
    uint64_t key = HilbertKeyFromUnit(unit, /*b=*/16, D);
    if (i > 0 && key < prev_key) {
      return Status::Internal(
          "leaf record " + Num(static_cast<uint64_t>(i)) + " (id " +
          Num(static_cast<uint64_t>(leaves[i].id)) + ") breaks the Hilbert "
          "bulk-load order: key " + Num(key) + " < predecessor key " +
          Num(prev_key));
    }
    prev_key = key;
  }
  return Status::OK();
}

/// Verifies that leaf entry ids cover [0, expected) exactly once.
Status CheckLeafIdBijection(std::span<const uint32_t> seen_counts,
                            const char* what) {
  for (size_t id = 0; id < seen_counts.size(); ++id) {
    if (seen_counts[id] != 1) {
      return Status::Internal(std::string(what) + " " +
                              Num(static_cast<uint64_t>(id)) + " appears " +
                              Num(static_cast<uint64_t>(seen_counts[id])) +
                              " times in the leaf level (expected exactly "
                              "once)");
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateSrtIndex(const SrtIndex& index) {
  const FeatureTable& table = index.table();
  const RTree<4, SrtAug>& tree = index.tree();
  if (tree.size() != table.size()) {
    return Status::Internal("SRT tree holds " + Num(tree.size()) +
                            " records for a table of " +
                            Num(static_cast<uint64_t>(table.size())) +
                            " features");
  }

  std::vector<uint32_t> seen(table.size(), 0);

  auto summary_check = [](const RTree<4, SrtAug>::Entry& parent,
                          const RTree<4, SrtAug>::Entry& child) {
    if (parent.aug.max_score < child.aug.max_score) {
      return Status::Internal("aggregate score bound " +
                              Num(parent.aug.max_score) +
                              " does not dominate child score " +
                              Num(child.aug.max_score));
    }
    if (parent.aug.keywords.universe_size() !=
        child.aug.keywords.universe_size()) {
      return Status::Internal("keyword universe mismatch between parent and "
                              "child augmentation");
    }
    if (parent.aug.keywords.IntersectCount(child.aug.keywords) !=
        child.aug.keywords.Count()) {
      return Status::Internal(
          "node keyword set W is not a superset of its child's (child has " +
          Num(static_cast<uint64_t>(child.aug.keywords.Count())) +
          " keywords, only " +
          Num(static_cast<uint64_t>(
              parent.aug.keywords.IntersectCount(child.aug.keywords))) +
          " covered)");
    }
    return Status::OK();
  };

  auto entry_check = [&](const RTree<4, SrtAug>::Entry& e, bool is_leaf) {
    if (e.aug.keywords.universe_size() != table.universe_size()) {
      return Status::Internal(
          "augmentation keyword universe " +
          Num(static_cast<uint64_t>(e.aug.keywords.universe_size())) +
          " != table universe " +
          Num(static_cast<uint64_t>(table.universe_size())));
    }
    // The cached decoded keyword set and the stored aggregated Hilbert
    // value must describe the same set (Section 4.2 keeps them in sync).
    if (EncodeKeywords(e.aug.keywords) != e.aug.keyword_hilbert) {
      return Status::Internal(
          "aggregated Hilbert value is not the encoding of the cached "
          "keyword set (stale e.W cache)");
    }
    // Dimension 2 of the mapped 4-D space is the non-spatial score.
    if (e.rect.lo[2] < 0.0 || e.rect.hi[2] > 1.0) {
      return Status::Internal("score dimension of mapped MBR " +
                              FormatRect(e.rect) + " leaves [0,1]");
    }
    if (!is_leaf) return Status::OK();

    if (e.id >= table.size()) {
      return Status::Internal("leaf record id " +
                              Num(static_cast<uint64_t>(e.id)) +
                              " out of range for table of " +
                              Num(static_cast<uint64_t>(table.size())));
    }
    ++seen[e.id];
    const FeatureObject& f = table.Get(e.id);
    HilbertValue hv = EncodeKeywords(f.keywords);
    const std::array<double, 4> p{f.pos.x, f.pos.y, f.score,
                                  hv.ToUnitDouble()};
    for (int d = 0; d < 4; ++d) {
      if (e.rect.lo[d] != p[d] || e.rect.hi[d] != p[d]) {
        return Status::Internal(
            "leaf rect " + FormatRect(e.rect) + " is not the mapped 4-D "
            "point of feature " + Num(static_cast<uint64_t>(e.id)) +
            " (dim " + std::to_string(d) + ")");
      }
    }
    if (e.aug.max_score != f.score) {
      return Status::Internal("leaf augmentation score " +
                              Num(e.aug.max_score) + " != feature score " +
                              Num(f.score));
    }
    if (!(e.aug.keywords == f.keywords)) {
      return Status::Internal("leaf augmentation keywords differ from "
                              "feature " +
                              Num(static_cast<uint64_t>(e.id)) +
                              "'s keyword set");
    }
    return Status::OK();
  };

  Status st = ValidateRTree<4, SrtAug>(tree, summary_check, entry_check);
  if (!st.ok()) {
    return Status::Internal("SRT-index: " + st.message());
  }
  st = CheckLeafIdBijection(seen, "SRT-index: feature");
  STPQ_RETURN_NOT_OK(st);
  if (index.build_kind() == BulkLoadKind::kHilbert) {
    st = CheckHilbertLeafOrder<4, SrtAug>(tree);
    if (!st.ok()) {
      return Status::Internal("SRT-index: " + st.message());
    }
  }
  return Status::OK();
}

Status ValidateIr2Tree(const Ir2Tree& index) {
  const FeatureTable& table = index.table();
  const SignatureScheme& scheme = index.scheme();
  const RTree<2, Ir2Aug>& tree = index.tree();
  if (tree.size() != table.size()) {
    return Status::Internal("IR2-tree holds " + Num(tree.size()) +
                            " records for a table of " +
                            Num(static_cast<uint64_t>(table.size())) +
                            " features");
  }

  std::vector<uint32_t> seen(table.size(), 0);

  auto summary_check = [](const RTree<2, Ir2Aug>::Entry& parent,
                          const RTree<2, Ir2Aug>::Entry& child) {
    if (parent.aug.max_score < child.aug.max_score) {
      return Status::Internal("aggregate score bound " +
                              Num(parent.aug.max_score) +
                              " does not dominate child score " +
                              Num(child.aug.max_score));
    }
    if (!parent.aug.signature.Covers(child.aug.signature)) {
      return Status::Internal(
          "node signature does not cover its child's signature (would "
          "create false negatives)");
    }
    return Status::OK();
  };

  auto entry_check = [&](const RTree<2, Ir2Aug>::Entry& e, bool is_leaf) {
    if (e.aug.signature.bits() != scheme.signature_bits()) {
      return Status::Internal(
          "signature width " +
          Num(static_cast<uint64_t>(e.aug.signature.bits())) +
          " != scheme width " +
          Num(static_cast<uint64_t>(scheme.signature_bits())));
    }
    if (!is_leaf) return Status::OK();
    if (e.id >= table.size()) {
      return Status::Internal("leaf record id " +
                              Num(static_cast<uint64_t>(e.id)) +
                              " out of range for table of " +
                              Num(static_cast<uint64_t>(table.size())));
    }
    ++seen[e.id];
    const FeatureObject& f = table.Get(e.id);
    if (e.rect.lo[0] != f.pos.x || e.rect.hi[0] != f.pos.x ||
        e.rect.lo[1] != f.pos.y || e.rect.hi[1] != f.pos.y) {
      return Status::Internal("leaf rect " + FormatRect(e.rect) +
                              " is not the point of feature " +
                              Num(static_cast<uint64_t>(e.id)));
    }
    if (e.aug.max_score != f.score) {
      return Status::Internal("leaf augmentation score " +
                              Num(e.aug.max_score) + " != feature score " +
                              Num(f.score));
    }
    if (!(e.aug.signature == scheme.SetSignature(f.keywords))) {
      return Status::Internal("leaf signature differs from the scheme "
                              "signature of feature " +
                              Num(static_cast<uint64_t>(e.id)) +
                              "'s keywords");
    }
    return Status::OK();
  };

  Status st = ValidateRTree<2, Ir2Aug>(tree, summary_check, entry_check);
  if (!st.ok()) {
    return Status::Internal("IR2-tree: " + st.message());
  }
  return CheckLeafIdBijection(seen, "IR2-tree: feature");
}

Status ValidateObjectIndex(const ObjectIndex& index) {
  const RTree<2>& tree = index.tree();
  if (tree.size() != index.size()) {
    return Status::Internal("object R-tree holds " + Num(tree.size()) +
                            " records for " +
                            Num(static_cast<uint64_t>(index.size())) +
                            " objects");
  }
  std::vector<uint32_t> seen(index.size(), 0);
  auto no_summary = [](const RTree<2>::Entry&, const RTree<2>::Entry&) {
    return Status::OK();
  };
  auto entry_check = [&](const RTree<2>::Entry& e, bool is_leaf) {
    if (!is_leaf) return Status::OK();
    if (e.id >= index.size()) {
      return Status::Internal("leaf record id " +
                              Num(static_cast<uint64_t>(e.id)) +
                              " out of range for " +
                              Num(static_cast<uint64_t>(index.size())) +
                              " objects");
    }
    ++seen[e.id];
    const Point& pos = index.Get(e.id).pos;
    if (e.rect.lo[0] != pos.x || e.rect.hi[0] != pos.x ||
        e.rect.lo[1] != pos.y || e.rect.hi[1] != pos.y) {
      return Status::Internal("leaf rect " + FormatRect(e.rect) +
                              " is not the position of object " +
                              Num(static_cast<uint64_t>(e.id)));
    }
    return Status::OK();
  };
  Status st = ValidateRTree<2, NoAug>(tree, no_summary, entry_check);
  if (!st.ok()) {
    return Status::Internal("object index: " + st.message());
  }
  return CheckLeafIdBijection(seen, "object index: object");
}

Status ValidateInvertedIndex(const InvertedIndex& index) {
  uint64_t total = 0;
  for (TermId t = 0; t < index.universe_size(); ++t) {
    std::span<const uint32_t> plist = index.Postings(t);
    total += plist.size();
    for (size_t i = 1; i < plist.size(); ++i) {
      if (plist[i] <= plist[i - 1]) {
        return Status::Internal(
            "postings of term " + Num(static_cast<uint64_t>(t)) +
            " are not strictly increasing at position " +
            Num(static_cast<uint64_t>(i)) + " (" +
            Num(static_cast<uint64_t>(plist[i - 1])) + " then " +
            Num(static_cast<uint64_t>(plist[i])) +
            "): unsorted or duplicate document id");
      }
    }
    if (index.DocumentFrequency(t) != plist.size()) {
      return Status::Internal("document frequency of term " +
                              Num(static_cast<uint64_t>(t)) +
                              " disagrees with its posting count");
    }
  }
  if (total != index.TotalPostings()) {
    return Status::Internal("sum of posting lengths " + Num(total) +
                            " != TotalPostings() " +
                            Num(index.TotalPostings()) +
                            " (CSR offsets corrupt)");
  }
  return Status::OK();
}

Status ValidateInvertedIndex(const InvertedIndex& index,
                             std::span<const KeywordSet> documents) {
  STPQ_RETURN_NOT_OK(ValidateInvertedIndex(index));
  // Forward direction: every posted document really contains the term.
  for (TermId t = 0; t < index.universe_size(); ++t) {
    for (uint32_t doc : index.Postings(t)) {
      if (doc >= documents.size()) {
        return Status::Internal("term " + Num(static_cast<uint64_t>(t)) +
                                " posts document " +
                                Num(static_cast<uint64_t>(doc)) +
                                ", outside the corpus of " +
                                Num(static_cast<uint64_t>(documents.size())));
      }
      if (!documents[doc].Contains(t)) {
        return Status::Internal("term " + Num(static_cast<uint64_t>(t)) +
                                " posts document " +
                                Num(static_cast<uint64_t>(doc)) +
                                " which does not contain it (phantom "
                                "posting)");
      }
    }
  }
  // Reverse direction: every document keyword is posted.
  for (uint32_t doc = 0; doc < documents.size(); ++doc) {
    for (TermId t : documents[doc].ToTerms()) {
      if (t >= index.universe_size()) {
        return Status::Internal(
            "document " + Num(static_cast<uint64_t>(doc)) + " uses term " +
            Num(static_cast<uint64_t>(t)) + " outside the indexed universe");
      }
      std::span<const uint32_t> plist = index.Postings(t);
      if (!std::binary_search(plist.begin(), plist.end(), doc)) {
        return Status::Internal("document " +
                                Num(static_cast<uint64_t>(doc)) +
                                " contains term " +
                                Num(static_cast<uint64_t>(t)) +
                                " but is missing from its postings");
      }
    }
  }
  return Status::OK();
}

Status ValidateBufferPool(const BufferPool& pool) {
  // The validator inspects raw chain/table state, so it takes the pool's
  // own mutex: safe on the quiescent pools it is documented for, and it
  // keeps the thread-safety analysis sound instead of being opted out.
  MutexLock lock(pool.mu_);
  constexpr uint32_t kNil = BufferPool::kNilFrame;
  // Walk the intrusive LRU chain from the head: every link must be in
  // range, back-links must mirror forward links, and the chain must be
  // acyclic and end at the recorded tail.
  uint64_t chain_count = 0;
  uint64_t pinned_count = 0;
  uint32_t prev = kNil;
  for (uint32_t f = pool.head_; f != kNil; f = pool.frames_[f].next) {
    if (f >= pool.frames_.size()) {
      return Status::Internal("buffer pool: LRU chain links frame " + Num(uint64_t{f}) +
                              " outside the frame array");
    }
    if (pool.frames_[f].prev != prev) {
      return Status::Internal("buffer pool: LRU chain back-link of frame " +
                              Num(uint64_t{f}) +
                              " does not point at its predecessor");
    }
    if (++chain_count > pool.frames_.size()) {
      return Status::Internal("buffer pool: LRU chain contains a cycle");
    }
    // Every resident page maps back to its own frame in the page table.
    const uint32_t mapped = pool.table_.Find(pool.frames_[f].page);
    if (mapped == kNil) {
      return Status::Internal("buffer pool: resident page " +
                              Num(pool.frames_[f].page) +
                              " is missing from the page table");
    }
    if (mapped != f) {
      return Status::Internal("buffer pool: page table entry for page " +
                              Num(pool.frames_[f].page) +
                              " does not point back at its LRU frame");
    }
    if (pool.frames_[f].pins > 0) ++pinned_count;
    prev = f;
  }
  if (prev != pool.tail_) {
    return Status::Internal("buffer pool: LRU chain ends at frame " +
                            Num(uint64_t{prev}) +
                            " but the tail index records " +
                            Num(uint64_t{pool.tail_}));
  }
  if (chain_count != pool.chain_size_) {
    return Status::Internal("buffer pool: LRU chain links " +
                            Num(chain_count) + " frames but the size "
                            "counter records " + Num(pool.chain_size_));
  }
  // Chain and page table must be a bijection (the walk above proved the
  // chain injects into the table; equal sizes make it onto).
  if (chain_count != pool.table_.size()) {
    return Status::Internal(
        "buffer pool: LRU chain links " + Num(chain_count) +
        " frames but the page table maps " +
        Num(static_cast<uint64_t>(pool.table_.size())) + " pages");
  }
  if (pinned_count != pool.pinned_count_) {
    return Status::Internal("buffer pool: " + Num(pinned_count) +
                            " resident frames carry pins but the pinned "
                            "counter records " + Num(pool.pinned_count_));
  }
  // Free-list frames must be disjoint from the chain: unpinned, absent
  // from the table, and the two lists together never exceed the array.
  uint64_t free_count = 0;
  for (uint32_t f = pool.free_head_; f != kNil; f = pool.frames_[f].next) {
    if (f >= pool.frames_.size()) {
      return Status::Internal("buffer pool: free list links frame " + Num(uint64_t{f}) +
                              " outside the frame array");
    }
    if (pool.frames_[f].pins != 0) {
      return Status::Internal("buffer pool: free frame " + Num(uint64_t{f}) +
                              " carries a pin");
    }
    if (++free_count + chain_count > pool.frames_.size()) {
      return Status::Internal(
          "buffer pool: free list and LRU chain overlap or cycle");
    }
  }
  // Capacity and I/O-counter consistency.
  if (pool.capacity_ != 0 && chain_count > pool.capacity_) {
    return Status::Internal("buffer pool: " + Num(chain_count) +
                            " resident pages exceed capacity " +
                            Num(pool.capacity_));
  }
  if (chain_count > pool.lifetime_admissions_) {
    return Status::Internal(
        "buffer pool: " + Num(chain_count) + " resident pages but only " +
        Num(pool.lifetime_admissions_) +
        " lifetime admissions (I/O counters inconsistent)");
  }
  return Status::OK();
}

}  // namespace stpq
