#include "debug/validate.h"

#include <array>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "hilbert/hilbert.h"
#include "hilbert/keyword_hilbert.h"
#include "util/thread_annotations.h"

namespace stpq {

namespace {

using validate_internal::FormatRect;

std::string Num(double v) { return std::to_string(v); }
std::string Num(uint64_t v) { return std::to_string(v); }

/// Collects leaf rectangles in left-to-right tree order (the order bulk
/// loading packed them in), with their record ids.
template <int D>
void CollectLeavesInOrder(const PagedTree& tree, NodeId nid,
                          std::vector<std::pair<Rect<D>, uint32_t>>* out) {
  const NodeView node = tree.PeekNode(nid);
  for (uint32_t i = 0; i < node.size(); ++i) {
    if (node.IsLeaf()) {
      out->emplace_back(node.rect<D>(i), node.id(i));
    } else {
      CollectLeavesInOrder<D>(tree, node.id(i), out);
    }
  }
}

/// Checks that leaf records appear in non-decreasing Hilbert-key order —
/// the packing contract of BulkLoadKind::kHilbert (Kamel & Faloutsos).
/// Recomputes the build-time keys: centers quantized to 16 bits/dim inside
/// the record-set domain, exactly as HilbertSortKey does.
template <int D>
Status CheckHilbertLeafOrder(const PagedTree& tree) {
  if (tree.root_id() == kInvalidNodeId) return Status::OK();
  std::vector<std::pair<Rect<D>, uint32_t>> leaves;
  leaves.reserve(tree.size());
  CollectLeavesInOrder<D>(tree, tree.root_id(), &leaves);
  Rect<D> domain = Rect<D>::Empty();
  for (const auto& leaf : leaves) domain.Enlarge(leaf.first);
  uint64_t prev_key = 0;
  for (size_t i = 0; i < leaves.size(); ++i) {
    double unit[D];
    for (int d = 0; d < D; ++d) {
      double extent = domain.hi[d] - domain.lo[d];
      unit[d] = extent > 0.0
                    ? (leaves[i].first.Center(d) - domain.lo[d]) / extent
                    : 0.0;
    }
    uint64_t key = HilbertKeyFromUnit(unit, /*b=*/16, D);
    if (i > 0 && key < prev_key) {
      return Status::Internal(
          "leaf record " + Num(static_cast<uint64_t>(i)) + " (id " +
          Num(static_cast<uint64_t>(leaves[i].second)) + ") breaks the "
          "Hilbert bulk-load order: key " + Num(key) +
          " < predecessor key " + Num(prev_key));
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

/// The keyword column of entry `i` as its words.
std::vector<uint64_t> KeywordWords(const NodeView& node, uint32_t i) {
  std::vector<uint64_t> words(node.keyword_words());
  for (uint32_t w = 0; w < words.size(); ++w) {
    words[w] = node.keyword_word(i, w);
  }
  return words;
}

/// Dominance of a parent entry's summary over a child entry's: the max
/// score bounds the child's, and the parent's keyword column covers every
/// bit of the child's.  `covers` names the set relation in the message.
Status CheckSummaryDominance(const NodeView& parent, uint32_t i,
                             const NodeView& child, uint32_t j,
                             const char* what) {
  if (parent.score(i) < child.score(j)) {
    return Status::Internal("aggregate score bound " + Num(parent.score(i)) +
                            " does not dominate child score " +
                            Num(child.score(j)));
  }
  uint64_t child_bits = 0;
  uint64_t covered = 0;
  for (uint32_t w = 0; w < child.keyword_words(); ++w) {
    const uint64_t c = child.keyword_word(j, w);
    child_bits += std::popcount(c);
    covered += std::popcount(c & parent.keyword_word(i, w));
  }
  if (covered != child_bits) {
    return Status::Internal(std::string(what) + " (child has " +
                            Num(child_bits) + " bits, only " + Num(covered) +
                            " covered)");
  }
  return Status::OK();
}

}  // namespace

Status ValidateSrtIndex(const SrtIndex& index) {
  const FeatureTable& table = index.table();
  const PagedTree& tree = index.tree();
  if (tree.size() != table.size()) {
    return Status::Internal("SRT tree holds " + Num(tree.size()) +
                            " records for a table of " +
                            Num(static_cast<uint64_t>(table.size())) +
                            " features");
  }

  std::vector<uint32_t> seen(table.size(), 0);
  const uint32_t universe = table.universe_size();

  auto summary_check = [](const NodeView& parent, uint32_t i,
                          const NodeView& child, uint32_t j) {
    return CheckSummaryDominance(
        parent, i, child, j,
        "node keyword set W is not a superset of its child's");
  };

  auto entry_check = [&](const NodeView& node, uint32_t i) {
    const Rect4 rect = node.rect<4>(i);
    // e.W lives in the universe: no bit past it may be set.
    const std::vector<uint64_t> words = KeywordWords(node, i);
    for (uint32_t w = 0; w < words.size(); ++w) {
      const uint32_t first_bit = 64 * w;
      uint64_t outside = 0;
      if (first_bit >= universe) {
        outside = ~uint64_t{0};
      } else if (universe - first_bit < 64) {
        outside = ~uint64_t{0} << (universe - first_bit);
      }
      if ((words[w] & outside) != 0) {
        return Status::Internal("keyword column sets terms outside the "
                                "universe of " +
                                Num(static_cast<uint64_t>(universe)));
      }
    }
    // Dimension 2 of the mapped 4-D space is the non-spatial score.
    if (rect.lo[2] < 0.0 || rect.hi[2] > 1.0) {
      return Status::Internal("score dimension of mapped MBR " +
                              FormatRect(rect) + " leaves [0,1]");
    }
    if (!node.IsLeaf()) return Status::OK();

    const uint32_t id = node.id(i);
    if (id >= table.size()) {
      return Status::Internal("leaf record id " +
                              Num(static_cast<uint64_t>(id)) +
                              " out of range for table of " +
                              Num(static_cast<uint64_t>(table.size())));
    }
    ++seen[id];
    const FeatureObject& f = table.Get(id);
    // The 4th coordinate is H(t.W), re-derived from the record.
    const std::array<double, 4> p{f.pos.x, f.pos.y, f.score,
                                  EncodeKeywords(f.keywords).ToUnitDouble()};
    for (int d = 0; d < 4; ++d) {
      if (rect.lo[d] != p[d] || rect.hi[d] != p[d]) {
        return Status::Internal(
            "leaf rect " + FormatRect(rect) + " is not the mapped 4-D "
            "point of feature " + Num(static_cast<uint64_t>(id)) +
            " (dim " + std::to_string(d) + ")");
      }
    }
    if (node.score(i) != f.score) {
      return Status::Internal("leaf augmentation score " +
                              Num(node.score(i)) + " != feature score " +
                              Num(f.score));
    }
    if (words != f.keywords.blocks()) {
      return Status::Internal("leaf augmentation keywords differ from "
                              "feature " +
                              Num(static_cast<uint64_t>(id)) +
                              "'s keyword set");
    }
    return Status::OK();
  };

  Status st = ValidatePagedTree<4>(tree, summary_check, entry_check);
  if (!st.ok()) {
    return Status::Internal("SRT-index: " + st.message());
  }
  st = CheckLeafIdBijection(seen, "SRT-index: feature");
  STPQ_RETURN_NOT_OK(st);
  if (index.build_kind() == BulkLoadKind::kHilbert) {
    st = CheckHilbertLeafOrder<4>(tree);
    if (!st.ok()) {
      return Status::Internal("SRT-index: " + st.message());
    }
  }
  return Status::OK();
}

Status ValidateIr2Tree(const Ir2Tree& index) {
  const FeatureTable& table = index.table();
  const SignatureScheme& scheme = index.scheme();
  const PagedTree& tree = index.tree();
  if (tree.size() != table.size()) {
    return Status::Internal("IR2-tree holds " + Num(tree.size()) +
                            " records for a table of " +
                            Num(static_cast<uint64_t>(table.size())) +
                            " features");
  }

  std::vector<uint32_t> seen(table.size(), 0);

  auto summary_check = [](const NodeView& parent, uint32_t i,
                          const NodeView& child, uint32_t j) {
    return CheckSummaryDominance(
        parent, i, child, j,
        "node signature does not cover its child's signature (would create "
        "false negatives)");
  };

  auto entry_check = [&](const NodeView& node, uint32_t i) {
    if (!node.IsLeaf()) return Status::OK();
    const uint32_t id = node.id(i);
    if (id >= table.size()) {
      return Status::Internal("leaf record id " +
                              Num(static_cast<uint64_t>(id)) +
                              " out of range for table of " +
                              Num(static_cast<uint64_t>(table.size())));
    }
    ++seen[id];
    const FeatureObject& f = table.Get(id);
    const Rect2 rect = node.mbr(i);
    if (rect.lo[0] != f.pos.x || rect.hi[0] != f.pos.x ||
        rect.lo[1] != f.pos.y || rect.hi[1] != f.pos.y) {
      return Status::Internal("leaf rect " + FormatRect(rect) +
                              " is not the point of feature " +
                              Num(static_cast<uint64_t>(id)));
    }
    if (node.score(i) != f.score) {
      return Status::Internal("leaf augmentation score " +
                              Num(node.score(i)) + " != feature score " +
                              Num(f.score));
    }
    if (KeywordWords(node, i) != scheme.SetSignature(f.keywords).words()) {
      return Status::Internal("leaf signature differs from the scheme "
                              "signature of feature " +
                              Num(static_cast<uint64_t>(id)) +
                              "'s keywords");
    }
    return Status::OK();
  };

  Status st = ValidatePagedTree<2>(tree, summary_check, entry_check);
  if (!st.ok()) {
    return Status::Internal("IR2-tree: " + st.message());
  }
  return CheckLeafIdBijection(seen, "IR2-tree: feature");
}

Status ValidateFeatureIndex(const FeatureIndex& index) {
  if (const auto* srt = dynamic_cast<const SrtIndex*>(&index)) {
    return ValidateSrtIndex(*srt);
  }
  return ValidateIr2Tree(dynamic_cast<const Ir2Tree&>(index));
}

Status ValidateObjectIndex(const ObjectIndex& index) {
  const PagedTree& tree = index.tree();
  if (tree.size() != index.size()) {
    return Status::Internal("object R-tree holds " + Num(tree.size()) +
                            " records for " +
                            Num(static_cast<uint64_t>(index.size())) +
                            " objects");
  }
  std::vector<uint32_t> seen(index.size(), 0);
  auto no_summary = [](const NodeView&, uint32_t, const NodeView&,
                       uint32_t) { return Status::OK(); };
  auto entry_check = [&](const NodeView& node, uint32_t i) {
    if (!node.IsLeaf()) return Status::OK();
    const uint32_t id = node.id(i);
    if (id >= index.size()) {
      return Status::Internal("leaf record id " +
                              Num(static_cast<uint64_t>(id)) +
                              " out of range for " +
                              Num(static_cast<uint64_t>(index.size())) +
                              " objects");
    }
    ++seen[id];
    const Point& pos = index.Get(id).pos;
    const Rect2 rect = node.mbr(i);
    if (rect.lo[0] != pos.x || rect.hi[0] != pos.x || rect.lo[1] != pos.y ||
        rect.hi[1] != pos.y) {
      return Status::Internal("leaf rect " + FormatRect(rect) +
                              " is not the position of object " +
                              Num(static_cast<uint64_t>(id)));
    }
    return Status::OK();
  };
  Status st = ValidatePagedTree<2>(tree, no_summary, entry_check);
  if (!st.ok()) {
    return Status::Internal("object index: " + st.message());
  }
  return CheckLeafIdBijection(seen, "object index: object");
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
