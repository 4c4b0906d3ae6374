#include "debug/validate.h"

#include <bit>
#include <cmath>
#include <string>

#include "rtree/bulk_load.h"
#include "util/result.h"

namespace stpq {

namespace {

using validate_internal::FormatRect;

std::string Num(double v) { return std::to_string(v); }
std::string Num(uint64_t v) { return std::to_string(v); }

/// Collects leaf record ids in left-to-right tree order (the order bulk
/// loading packed them in).
void CollectLeafIdsInOrder(const PagedTree& tree, NodeId nid,
                           std::vector<uint32_t>* out) {
  const NodeView node = tree.PeekNode(nid);
  for (uint32_t i = 0; i < node.size(); ++i) {
    if (node.IsLeaf()) {
      out->push_back(node.id(i));
    } else {
      CollectLeafIdsInOrder(tree, node.id(i), out);
    }
  }
}

/// Checks that a tree's leaves appear in non-decreasing Hilbert-key order,
/// the packing contract of every tree (Kamel & Faloutsos).  The pages keep
/// no sort point (an SRT leaf's 4-D point least of all), so
/// `sort_point(id)` re-derives each leaf's from the index's records — its
/// class's LeafSortPoint — and the point is keyed by HilbertSortKey inside
/// the leaves' domain, as SortByHilbertKey and the external loader key it.
/// Every leaf id must name a record (CheckLeafIdBijection runs first).
template <typename SortPointFn>
Status CheckHilbertLeafOrder(const PagedTree& tree,
                             const SortPointFn& sort_point) {
  if (tree.root_id() == kInvalidNodeId) return Status::OK();
  std::vector<uint32_t> ids;
  ids.reserve(tree.size());
  CollectLeafIdsInOrder(tree, tree.root_id(), &ids);
  std::vector<SortPoint> points;
  points.reserve(ids.size());
  Rect4 domain = Rect4::Empty();
  for (uint32_t id : ids) {
    points.push_back(sort_point(id));
    domain.EnlargePoint(points.back().coords);
  }
  uint64_t prev_key = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    const uint64_t key = HilbertSortKey(points[i], domain);
    if (i > 0 && key < prev_key) {
      return Status::Internal(
          "leaf record " + Num(static_cast<uint64_t>(i)) + " (id " +
          Num(static_cast<uint64_t>(ids[i])) + ") breaks the "
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

/// The leaf checks both feature indexes share: the entry's id names a
/// table record (counted in `seen`), its MBR is the record's point and its
/// e.s the record's score.  Returns the record.
Result<const FeatureObject*> CheckFeatureLeaf(const NodeView& node,
                                              uint32_t i,
                                              const FeatureTable& table,
                                              std::vector<uint32_t>* seen) {
  const uint32_t id = node.id(i);
  if (id >= table.size()) {
    return Status::Internal("leaf record id " + Num(uint64_t{id}) +
                            " out of range for table of " +
                            Num(static_cast<uint64_t>(table.size())));
  }
  ++(*seen)[id];
  const FeatureObject& f = table.Get(id);
  const Rect2 rect = node.mbr(i);
  if (rect.lo != PointRect(f.pos).lo || rect.hi != PointRect(f.pos).hi) {
    return Status::Internal("leaf rect " + FormatRect(rect) +
                            " is not the point of feature " +
                            Num(uint64_t{id}));
  }
  if (node.score(i) != f.score) {
    return Status::Internal("leaf augmentation score " + Num(node.score(i)) +
                            " != feature score " + Num(f.score));
  }
  return &f;
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
  // The first e.s outside [0,1].  It is reported only once the walk has
  // passed, because the dominance and leaf-vs-table checks name a damaged
  // score's cause more precisely.
  Status score_range = Status::OK();

  auto summary_check = [](const NodeView& parent, uint32_t i,
                          const NodeView& child, uint32_t j) {
    return CheckSummaryDominance(
        parent, i, child, j,
        "node keyword set W is not a superset of its child's");
  };

  auto entry_check = [&](const NodeView& node, uint32_t i) {
    const double score = node.score(i);
    if (score_range.ok() && !(score >= 0.0 && score <= 1.0)) {
      score_range = Status::Internal(
          "score e.s " + Num(score) + " of the level-" +
          Num(uint64_t{node.level()}) + " entry for " +
          (node.IsLeaf() ? "feature " : "node ") +
          Num(uint64_t{node.id(i)}) + " leaves [0,1]");
    }
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
    if (!node.IsLeaf()) return Status::OK();
    Result<const FeatureObject*> f = CheckFeatureLeaf(node, i, table, &seen);
    if (!f.ok()) return f.status();
    if (words != f.value()->keywords.blocks()) {
      return Status::Internal("leaf augmentation keywords differ from "
                              "feature " +
                              Num(uint64_t{node.id(i)}) + "'s keyword set");
    }
    return Status::OK();
  };

  Status st = ValidatePagedTree(tree, summary_check, entry_check);
  if (!st.ok()) {
    return Status::Internal("SRT-index: " + st.message());
  }
  if (!score_range.ok()) {
    return Status::Internal("SRT-index: " + score_range.message());
  }
  st = CheckLeafIdBijection(seen, "SRT-index: feature");
  STPQ_RETURN_NOT_OK(st);
  st = CheckHilbertLeafOrder(tree, [&table](uint32_t id) {
    return SrtIndex::LeafSortPoint(table.Get(id));
  });
  if (!st.ok()) {
    return Status::Internal("SRT-index: " + st.message());
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
    Result<const FeatureObject*> f = CheckFeatureLeaf(node, i, table, &seen);
    if (!f.ok()) return f.status();
    if (KeywordWords(node, i) !=
        scheme.SetSignature(f.value()->keywords).words()) {
      return Status::Internal("leaf signature differs from the scheme "
                              "signature of feature " +
                              Num(uint64_t{node.id(i)}) + "'s keywords");
    }
    return Status::OK();
  };

  Status st = ValidatePagedTree(tree, summary_check, entry_check);
  if (!st.ok()) {
    return Status::Internal("IR2-tree: " + st.message());
  }
  st = CheckLeafIdBijection(seen, "IR2-tree: feature");
  STPQ_RETURN_NOT_OK(st);
  st = CheckHilbertLeafOrder(tree, [&table](uint32_t id) {
    return Ir2Tree::LeafSortPoint(table.Get(id));
  });
  if (!st.ok()) {
    return Status::Internal("IR2-tree: " + st.message());
  }
  return Status::OK();
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
  Status st = ValidatePagedTree(tree, no_summary, entry_check);
  if (!st.ok()) {
    return Status::Internal("object index: " + st.message());
  }
  st = CheckLeafIdBijection(seen, "object index: object");
  STPQ_RETURN_NOT_OK(st);
  st = CheckHilbertLeafOrder(tree, [&index](uint32_t id) {
    return ObjectIndex::LeafSortPoint(index.Get(id));
  });
  if (!st.ok()) {
    return Status::Internal("object index: " + st.message());
  }
  return Status::OK();
}

Status ValidateBufferPool(const BufferPool& pool) {
  // Frames [0, resident) hold the admitted pages.  Each must map back to
  // its own frame in the page table, so the frames inject into the table,
  // and the table holds `resident` pages, which makes it a bijection.
  const uint64_t resident = pool.table_.size();
  if (resident > pool.frames_.size()) {
    return Status::Internal(
        "buffer pool: the page table maps " + Num(resident) +
        " pages but only " +
        Num(static_cast<uint64_t>(pool.frames_.size())) + " frames exist");
  }
  for (uint32_t f = 0; f < resident; ++f) {
    const PageId page = pool.frames_[f].page;
    const uint32_t mapped = pool.table_.Find(page);
    if (mapped == BufferPool::kNilFrame) {
      return Status::Internal("buffer pool: resident page " + Num(page) +
                              " is missing from the page table");
    }
    if (mapped != f) {
      return Status::Internal("buffer pool: page table entry for page " +
                              Num(page) + " does not point back at frame " +
                              Num(uint64_t{f}));
    }
  }
  // Every admitted page was a read since Reset.
  if (resident > pool.reads_) {
    return Status::Internal("buffer pool: " + Num(resident) +
                            " resident pages but only " + Num(pool.reads_) +
                            " reads since Reset (I/O counters inconsistent)");
  }
  return Status::OK();
}

}  // namespace stpq
