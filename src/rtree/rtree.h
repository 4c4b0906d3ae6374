// R-tree substrate: Guttman insertion with quadratic split, bottom-up bulk
// packing, and pluggable entry augmentation.
//
// Both of the paper's feature indexes are R-trees in disguise:
//   * the SRT-index (Section 4) is an R-tree over the mapped 4-D space whose
//     entries carry {max score, aggregated keyword Hilbert value};
//   * the modified IR2-tree (Section 8) is a 2-D R-tree whose entries carry
//     {max score, keyword signature};
//   * the object index ("rtree" in the paper) is a plain 2-D R-tree.
// The shared mechanics live here; augmentation is a policy type with a
// Merge() so internal entries summarize their subtrees (e.s and e.W of
// Section 4.1 are exactly such summaries).
//
// The tree is a build-time structure: the indexes pack it (or insert into
// it) and encode each node into its page (rtree/node_page.h); after
// construction every reader reads the pages.
#ifndef STPQ_RTREE_RTREE_H_
#define STPQ_RTREE_RTREE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geom/rect.h"
#include "util/logging.h"

namespace stpq {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNodeId = std::numeric_limits<NodeId>::max();

/// Augmentation for plain R-trees (no extra per-entry payload).
struct NoAug {
  static NoAug Merge(const NoAug&, const NoAug&) { return {}; }
};

/// R-tree sizing knobs.
struct RTreeOptions {
  /// Maximum entries per node (fan-out).  Derive from the page size with
  /// FanOutForPage() to mirror a disk layout.
  uint32_t max_entries = 64;
};

/// Fan-out of a node stored on a page of `page_bytes`, with entries of
/// 2*D*8 rect bytes + 4 id bytes + `aug_bytes` augmentation bytes.
inline uint32_t FanOutForPage(uint32_t page_bytes, int dims,
                              uint32_t aug_bytes) {
  uint32_t entry_bytes = 2u * dims * 8u + 4u + aug_bytes;
  uint32_t header_bytes = 16;  // level, count, page metadata
  uint32_t fanout = (page_bytes - header_bytes) / entry_bytes;
  return std::max(fanout, 4u);
}

/// Minimum entries per node: 40% of the fan-out, at least 2.  Splits keep
/// both halves at or above it, and the bulk-load packer never packs fewer.
inline uint32_t MinEntries(uint32_t max_entries) {
  return std::max<uint32_t>(2, static_cast<uint32_t>(max_entries * 0.4));
}

/// R-tree over D-dimensional rectangles with Aug-augmented entries.
///
/// Aug must provide `static Aug Merge(const Aug&, const Aug&)`.
template <int D, typename Aug = NoAug>
class RTree {
 public:
  struct Entry {
    Rect<D> rect;
    uint32_t id;  ///< child NodeId (internal) or caller's record id (leaf)
    Aug aug;
  };

  struct Node {
    uint16_t level = 0;  ///< 0 = leaf
    std::vector<Entry> entries;
    bool IsLeaf() const { return level == 0; }
  };

  explicit RTree(RTreeOptions options = {})
      : options_(options), min_entries_(MinEntries(options.max_entries)) {
    STPQ_CHECK(options_.max_entries >= 4);
  }

  /// Number of indexed records.
  [[nodiscard]] uint64_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] NodeId root_id() const { return root_; }
  [[nodiscard]] uint32_t height() const { return height_; }
  [[nodiscard]] uint32_t node_count() const {
    return static_cast<uint32_t>(nodes_.size());
  }
  [[nodiscard]] uint32_t min_entries() const { return min_entries_; }
  [[nodiscard]] const RTreeOptions& options() const { return options_; }

  /// Node `id` (the page encoder reads every node through this).
  [[nodiscard]] const Node& PeekNode(NodeId id) const {
    STPQ_CHECK(id < nodes_.size());
    return nodes_[id];
  }

  /// Inserts one record.
  void Insert(const Rect<D>& rect, uint32_t record_id, const Aug& aug = {}) {
    if (root_ == kInvalidNodeId) {
      root_ = NewNode(0);
      height_ = 1;
    }
    path_.clear();
    NodeId leaf = ChooseLeaf(rect);
    nodes_[leaf].entries.push_back(Entry{rect, record_id, aug});
    ++size_;
    PropagateUp(leaf);
    STPQ_DCHECK(nodes_[root_].level + 1u == height_);
  }

  /// Bulk loads from records pre-sorted by the caller (Hilbert or STR
  /// order), replacing any existing content.  `fill` is the target node
  /// occupancy fraction.  Defined in rtree/bulk_load.h: it is the shared
  /// packer with a sink that stores each node in place.
  void BulkLoadSorted(const std::vector<Entry>& sorted_records,
                      double fill = 1.0);

  /// Parent entry for a node holding `entries` under id `id`: MBR union
  /// and Aug merge, folded left to right.
  static Entry Summarize(NodeId id, const std::vector<Entry>& entries) {
    STPQ_DCHECK(!entries.empty());
    Entry out;
    out.id = id;
    out.rect = entries.front().rect;
    out.aug = entries.front().aug;
    for (size_t i = 1; i < entries.size(); ++i) {
      out.rect.Enlarge(entries[i].rect);
      out.aug = Aug::Merge(out.aug, entries[i].aug);
    }
    return out;
  }

  /// Calls `fn(record_id, rect, aug)` for every leaf record whose rectangle
  /// intersects `range`.
  template <typename Fn>
  void ForEachInRange(const Rect<D>& range, Fn&& fn) const {
    if (root_ == kInvalidNodeId) return;
    // Iterative DFS; stack holds node ids whose MBR intersects the range.
    std::vector<NodeId> stack{root_};
    while (!stack.empty()) {
      NodeId nid = stack.back();
      stack.pop_back();
      const Node& node = nodes_[nid];
      for (const Entry& e : node.entries) {
        if (!range.Intersects(e.rect)) continue;
        if (node.IsLeaf()) {
          fn(e.id, e.rect, e.aug);
        } else {
          stack.push_back(e.id);
        }
      }
    }
  }

  /// Recomputes and verifies every internal entry's MBR and augmentation
  /// (test hook).  `aug_equal` compares augmentation values.
  template <typename AugEq>
  bool CheckInvariants(AugEq&& aug_equal) const {
    if (root_ == kInvalidNodeId) return true;
    return CheckNode(root_, height_ - 1, aug_equal);
  }

 private:
  NodeId NewNode(uint16_t level) {
    nodes_.push_back(Node{level, {}});
    return static_cast<NodeId>(nodes_.size() - 1);
  }

  /// Parent entry summarizing node `nid`.
  Entry SummarizeNode(NodeId nid) const {
    return Summarize(nid, nodes_[nid].entries);
  }

  /// Descends to the leaf with minimal area enlargement, recording the path
  /// (node id, entry index within parent) for the upward adjustment pass.
  NodeId ChooseLeaf(const Rect<D>& rect) {
    NodeId cur = root_;
    while (!nodes_[cur].IsLeaf()) {
      const Node& node = nodes_[cur];
      size_t best = 0;
      double best_enlarge = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < node.entries.size(); ++i) {
        double enlarge = node.entries[i].rect.EnlargementArea(rect);
        double area = node.entries[i].rect.Area();
        if (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)) {
          best = i;
          best_enlarge = enlarge;
          best_area = area;
        }
      }
      path_.push_back({cur, best});
      cur = node.entries[best].id;
    }
    return cur;
  }

  /// Walks the recorded path upward: splits overflowing nodes and refreshes
  /// the parent entries' MBR/augmentation.
  void PropagateUp(NodeId changed) {
    while (true) {
      bool overflow = nodes_[changed].entries.size() > options_.max_entries;
      NodeId sibling = kInvalidNodeId;
      if (overflow) sibling = SplitNode(changed);

      if (path_.empty()) {
        if (sibling != kInvalidNodeId) {
          // Root split: grow the tree by one level.
          NodeId new_root = NewNode(nodes_[changed].level + 1);
          nodes_[new_root].entries.push_back(SummarizeNode(changed));
          nodes_[new_root].entries.push_back(SummarizeNode(sibling));
          root_ = new_root;
          ++height_;
        }
        return;
      }

      auto [parent, slot] = path_.back();
      path_.pop_back();
      nodes_[parent].entries[slot] = SummarizeNode(changed);
      if (sibling != kInvalidNodeId) {
        nodes_[parent].entries.push_back(SummarizeNode(sibling));
      }
      changed = parent;
    }
  }

  /// Quadratic split (Guttman).  Returns the new sibling's id.
  NodeId SplitNode(NodeId nid) {
    std::vector<Entry> all = std::move(nodes_[nid].entries);
    nodes_[nid].entries.clear();
    NodeId sid = NewNode(nodes_[nid].level);

    // Pick the pair of seeds wasting the most area together.
    size_t seed_a = 0, seed_b = 1;
    double worst = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < all.size(); ++i) {
      for (size_t j = i + 1; j < all.size(); ++j) {
        Rect<D> joined = all[i].rect;
        joined.Enlarge(all[j].rect);
        double waste = joined.Area() - all[i].rect.Area() -
                       all[j].rect.Area();
        if (waste > worst) {
          worst = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }

    std::vector<bool> assigned(all.size(), false);
    Rect<D> rect_a = all[seed_a].rect;
    Rect<D> rect_b = all[seed_b].rect;
    nodes_[nid].entries.push_back(all[seed_a]);
    nodes_[sid].entries.push_back(all[seed_b]);
    assigned[seed_a] = assigned[seed_b] = true;
    size_t remaining = all.size() - 2;

    while (remaining > 0) {
      size_t count_a = nodes_[nid].entries.size();
      size_t count_b = nodes_[sid].entries.size();
      // Force-assign if one side must take all the rest to reach min fill.
      if (count_a + remaining == min_entries_) {
        for (size_t i = 0; i < all.size(); ++i) {
          if (!assigned[i]) {
            nodes_[nid].entries.push_back(all[i]);
            rect_a.Enlarge(all[i].rect);
            assigned[i] = true;
          }
        }
        break;
      }
      if (count_b + remaining == min_entries_) {
        for (size_t i = 0; i < all.size(); ++i) {
          if (!assigned[i]) {
            nodes_[sid].entries.push_back(all[i]);
            rect_b.Enlarge(all[i].rect);
            assigned[i] = true;
          }
        }
        break;
      }
      // PickNext: the entry with the largest preference between groups.
      size_t pick = 0;
      double best_diff = -1.0;
      double d_a_pick = 0.0, d_b_pick = 0.0;
      for (size_t i = 0; i < all.size(); ++i) {
        if (assigned[i]) continue;
        double d_a = rect_a.EnlargementArea(all[i].rect);
        double d_b = rect_b.EnlargementArea(all[i].rect);
        double diff = std::abs(d_a - d_b);
        if (diff > best_diff) {
          best_diff = diff;
          pick = i;
          d_a_pick = d_a;
          d_b_pick = d_b;
        }
      }
      bool to_a;
      if (d_a_pick != d_b_pick) {
        to_a = d_a_pick < d_b_pick;
      } else if (rect_a.Area() != rect_b.Area()) {
        to_a = rect_a.Area() < rect_b.Area();
      } else {
        to_a = nodes_[nid].entries.size() <= nodes_[sid].entries.size();
      }
      if (to_a) {
        nodes_[nid].entries.push_back(all[pick]);
        rect_a.Enlarge(all[pick].rect);
      } else {
        nodes_[sid].entries.push_back(all[pick]);
        rect_b.Enlarge(all[pick].rect);
      }
      assigned[pick] = true;
      --remaining;
    }
    // Split postcondition: both halves meet the fill bounds (the parent
    // entry for `sid` is appended by PropagateUp right after this returns).
    STPQ_DCHECK(nodes_[nid].entries.size() >= min_entries_ &&
                nodes_[nid].entries.size() <= options_.max_entries);
    STPQ_DCHECK(nodes_[sid].entries.size() >= min_entries_ &&
                nodes_[sid].entries.size() <= options_.max_entries);
    return sid;
  }

  template <typename AugEq>
  bool CheckNode(NodeId nid, uint16_t expected_level, AugEq& aug_equal) const {
    const Node& node = nodes_[nid];
    if (node.level != expected_level) return false;
    if (node.IsLeaf()) return true;
    for (const Entry& e : node.entries) {
      const Node& child = nodes_[e.id];
      if (child.entries.empty()) return false;
      Rect<D> rect = child.entries.front().rect;
      Aug aug = child.entries.front().aug;
      for (size_t i = 1; i < child.entries.size(); ++i) {
        rect.Enlarge(child.entries[i].rect);
        aug = Aug::Merge(aug, child.entries[i].aug);
      }
      for (int d = 0; d < D; ++d) {
        if (rect.lo[d] != e.rect.lo[d] || rect.hi[d] != e.rect.hi[d]) {
          return false;
        }
      }
      if (!aug_equal(aug, e.aug)) return false;
      if (!CheckNode(e.id, expected_level - 1, aug_equal)) return false;
    }
    return true;
  }

  RTreeOptions options_;
  uint32_t min_entries_;
  std::vector<Node> nodes_;
  NodeId root_ = kInvalidNodeId;
  uint32_t height_ = 0;
  uint64_t size_ = 0;
  // Descent path scratch (node id, entry slot in that node's parent role).
  std::vector<std::pair<NodeId, size_t>> path_;
};

}  // namespace stpq

#endif  // STPQ_RTREE_RTREE_H_
