// Bulk loading: the Hilbert sort order and the one tree packer.
//
// The paper bulk loads the SRT-index with Hilbert packing (Kamel &
// Faloutsos [9]) over the mapped 4-D space, and every tree here is built
// that way: its leaf entries are sorted by HilbertSortKey and fed to
// TreePacker, which alone decides a packed tree's shape and node ids.
// PackTree runs it with a sink that encodes each closed node into its slot
// of an in-memory page image; the external loader (io/bulk_load.h) runs it
// over a merge sort keyed by HilbertSortKey with a sink that encodes and
// writes each node's slot of the file.  So an in-memory build and an
// external build lay out the same tree by construction, and a change to
// the sort key or the packing reaches both.
#ifndef STPQ_RTREE_BULK_LOAD_H_
#define STPQ_RTREE_BULK_LOAD_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "hilbert/hilbert.h"
#include "rtree/node_page.h"
#include "rtree/rtree.h"

namespace stpq {

/// The Hilbert bulk-load sort key: the Hilbert index of `rect`'s center,
/// quantized to 16 bits per dimension within `domain` (D <= 4).
template <int D>
uint64_t HilbertSortKey(const Rect<D>& rect, const Rect<D>& domain) {
  double unit[D];
  for (int d = 0; d < D; ++d) {
    const double extent = domain.hi[d] - domain.lo[d];
    unit[d] = extent > 0.0 ? (rect.Center(d) - domain.lo[d]) / extent : 0.0;
  }
  return HilbertKeyFromUnit(unit, /*b=*/16, D);
}

/// Sorts a tree's leaf entries by HilbertSortKey within their domain, the
/// union of their rects (the external loader's survey pass folds the same
/// union).
template <int D, typename Aug>
void SortByHilbertKey(std::vector<TreeEntry<D, Aug>>* records) {
  Rect<D> domain = Rect<D>::Empty();
  for (const TreeEntry<D, Aug>& r : *records) domain.Enlarge(r.rect);
  struct Keyed {
    uint64_t key;
    size_t index;
  };
  std::vector<Keyed> keyed(records->size());
  for (size_t i = 0; i < records->size(); ++i) {
    keyed[i] = {HilbertSortKey((*records)[i].rect, domain), i};
  }
  // Tie-break on the input index: equal Hilbert keys (quantization
  // collisions) keep their original order, making the sort a total order
  // any implementation — including the external merge sort — reproduces.
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return a.key != b.key ? a.key < b.key : a.index < b.index;
  });
  std::vector<TreeEntry<D, Aug>> out;
  out.reserve(records->size());
  for (const Keyed& k : keyed) out.push_back(std::move((*records)[k.index]));
  *records = std::move(out);
}

/// Bottom-up packer.  Takes a tree's leaf entries in sorted order, one at
/// a time, and closes a node every `per_node` entries: the fan-out times
/// the fill, clamped to [MinEntries, fan-out].  Each closed node is folded
/// into an entry of the level above with Summarize, and the last partial
/// node of each level closes in Finish.  Node ids run level by level from
/// 0, leaves first and the root last, so the whole shape follows from
/// (entry count, fan-out, fill): levels close interleaved, yet each node
/// knows its final id when it closes.  Every closed node is handed to
/// `sink(NodeId, const TreeNode&)`.
template <int D, typename Aug>
class TreePacker {
 public:
  using Entry = TreeEntry<D, Aug>;
  using Node = TreeNode<D, Aug>;

  TreePacker(uint64_t entry_count, uint32_t max_entries, double fill)
      : entry_count_(entry_count),
        max_entries_(max_entries),
        per_node_(std::min(
            max_entries,
            std::max(MinEntries(max_entries),
                     static_cast<uint32_t>(max_entries * fill)))) {
    // Nodes per level, leaves up to the single root; none when empty.
    for (uint64_t n = entry_count; n > 0;) {
      n = (n + per_node_ - 1) / per_node_;
      level_base_.push_back(node_count_);
      node_count_ += n;
      if (n == 1) break;
    }
    open_.resize(level_base_.size());
    for (size_t level = 0; level < open_.size(); ++level) {
      open_[level].level = static_cast<uint16_t>(level);
      open_[level].entries.reserve(per_node_);
    }
    closed_.assign(level_base_.size(), 0);
  }

  /// The packed tree's shape, known before the first entry arrives.
  [[nodiscard]] TreeMeta meta() const {
    const NodeId root = node_count_ == 0
                            ? kInvalidNodeId
                            : static_cast<NodeId>(node_count_ - 1);
    return TreeMeta{root, static_cast<uint32_t>(level_base_.size()),
                    entry_count_, node_count_, max_entries_};
  }

  template <typename Sink>
  void Add(Entry e, const Sink& sink) {
    STPQ_CHECK(added_ < entry_count_ && "more entries than declared");
    ++added_;
    PushEntry(0, std::move(e), sink);
  }

  /// Closes every level's partial node, bottom-up.
  template <typename Sink>
  void Finish(const Sink& sink) {
    STPQ_CHECK(added_ == entry_count_ && "fewer entries than declared");
    for (uint32_t level = 0; level < open_.size(); ++level) {
      if (!open_[level].entries.empty()) CloseNode(level, sink);
    }
  }

 private:
  template <typename Sink>
  void PushEntry(uint32_t level, Entry e, const Sink& sink) {
    std::vector<Entry>& entries = open_[level].entries;
    entries.push_back(std::move(e));
    if (entries.size() == per_node_) CloseNode(level, sink);
  }

  template <typename Sink>
  void CloseNode(uint32_t level, const Sink& sink) {
    Node& node = open_[level];
    const auto id = static_cast<NodeId>(level_base_[level] + closed_[level]++);
    Entry parent = Summarize(id, node.entries);
    sink(id, node);
    node.entries.clear();
    if (level + 1 < open_.size()) {
      PushEntry(level + 1, std::move(parent), sink);
    }
  }

  uint64_t entry_count_;
  uint32_t max_entries_;
  uint32_t per_node_;
  uint64_t node_count_ = 0;
  uint64_t added_ = 0;
  std::vector<uint64_t> level_base_;  ///< first node id of each level
  std::vector<uint64_t> closed_;      ///< nodes closed so far per level
  std::vector<Node> open_;            ///< open node per level
};

/// Packs `sorted` (a tree's leaf entries, sorted by SortByHilbertKey) into
/// node pages laid out as `layout`, in slots of the width SlotBytesFor
/// derives for `page_size`: TreePacker with a sink that encodes each
/// closed node into its slot of the image as it closes.
template <int D, typename Aug>
TreeImage PackTree(std::vector<TreeEntry<D, Aug>> sorted,
                   uint32_t max_entries, double fill,
                   const PageLayout& layout, uint32_t page_size) {
  TreePacker<D, Aug> packer(sorted.size(), max_entries, fill);
  TreeImage image;
  image.meta = packer.meta();
  image.slot_bytes =
      SlotBytesFor(max_entries, layout.entry_bytes(), page_size);
  image.pages.assign(image.meta.node_count * image.slot_bytes, 0);
  const auto encode = [&](NodeId id, const TreeNode<D, Aug>& node) {
    EncodeNodePage(node, layout,
                   image.pages.data() + uint64_t{id} * image.slot_bytes);
  };
  for (TreeEntry<D, Aug>& e : sorted) packer.Add(std::move(e), encode);
  packer.Finish(encode);
  return image;
}

}  // namespace stpq

#endif  // STPQ_RTREE_BULK_LOAD_H_
