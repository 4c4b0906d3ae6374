// Bulk loading: the sort orders and the one tree packer.
//
// The paper bulk loads the SRT-index with Hilbert packing (Kamel &
// Faloutsos [9]) over the mapped 4-D space; STR is provided for ablation
// (bench_ablation_srt compares the packings).  Either order feeds
// TreePacker, which alone decides a packed tree's shape and node ids.
// RTree::BulkLoadSorted runs it with a sink that keeps the nodes in
// memory (the in-memory build then encodes each node's page); the
// external loader (io/bulk_load.h) runs it over a merge sort keyed by
// HilbertSortKey with a sink that encodes and writes each node's slot.
// So an in-memory build and an external build lay out the same tree by
// construction, and a change to the sort key or the packing reaches both.
#ifndef STPQ_RTREE_BULK_LOAD_H_
#define STPQ_RTREE_BULK_LOAD_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "hilbert/hilbert.h"
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

/// Sorts records by HilbertSortKey within `domain`.
template <int D, typename Aug>
void SortByHilbertKey(std::vector<typename RTree<D, Aug>::Entry>* records,
                      const Rect<D>& domain) {
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
  std::vector<typename RTree<D, Aug>::Entry> out;
  out.reserve(records->size());
  for (const Keyed& k : keyed) out.push_back(std::move((*records)[k.index]));
  *records = std::move(out);
}

namespace internal {

/// Recursive Sort-Tile-Recursive pass over dimensions [dim, D).
template <int D, typename Entry>
void StrRecurse(Entry* begin, Entry* end, int dim, uint32_t leaf_capacity) {
  size_t n = static_cast<size_t>(end - begin);
  if (n <= leaf_capacity || dim >= D) return;
  std::sort(begin, end, [dim](const Entry& a, const Entry& b) {
    return a.rect.Center(dim) < b.rect.Center(dim);
  });
  // Number of slabs along this dimension: P^(1/(D-dim)) where P is the
  // number of leaves needed.
  double leaves = std::ceil(static_cast<double>(n) / leaf_capacity);
  size_t slabs = static_cast<size_t>(
      std::ceil(std::pow(leaves, 1.0 / (D - dim))));
  slabs = std::max<size_t>(1, slabs);
  size_t per_slab = (n + slabs - 1) / slabs;
  for (size_t i = 0; i < n; i += per_slab) {
    size_t hi = std::min(n, i + per_slab);
    StrRecurse<D>(begin + i, begin + hi, dim + 1, leaf_capacity);
  }
}

}  // namespace internal

/// Sort-Tile-Recursive ordering (Leutenegger et al.).
template <int D, typename Aug>
void SortSTR(std::vector<typename RTree<D, Aug>::Entry>* records,
             uint32_t leaf_capacity) {
  if (records->empty()) return;
  internal::StrRecurse<D>(records->data(), records->data() + records->size(),
                          0, leaf_capacity);
}

/// Computes the domain rectangle of a record set (union of all MBRs).
template <int D, typename Aug>
Rect<D> ComputeDomain(const std::vector<typename RTree<D, Aug>::Entry>& recs) {
  Rect<D> domain = Rect<D>::Empty();
  for (const auto& r : recs) domain.Enlarge(r.rect);
  return domain;
}

/// Bottom-up packer.  Takes a tree's leaf entries in sorted order, one at
/// a time, and closes a node every `per_node` entries: the fan-out times
/// the fill, clamped to [MinEntries, fan-out].  Each closed node is folded
/// into an entry of the level above with RTree::Summarize, and the last
/// partial node of each level closes in Finish.  Node ids run level by
/// level from 0, leaves first and the root last, so the whole shape
/// follows from (entry count, fan-out, fill): levels close interleaved,
/// yet each node knows its final id when it closes.  Every closed node is
/// handed to `sink(NodeId, Node&&)`.
template <int D, typename Aug>
class TreePacker {
 public:
  using Entry = typename RTree<D, Aug>::Entry;
  using Node = typename RTree<D, Aug>::Node;

  TreePacker(uint64_t entry_count, uint32_t max_entries, double fill)
      : entry_count_(entry_count),
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
    buffers_.resize(level_base_.size());
    closed_.assign(level_base_.size(), 0);
  }

  [[nodiscard]] uint64_t node_count() const { return node_count_; }
  [[nodiscard]] uint32_t height() const {
    return static_cast<uint32_t>(level_base_.size());
  }
  [[nodiscard]] NodeId root() const {
    return node_count_ == 0 ? kInvalidNodeId
                            : static_cast<NodeId>(node_count_ - 1);
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
    for (uint32_t level = 0; level < buffers_.size(); ++level) {
      if (!buffers_[level].empty()) CloseNode(level, sink);
    }
  }

 private:
  template <typename Sink>
  void PushEntry(uint32_t level, Entry e, const Sink& sink) {
    std::vector<Entry>& buf = buffers_[level];
    if (buf.empty()) buf.reserve(per_node_);
    buf.push_back(std::move(e));
    if (buf.size() == per_node_) CloseNode(level, sink);
  }

  template <typename Sink>
  void CloseNode(uint32_t level, const Sink& sink) {
    std::vector<Entry>& buf = buffers_[level];
    const auto id = static_cast<NodeId>(level_base_[level] + closed_[level]++);
    Entry parent = RTree<D, Aug>::Summarize(id, buf);
    sink(id, Node{static_cast<uint16_t>(level), std::move(buf)});
    buf.clear();
    if (level + 1 < buffers_.size()) {
      PushEntry(level + 1, std::move(parent), sink);
    }
  }

  uint64_t entry_count_;
  uint32_t per_node_;
  uint64_t node_count_ = 0;
  uint64_t added_ = 0;
  std::vector<uint64_t> level_base_;  ///< first node id of each level
  std::vector<uint64_t> closed_;      ///< nodes closed so far per level
  std::vector<std::vector<Entry>> buffers_;  ///< open node per level
};

template <int D, typename Aug>
void RTree<D, Aug>::BulkLoadSorted(const std::vector<Entry>& sorted_records,
                                   double fill) {
  TreePacker<D, Aug> packer(sorted_records.size(), options_.max_entries,
                            fill);
  nodes_.assign(packer.node_count(), Node{});
  path_.clear();
  const auto store = [this](NodeId id, Node&& node) {
    nodes_[id] = std::move(node);
  };
  for (const Entry& e : sorted_records) packer.Add(e, store);
  packer.Finish(store);
  root_ = packer.root();
  height_ = packer.height();
  size_ = sorted_records.size();
}

}  // namespace stpq

#endif  // STPQ_RTREE_BULK_LOAD_H_
