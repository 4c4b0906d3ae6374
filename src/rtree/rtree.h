// R-tree substrate: entry and node types, fan-out sizing, and the
// parent-summary fold with pluggable entry augmentation.
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
// Every tree is built one way: its leaf entries are sorted by Hilbert key
// and packed bottom-up straight into node pages (rtree/bulk_load.h,
// rtree/node_page.h); every reader reads the pages.
#ifndef STPQ_RTREE_RTREE_H_
#define STPQ_RTREE_RTREE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
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

/// Fan-out of a node stored on a page of `page_bytes`, with entries of
/// 2*D*8 rect bytes + 4 id bytes + `aug_bytes` augmentation bytes.
inline uint32_t FanOutForPage(uint32_t page_bytes, int dims,
                              uint32_t aug_bytes) {
  uint32_t entry_bytes = 2u * dims * 8u + 4u + aug_bytes;
  uint32_t header_bytes = 16;  // level, count, page metadata
  uint32_t fanout = (page_bytes - header_bytes) / entry_bytes;
  return std::max(fanout, 4u);
}

/// Minimum entries per node: 40% of the fan-out, at least 2.  The packer
/// never packs fewer per node, whatever the fill.
inline uint32_t MinEntries(uint32_t max_entries) {
  return std::max<uint32_t>(2, static_cast<uint32_t>(max_entries * 0.4));
}

/// One entry of a D-dimensional R-tree node with Aug augmentation.  Aug
/// must provide `static Aug Merge(const Aug&, const Aug&)`.
template <int D, typename Aug = NoAug>
struct TreeEntry {
  Rect<D> rect;
  uint32_t id;  ///< child NodeId (internal) or caller's record id (leaf)
  Aug aug;
};

/// A node as the packer closes it, before it is encoded into its page.
template <int D, typename Aug = NoAug>
struct TreeNode {
  uint16_t level = 0;  ///< 0 = leaf
  std::vector<TreeEntry<D, Aug>> entries;
};

/// Parent entry for a node holding `entries` under id `id`: MBR union and
/// Aug merge, folded left to right.
template <int D, typename Aug>
TreeEntry<D, Aug> Summarize(NodeId id,
                            const std::vector<TreeEntry<D, Aug>>& entries) {
  STPQ_DCHECK(!entries.empty());
  TreeEntry<D, Aug> out;
  out.id = id;
  out.rect = entries.front().rect;
  out.aug = entries.front().aug;
  for (size_t i = 1; i < entries.size(); ++i) {
    out.rect.Enlarge(entries[i].rect);
    out.aug = Aug::Merge(out.aug, entries[i].aug);
  }
  return out;
}

}  // namespace stpq

#endif  // STPQ_RTREE_RTREE_H_
