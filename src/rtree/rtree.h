// R-tree substrate: the one entry and node type of every build, and the
// parent-summary fold.
//
// Both of the paper's feature indexes are R-trees in disguise:
//   * the SRT-index (Section 4) is packed in the Hilbert order of the
//     mapped 4-D points (x, y, t.s, H(t.W)) and its entries carry
//     {max score, aggregated keywords};
//   * the modified IR2-tree (Section 8) is a 2-D R-tree whose entries carry
//     {max score, keyword signature};
//   * the object index ("rtree" in the paper) is a plain 2-D R-tree.
// Every tree is built from the entry its node page stores (PageEntry): the
// 2-D MBR, the id, and for the feature trees e.s and the keyword column.
// A tree is built one way: its leaf entries are sorted by the Hilbert key
// of their sort points and packed bottom-up straight into node pages
// (rtree/bulk_load.h, rtree/node_page.h); every reader reads the pages.
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

/// Minimum entries per node: 40% of the fan-out, at least 2.  The packer
/// never packs fewer per node, whatever the fill.
inline uint32_t MinEntries(uint32_t max_entries) {
  return std::max<uint32_t>(2, static_cast<uint32_t>(max_entries * 0.4));
}

/// One entry as its node page stores it.  The object tree keeps only the
/// MBR and the id; a feature tree's entry also carries e.s and e.W (the
/// SRT-index's keyword bitmap, the IR2-tree's signature) as the words of
/// its keyword column, keyword_words() of them (rtree/node_page.h).
struct PageEntry {
  Rect2 mbr;
  uint32_t id = 0;  ///< child NodeId (internal) or caller's record id (leaf)
  double score = 0.0;
  std::vector<uint64_t> keywords;
};

/// A node as the packer closes it, before it is encoded into its page.
struct PageNode {
  uint16_t level = 0;  ///< 0 = leaf
  std::vector<PageEntry> entries;
};

/// Parent entry for a node holding `entries` under id `id`: the MBR union,
/// the max score and the OR of the keyword columns, folded left to right
/// (e.s and e.W of Section 4.1 are exactly such summaries).
inline PageEntry Summarize(NodeId id, const std::vector<PageEntry>& entries) {
  STPQ_DCHECK(!entries.empty());
  PageEntry out = entries.front();
  out.id = id;
  for (size_t i = 1; i < entries.size(); ++i) {
    const PageEntry& e = entries[i];
    out.mbr.Enlarge(e.mbr);
    out.score = std::max(out.score, e.score);
    STPQ_DCHECK(e.keywords.size() == out.keywords.size());
    for (size_t w = 0; w < out.keywords.size(); ++w) {
      out.keywords[w] |= e.keywords[w];
    }
  }
  return out;
}

}  // namespace stpq

#endif  // STPQ_RTREE_RTREE_H_
