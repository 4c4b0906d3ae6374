// Index introspection: structural statistics of a built feature index.
//
// Quantifies *why* the SRT-index helps: its leaves have smaller score
// spreads and fewer distinct keywords than spatial-only leaves, which
// makes the s-hat(e) bounds tight (Section 4.2's clustering argument).
// Only the tests call it (api_test checks the SRT-vs-IR2 leaf statistics).
#ifndef STPQ_INDEX_INDEX_STATS_H_
#define STPQ_INDEX_INDEX_STATS_H_

#include <cstdint>
#include <string>

#include "index/ir2_tree.h"
#include "index/srt_index.h"

namespace stpq {

/// Structural report over one feature index.
struct IndexStatsReport {
  uint32_t height = 0;
  uint32_t node_count = 0;
  uint32_t leaf_count = 0;
  uint64_t record_count = 0;
  uint32_t fan_out = 0;             ///< max entries per node
  double avg_leaf_fill = 0.0;       ///< mean entries/fan_out over leaves
  double avg_leaf_score_spread = 0.0;   ///< mean (max t.s - min t.s) per leaf
  double avg_leaf_keyword_count = 0.0;  ///< mean |union of leaf keywords|
  double avg_leaf_spatial_margin = 0.0; ///< mean spatial MBR margin per leaf

  std::string ToString() const;
};

/// Analyzes an SRT-index.
IndexStatsReport AnalyzeIndex(const SrtIndex& index);

/// Analyzes a modified IR2-tree.
IndexStatsReport AnalyzeIndex(const Ir2Tree& index);

}  // namespace stpq

#endif  // STPQ_INDEX_INDEX_STATS_H_
