#include "index/index_stats.h"

#include <algorithm>
#include <sstream>
#include <vector>

namespace stpq {

namespace {

/// Shared traversal over the index's pages; leaf entry ids are feature ids.
IndexStatsReport Analyze(const PagedTree& tree, const FeatureTable& table) {
  IndexStatsReport out;
  out.height = tree.height();
  out.node_count = tree.node_count();
  out.record_count = tree.size();
  out.fan_out = tree.max_entries();
  if (tree.root_id() == kInvalidNodeId) return out;

  double fill_sum = 0, spread_sum = 0, kw_sum = 0, margin_sum = 0;
  std::vector<NodeId> stack{tree.root_id()};
  while (!stack.empty()) {
    NodeId nid = stack.back();
    stack.pop_back();
    const NodeView node = tree.PeekNode(nid);
    if (!node.IsLeaf()) {
      for (uint32_t i = 0; i < node.size(); ++i) stack.push_back(node.id(i));
      continue;
    }
    ++out.leaf_count;
    fill_sum += static_cast<double>(node.size()) / out.fan_out;
    double lo = 1e18, hi = -1e18;
    KeywordSet kw(table.universe_size());
    Rect2 mbr = Rect2::Empty();
    for (uint32_t i = 0; i < node.size(); ++i) {
      const FeatureObject& t = table.Get(node.id(i));
      lo = std::min(lo, t.score);
      hi = std::max(hi, t.score);
      kw.UnionWith(t.keywords);
      mbr.EnlargePoint({t.pos.x, t.pos.y});
    }
    spread_sum += hi - lo;
    kw_sum += kw.Count();
    margin_sum += mbr.Margin();
  }
  if (out.leaf_count > 0) {
    out.avg_leaf_fill = fill_sum / out.leaf_count;
    out.avg_leaf_score_spread = spread_sum / out.leaf_count;
    out.avg_leaf_keyword_count = kw_sum / out.leaf_count;
    out.avg_leaf_spatial_margin = margin_sum / out.leaf_count;
  }
  return out;
}

}  // namespace

std::string IndexStatsReport::ToString() const {
  std::ostringstream os;
  os << "height=" << height << " nodes=" << node_count
     << " leaves=" << leaf_count << " records=" << record_count
     << " fanout=" << fan_out << " fill=" << avg_leaf_fill
     << " score_spread=" << avg_leaf_score_spread
     << " leaf_keywords=" << avg_leaf_keyword_count
     << " leaf_margin=" << avg_leaf_spatial_margin;
  return os.str();
}

IndexStatsReport AnalyzeIndex(const SrtIndex& index) {
  return Analyze(index.tree(), index.table());
}

IndexStatsReport AnalyzeIndex(const Ir2Tree& index) {
  return Analyze(index.tree(), index.table());
}

}  // namespace stpq
