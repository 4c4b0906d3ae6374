// FeatureIndex: the common abstraction over the paper's feature indexes.
//
// Section 4.1: any hierarchical spatio-textual index works, provided each
// entry e maintains (i) the max non-spatial score e.s below it and (ii) a
// keyword summary e.W, so that a query-time bound s-hat(e) >= s(t) holds
// for every descendant feature t.  STDS's score computation (Algorithm 2)
// and STPS's sorted feature retrieval (Algorithm 4) are written once against
// this interface; the SRT-index and the modified IR2-tree implement it.
#ifndef STPQ_INDEX_FEATURE_INDEX_H_
#define STPQ_INDEX_FEATURE_INDEX_H_

#include <cstdint>
#include <vector>

#include "geom/rect.h"
#include "index/build_params.h"
#include "index/feature_table.h"
#include "index/paged_tree.h"
#include "rtree/rtree.h"

namespace stpq {

/// One child of a visited index node, with everything the algorithms need:
/// spatial extent for distance pruning, the score bound s-hat(e) for
/// priority ordering, and the textual sim-may-be-positive filter.
struct FeatureBranch {
  uint32_t id = 0;        ///< feature id if is_feature, else child node id
  bool is_feature = false;
  Rect2 mbr;              ///< spatial MBR (degenerate point for features)
  double score_bound = 0.0;  ///< s-hat(e); exact s(t) for features
  bool text_match = false;   ///< whether sim(., W) may be > 0
};

/// What evaluating one node reports besides its children.
struct NodeVisit {
  uint16_t level = 0;        ///< tree level of the node (0 = leaf)
  uint32_t text_pruned = 0;  ///< entries no query keyword can occur below
};

/// Read-only hierarchical access to one indexed feature set.
class FeatureIndex {
 public:
  virtual ~FeatureIndex() = default;

  /// The index's node pages.  A query reads them through its pool, which
  /// the relevant-children memo (core/scratch.h) does for it.
  virtual const PagedTree& tree() const = 0;

  /// Root node id, or kInvalidNodeId for an empty index.
  NodeId RootId() const { return tree().root_id(); }

  /// Evaluates `node`, a node of this index that the caller read, against
  /// the query keywords `query_kw` and the smoothing parameter `lambda`:
  /// appends to `out` (without clearing it) the children whose text may
  /// match, with their score bounds, and returns the node's level and how
  /// many entries it dropped.  The node is read in place from its page,
  /// keyword column first, so a dropped entry costs only its keyword
  /// words.
  virtual NodeVisit EvaluateNode(const NodeView& node,
                                 const KeywordSet& query_kw, double lambda,
                                 std::vector<FeatureBranch>* out) const = 0;

  /// The record store this index was built over.
  virtual const FeatureTable& table() const = 0;

  /// Human-readable index name ("SRT", "IR2"), for benchmark labels.
  virtual const char* Name() const = 0;

  /// Position of this index's feature set in the engine's table order;
  /// addresses the per-set slice of TraversalProfile.  0 for standalone
  /// indexes built outside an engine.
  uint32_t set_ordinal() const { return set_ordinal_; }

  /// First page id of feature index `set_ordinal`'s pages: tree
  /// set_ordinal + 1 of the engine's page-id namespace (TreePageBase).
  static PageId PageBase(uint32_t set_ordinal) {
    return TreePageBase(uint64_t{set_ordinal} + 1);
  }

 protected:
  explicit FeatureIndex(uint32_t set_ordinal) : set_ordinal_(set_ordinal) {}

 private:
  uint32_t set_ordinal_ = 0;
};

}  // namespace stpq

#endif  // STPQ_INDEX_FEATURE_INDEX_H_
