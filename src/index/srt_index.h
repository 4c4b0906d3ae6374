// The SRT-index (Section 4): an R-tree over the mapped 4-D space
// (x, y, t.s, H(t.W)) whose entries keep the max descendant score and the
// aggregated Hilbert value of all descendant keywords.  Its pages keep
// only what queries read: e.s, e.W, the id and the 2-D MBR (DESIGN.md §3).
//
// Because the index clusters by spatial location, score AND textual
// description simultaneously, the bound
//   s-hat(e) = (1-lambda) * e.s + lambda * |e.W n W| / |W|
// is tight, which is what makes STPS's sorted feature retrieval cheap.
#ifndef STPQ_INDEX_SRT_INDEX_H_
#define STPQ_INDEX_SRT_INDEX_H_

#include <algorithm>
#include <vector>

#include "index/feature_index.h"
#include "index/paged_tree.h"
#include "rtree/node_page.h"
#include "rtree/rtree.h"

namespace stpq {

/// Entry augmentation of the SRT-index: e.s and e.W of Section 4.1.
///
/// The paper's node entry stores the aggregated Hilbert value H(e.W); the
/// order-1 mapping of Section 4.2 is a bijection onto ⌈U/64⌉ words, so the
/// page stores e.W itself as its keyword bitmap at the same width, and
/// EncodeKeywords re-derives H(e.W) wherever the build (the leaf's 4th
/// coordinate) or a validator needs it.  Aggregation is the union the
/// Hilbert update of Section 4.2 computes (decode, OR, re-encode).
struct SrtAug {
  double max_score = 0.0;
  KeywordSet keywords;

  /// The keyword column of the entry's page.
  const std::vector<uint64_t>& words() const { return keywords.blocks(); }

  static SrtAug Merge(const SrtAug& a, const SrtAug& b) {
    SrtAug out{std::max(a.max_score, b.max_score), a.keywords};
    out.keywords.UnionWith(b.keywords);
    return out;
  }
};

/// The SRT-index over one feature set.
class SrtIndex : public FeatureIndex {
 public:
  /// Builds the index over `table` (not owned; must outlive the index)
  /// into pages of its own, as feature set `set_ordinal` (its page ids
  /// start at PageBase(set_ordinal)).
  SrtIndex(const FeatureTable* table, const IndexBuildParams& params,
           uint32_t set_ordinal = 0);

  /// Reads a packed tree (Pack, or a .stpqx file) whose pages `pages`
  /// serves at PageBase(set_ordinal), so node ids — and the golden I/O
  /// counts derived from them — match the builder exactly.  The page
  /// layout follows from the table's universe alone.  The pages are taken
  /// as given (ValidateSrtIndex checks them deeply).
  SrtIndex(const FeatureTable* table, uint32_t set_ordinal, TreeMeta meta,
           const PageStore* pages);

  /// Packs the index over `table` into node pages (build time).
  static TreeImage Pack(const FeatureTable& table,
                        const IndexBuildParams& params);

  const PagedTree& tree() const override { return tree_; }
  NodeVisit EvaluateNode(const NodeView& node, const KeywordSet& query_kw,
                         double lambda,
                         std::vector<FeatureBranch>* out) const override;
  const FeatureTable& table() const override { return *table_; }
  const char* Name() const override { return "SRT"; }

  /// Fan-out on a page of `page_size` bytes: an entry charges the 2-D
  /// MBR, the id, e.s and the aggregated Hilbert value of the universe.
  static uint32_t FanOut(uint32_t page_size, uint32_t universe_size);

  /// Page columns: e.W over the universe, e.s, and the 2-D MBR.
  static PageLayout Layout(uint32_t universe_size) {
    return PageLayout{universe_size, /*has_score=*/true};
  }

  /// Leaf entry of feature `f` stored under record id `id`: the mapped
  /// 4-D point {x, y, t.s, H(t.W)} of Section 4.2, with e.s = t.s and
  /// e.W = t.W.  The point is the Hilbert sort key; pages keep (x, y).
  static TreeEntry<4, SrtAug> LeafEntry(uint32_t id, const FeatureObject& f);

  /// Mutable pages for deliberate-corruption invariant tests only.
  [[nodiscard]] PagedTree& mutable_tree_for_test() { return tree_; }

 private:
  const FeatureTable* table_;
  PagedTree tree_;
};

}  // namespace stpq

#endif  // STPQ_INDEX_SRT_INDEX_H_
