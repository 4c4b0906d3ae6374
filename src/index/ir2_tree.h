// The modified IR2-tree baseline (Section 8).
//
// Felipe et al.'s IR2-tree [8] combines an R-tree with signature files; the
// paper modifies it for preference queries by storing, per leaf, the
// feature's non-spatial score, and per internal entry the max enclosed
// score.  The s-hat(e) bound uses the signature's (over-)estimate of
// |e.W n W|, which is a valid upper bound because signatures admit false
// positives but never false negatives.
#ifndef STPQ_INDEX_IR2_TREE_H_
#define STPQ_INDEX_IR2_TREE_H_

#include <vector>

#include "index/feature_index.h"
#include "index/paged_tree.h"
#include "rtree/bulk_load.h"
#include "rtree/node_page.h"
#include "rtree/rtree.h"
#include "text/signature.h"

namespace stpq {

/// The modified IR2-tree over one feature set.
class Ir2Tree : public FeatureIndex {
 public:
  /// Builds the index over `table` (not owned; must outlive the index)
  /// into pages of its own, as feature set `set_ordinal`; see the SrtIndex
  /// counterpart.
  Ir2Tree(const FeatureTable* table, const IndexBuildParams& params,
          uint32_t set_ordinal = 0);

  /// Reads a packed tree whose pages `pages` serves; see the SrtIndex
  /// counterpart.  The signature scheme is re-derived from `params` and
  /// the table's universe, which the file format records.
  Ir2Tree(const FeatureTable* table, const IndexBuildParams& params,
          uint32_t set_ordinal, TreeMeta meta, const PageStore* pages);

  /// Packs the index over `table` into node pages (build time).
  static TreeImage Pack(const FeatureTable& table,
                        const IndexBuildParams& params);

  const PagedTree& tree() const override { return tree_; }
  NodeVisit EvaluateNode(const NodeView& node, const KeywordSet& query_kw,
                         double lambda,
                         std::vector<FeatureBranch>* out) const override;
  const FeatureTable& table() const override { return *table_; }
  const char* Name() const override { return "IR2"; }
  const SignatureScheme& scheme() const { return scheme_; }

  /// Signature width: `configured_bits`, or when 0, scaled to the keyword
  /// universe so larger vocabularies keep their selectivity (the paper's
  /// Fig 7(d) sees node capacity drop with more indexed keywords).
  static uint32_t SignatureBits(uint32_t configured_bits,
                                uint32_t universe_size);

  /// Page columns: the signature, e.s and the 2-D rect.
  static PageLayout Layout(uint32_t signature_bits) {
    return PageLayout{signature_bits, /*has_score=*/true};
  }

  /// Leaf entry of feature `f` stored under record id `id`: its location,
  /// with e.s = t.s and the signature of t.W under `scheme`.
  static PageEntry LeafEntry(uint32_t id, const FeatureObject& f,
                             const SignatureScheme& scheme) {
    return PageEntry{PointRect(f.pos), id, f.score,
                     scheme.SetSignature(f.keywords).words()};
  }

  /// Hilbert sort point of feature `f`: its location (the IR2-tree
  /// clusters by location only).
  static SortPoint LeafSortPoint(const FeatureObject& f) {
    return SpatialSortPoint(f.pos);
  }

  /// Mutable pages for deliberate-corruption invariant tests only.
  [[nodiscard]] PagedTree& mutable_tree_for_test() { return tree_; }

 private:
  const FeatureTable* table_;
  SignatureScheme scheme_;
  PagedTree tree_;
};

}  // namespace stpq

#endif  // STPQ_INDEX_IR2_TREE_H_
