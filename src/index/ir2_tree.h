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
#include "rtree/node_page.h"
#include "rtree/rtree.h"
#include "text/signature.h"

namespace stpq {

/// Entry augmentation of the IR2-tree: max score + keyword signature.
struct Ir2Aug {
  double max_score = 0.0;
  Signature signature;

  /// The keyword column of the entry's page.
  const std::vector<uint64_t>& words() const { return signature.words(); }

  static Ir2Aug Merge(const Ir2Aug& a, const Ir2Aug& b) {
    Ir2Aug out{std::max(a.max_score, b.max_score), a.signature};
    out.signature.UnionWith(b.signature);
    return out;
  }
};

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

  NodeId RootId() const override { return tree_.root_id(); }
  NodeVisit VisitChildren(BufferPool* pool, NodeId node_id,
                          const KeywordSet& query_kw, double lambda,
                          std::vector<FeatureBranch>* out) const override;
  void TouchNode(BufferPool* pool, NodeId node_id) const override {
    static_cast<void>(tree_.ReadNode(pool, node_id));
  }
  const FeatureTable& table() const override { return *table_; }
  const char* Name() const override { return "IR2"; }

  /// The index's pages (tests, validators, Save).
  const PagedTree& tree() const { return tree_; }
  const SignatureScheme& scheme() const { return scheme_; }

  /// Signature width: `configured_bits`, or when 0, scaled to the keyword
  /// universe so larger vocabularies keep their selectivity (the paper's
  /// Fig 7(d) sees node capacity drop with more indexed keywords).
  static uint32_t SignatureBits(uint32_t configured_bits,
                                uint32_t universe_size);

  /// Fan-out on a page of `page_size` bytes: an entry charges the 2-D
  /// rect, the id, e.s and the signature's bytes.
  static uint32_t FanOut(uint32_t page_size, uint32_t signature_bits);

  /// Page columns: the signature, e.s and the 2-D rect.
  static PageLayout Layout(uint32_t signature_bits) {
    return PageLayout{signature_bits, /*has_score=*/true};
  }

  /// Leaf entry of feature `f` stored under record id `id`: its location,
  /// with e.s = t.s and the signature of t.W under `scheme`.
  static TreeEntry<2, Ir2Aug> LeafEntry(uint32_t id, const FeatureObject& f,
                                        const SignatureScheme& scheme);

  /// Mutable pages for deliberate-corruption invariant tests only.
  [[nodiscard]] PagedTree& mutable_tree_for_test() { return tree_; }

 private:
  const FeatureTable* table_;
  SignatureScheme scheme_;
  PagedTree tree_;
};

}  // namespace stpq

#endif  // STPQ_INDEX_IR2_TREE_H_
