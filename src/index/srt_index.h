// The SRT-index (Section 4): an R-tree over the mapped 4-D space
// (x, y, t.s, H(t.W)) whose entries keep the max descendant score and the
// aggregated Hilbert value of all descendant keywords.
//
// Because the index clusters by spatial location, score AND textual
// description simultaneously, the bound
//   s-hat(e) = (1-lambda) * e.s + lambda * |e.W n W| / |W|
// is tight, which is what makes STPS's sorted feature retrieval cheap.
#ifndef STPQ_INDEX_SRT_INDEX_H_
#define STPQ_INDEX_SRT_INDEX_H_

#include <memory>
#include <vector>

#include "hilbert/keyword_hilbert.h"
#include "index/feature_index.h"
#include "rtree/rtree.h"

namespace stpq {

/// How a feature index organizes its records at build time.
enum class BulkLoadKind {
  kHilbert,  ///< Hilbert-sort packing (Kamel & Faloutsos [9]; the paper's choice)
  kStr,      ///< Sort-Tile-Recursive packing (spatial-only; ablation)
  kInsert,   ///< one-at-a-time Guttman insertion (ablation/testing)
};

/// Build-time knobs shared by the feature indexes.
struct FeatureIndexOptions {
  uint32_t page_size_bytes = kDefaultPageSizeBytes;
  BufferPool* buffer_pool = nullptr;
  PageId page_base = 0;
  BulkLoadKind bulk_load = BulkLoadKind::kHilbert;
  double fill = 1.0;  ///< target node occupancy for bulk loading
  /// IR2-tree only: signature width in bits (0 = 2x the keyword universe).
  uint32_t signature_bits = 0;
  /// IR2-tree only: bits set per keyword.
  uint32_t signature_hashes = 3;
  /// Position of this index's feature set in the engine's table order
  /// (traversal-profile attribution; see FeatureIndex::set_ordinal).
  uint32_t set_ordinal = 0;
};

/// Entry augmentation of the SRT-index: e.s and H(e.W) of Section 4.1.
///
/// The aggregated Hilbert value is what the paper's node entry stores (and
/// what the fan-out accounting charges); `keywords` caches its decoded
/// form so query-time bound computation skips the per-visit decode — the
/// two are kept consistent by construction (Merge re-derives the cache
/// through the Hilbert aggregation path, exactly as Section 4.2 updates
/// node values).
struct SrtAug {
  double max_score = 0.0;
  HilbertValue keyword_hilbert;
  KeywordSet keywords;

  static SrtAug Merge(const SrtAug& a, const SrtAug& b) {
    HilbertValue merged = AggregateHilbert(a.keyword_hilbert,
                                           b.keyword_hilbert,
                                           a.keyword_hilbert.bits());
    KeywordSet decoded = DecodeKeywords(merged, a.keywords.universe_size());
    return SrtAug{std::max(a.max_score, b.max_score), std::move(merged),
                  std::move(decoded)};
  }
};

/// The SRT-index over one feature set.
class SrtIndex : public FeatureIndex {
 public:
  /// Builds the index over `table` (not owned; must outlive the index).
  SrtIndex(const FeatureTable* table, const FeatureIndexOptions& options);

  /// Restores a persisted index (storage/index_file.*): adopts the
  /// deserialized tree instead of bulk loading, so node ids — and the
  /// golden I/O counts derived from them — match the builder exactly.
  /// `options` must carry the build-time parameters recorded in the file.
  SrtIndex(const FeatureTable* table, const FeatureIndexOptions& options,
           RestoredTreeData<4, SrtAug> restored);

  NodeId RootId() const override;
  uint16_t NodeLevel(NodeId node_id) const override {
    return tree_.PeekNode(node_id).level;
  }
  void VisitChildren(NodeId node_id, const KeywordSet& query_kw,
                     double lambda,
                     std::vector<FeatureBranch>* out) const override;
  void TouchNode(NodeId node_id) const override { tree_.ReadNode(node_id); }
  const FeatureTable& table() const override { return *table_; }
  BufferPool* buffer_pool() const override;
  const char* Name() const override { return "SRT"; }

  /// Fan-out on a page of `page_size` bytes: an entry charges the 4-D
  /// rect, the id, e.s and the aggregated Hilbert value of the universe.
  static uint32_t FanOut(uint32_t page_size, uint32_t universe_size);

  /// Leaf entry of feature `f` stored under record id `id`: the mapped
  /// 4-D point {x, y, t.s, H(t.W)} of Section 4.2, with e.s = t.s and
  /// e.W = t.W.
  static RTree<4, SrtAug>::Entry LeafEntry(uint32_t id,
                                           const FeatureObject& f);

  /// Underlying tree (tests and ablations).
  const RTree<4, SrtAug>& tree() const { return tree_; }

  /// How the tree was packed; ValidateSrtIndex checks the Hilbert leaf
  /// order only for kHilbert builds.
  [[nodiscard]] BulkLoadKind build_kind() const { return build_kind_; }

  /// Mutable tree access for deliberate-corruption invariant tests only.
  [[nodiscard]] RTree<4, SrtAug>& mutable_tree_for_test() { return tree_; }

 private:
  const FeatureTable* table_;
  BulkLoadKind build_kind_;
  RTree<4, SrtAug> tree_;
};

}  // namespace stpq

#endif  // STPQ_INDEX_SRT_INDEX_H_
