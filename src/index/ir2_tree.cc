#include "index/ir2_tree.h"

#include "debug/validate.h"
#include "rtree/bulk_load.h"

namespace stpq {

uint32_t Ir2Tree::SignatureBits(uint32_t configured_bits,
                                uint32_t universe_size) {
  return configured_bits != 0 ? configured_bits
                              : std::max(64u, 2 * universe_size);
}

uint32_t Ir2Tree::FanOut(uint32_t page_size, uint32_t signature_bits) {
  return FanOutForPage(page_size, 2, 8 + signature_bits / 8);
}

TreeEntry<2, Ir2Aug> Ir2Tree::LeafEntry(uint32_t id, const FeatureObject& f,
                                        const SignatureScheme& scheme) {
  return {PointRect(f.pos), id,
          Ir2Aug{f.score, scheme.SetSignature(f.keywords)}};
}

TreeImage Ir2Tree::Pack(const FeatureTable& table,
                        const IndexBuildParams& params) {
  const uint32_t bits =
      SignatureBits(params.signature_bits, table.universe_size());
  const SignatureScheme scheme(bits, params.signature_hashes);
  std::vector<TreeEntry<2, Ir2Aug>> records;
  records.reserve(table.size());
  for (const FeatureObject& f : table.All()) {
    records.push_back(LeafEntry(f.id, f, scheme));
  }
  // Spatial-only Hilbert packing: the IR2-tree clusters by location.
  SortByHilbertKey(&records);
  return PackTree(std::move(records), FanOut(params.page_size_bytes, bits),
                  params.fill, Layout(bits), params.page_size_bytes);
}

Ir2Tree::Ir2Tree(const FeatureTable* table, const IndexBuildParams& params,
                 uint32_t set_ordinal)
    : FeatureIndex(set_ordinal),
      table_(table),
      scheme_(SignatureBits(params.signature_bits, table->universe_size()),
              params.signature_hashes),
      tree_(Pack(*table, params), Layout(scheme_.signature_bits()),
            PageBase(set_ordinal)) {
  STPQ_VALIDATE(ValidateIr2Tree(*this));
}

Ir2Tree::Ir2Tree(const FeatureTable* table, const IndexBuildParams& params,
                 uint32_t set_ordinal, TreeMeta meta, const PageStore* pages)
    : FeatureIndex(set_ordinal),
      table_(table),
      scheme_(SignatureBits(params.signature_bits, table->universe_size()),
              params.signature_hashes),
      tree_(std::move(meta), Layout(scheme_.signature_bits()), pages,
            PageBase(set_ordinal)) {}

NodeVisit Ir2Tree::VisitChildren(BufferPool* pool, NodeId node_id,
                                 const KeywordSet& query_kw, double lambda,
                                 std::vector<FeatureBranch>* out) const {
  const NodeView node = tree_.ReadNode(pool, node_id);
  const uint32_t query_count = query_kw.Count();
  const bool leaf = node.IsLeaf();
  NodeVisit visit{node.level(), 0};
  for (uint32_t i = 0; i < node.size(); ++i) {
    // The signature column decides first.  Signatures admit false
    // positives but never false negatives, so a leaf whose signature
    // covers no query keyword has sim = 0 and is dropped unread.
    const uint8_t* signature = node.keyword_bytes(i);
    FeatureBranch b;
    b.is_feature = leaf;
    if (leaf) {
      if (!scheme_.MayIntersect(signature, query_kw)) {
        ++visit.text_pruned;
        continue;
      }
      b.id = node.id(i);
      const FeatureObject& f = table_->Get(b.id);
      const double sim = f.keywords.Jaccard(query_kw);
      b.text_match = sim > 0.0;
      b.score_bound = (1.0 - lambda) * f.score + lambda * sim;
    } else {
      const uint32_t inter =
          scheme_.UpperBoundIntersect(signature, query_kw);
      b.text_match = inter > 0;
      if (b.text_match) {
        const double text_bound =
            query_count > 0 ? static_cast<double>(inter) /
                                  static_cast<double>(query_count)
                            : 0.0;
        b.id = node.id(i);
        b.score_bound =
            (1.0 - lambda) * node.score(i) + lambda * text_bound;
      }
    }
    if (!b.text_match) {
      ++visit.text_pruned;
      continue;
    }
    b.mbr = node.mbr(i);
    out->push_back(b);
  }
  return visit;
}

}  // namespace stpq
