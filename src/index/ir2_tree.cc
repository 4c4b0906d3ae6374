#include "index/ir2_tree.h"

#include "debug/validate.h"
#include "rtree/bulk_load.h"

namespace stpq {

namespace {

RTreeOptions MakeTreeOptions(const FeatureIndexOptions& opts,
                             uint32_t signature_bits) {
  RTreeOptions t;
  t.max_entries = Ir2Tree::FanOut(opts.page_size_bytes, signature_bits);
  t.buffer_pool = opts.buffer_pool;
  t.page_base = opts.page_base;
  return t;
}

}  // namespace

uint32_t Ir2Tree::SignatureBits(uint32_t configured_bits,
                                uint32_t universe_size) {
  return configured_bits != 0 ? configured_bits
                              : std::max(64u, 2 * universe_size);
}

uint32_t Ir2Tree::FanOut(uint32_t page_size, uint32_t signature_bits) {
  return FanOutForPage(page_size, 2, 8 + signature_bits / 8);
}

RTree<2, Ir2Aug>::Entry Ir2Tree::LeafEntry(uint32_t id, const FeatureObject& f,
                                           const SignatureScheme& scheme) {
  return {PointRect(f.pos), id,
          Ir2Aug{f.score, scheme.SetSignature(f.keywords)}};
}

Ir2Tree::Ir2Tree(const FeatureTable* table, const FeatureIndexOptions& options)
    : FeatureIndex(options.set_ordinal),
      table_(table),
      scheme_(SignatureBits(options.signature_bits, table->universe_size()),
              options.signature_hashes),
      tree_(MakeTreeOptions(options, scheme_.signature_bits())) {
  using Entry = RTree<2, Ir2Aug>::Entry;
  std::vector<Entry> records;
  records.reserve(table_->size());
  for (const FeatureObject& f : table_->All()) {
    records.push_back(LeafEntry(f.id, f, scheme_));
  }
  switch (options.bulk_load) {
    case BulkLoadKind::kHilbert: {
      // Spatial-only Hilbert packing: the IR2-tree clusters by location.
      Rect2 domain = ComputeDomain<2, Ir2Aug>(records);
      SortByHilbertKey<2, Ir2Aug>(&records, domain);
      tree_.BulkLoadSorted(records, options.fill);
      break;
    }
    case BulkLoadKind::kStr: {
      SortSTR<2, Ir2Aug>(&records, tree_.options().max_entries);
      tree_.BulkLoadSorted(records, options.fill);
      break;
    }
    case BulkLoadKind::kInsert: {
      for (const Entry& r : records) tree_.Insert(r.rect, r.id, r.aug);
      break;
    }
  }
  STPQ_VALIDATE(ValidateIr2Tree(*this));
}

Ir2Tree::Ir2Tree(const FeatureTable* table,
                 const FeatureIndexOptions& options,
                 RestoredTreeData<2, Ir2Aug> restored)
    : FeatureIndex(options.set_ordinal),
      table_(table),
      scheme_(SignatureBits(options.signature_bits, table->universe_size()),
              options.signature_hashes),
      tree_(MakeTreeOptions(options, scheme_.signature_bits())) {
  AdoptRestoredTree(&tree_, std::move(restored));
  STPQ_VALIDATE(ValidateIr2Tree(*this));
}

NodeId Ir2Tree::RootId() const { return tree_.root_id(); }

BufferPool* Ir2Tree::buffer_pool() const {
  return tree_.options().buffer_pool;
}

void Ir2Tree::VisitChildren(NodeId node_id, const KeywordSet& query_kw,
                            double lambda,
                            std::vector<FeatureBranch>* out) const {
  out->clear();
  const RTree<2, Ir2Aug>::Node& node = tree_.ReadNode(node_id);
  const uint32_t query_count = query_kw.Count();
  out->reserve(node.entries.size());
  for (const auto& e : node.entries) {
    FeatureBranch b;
    b.id = e.id;
    b.is_feature = node.IsLeaf();
    b.mbr = e.rect;
    if (b.is_feature) {
      const FeatureObject& f = table_->Get(e.id);
      double sim = f.keywords.Jaccard(query_kw);
      b.score_bound = (1.0 - lambda) * f.score + lambda * sim;
      b.text_match = sim > 0.0;
    } else {
      uint32_t inter = scheme_.UpperBoundIntersect(e.aug.signature, query_kw);
      double text_bound =
          query_count > 0
              ? static_cast<double>(inter) / static_cast<double>(query_count)
              : 0.0;
      b.score_bound = (1.0 - lambda) * e.aug.max_score + lambda * text_bound;
      b.text_match = inter > 0;
    }
    out->push_back(std::move(b));
  }
}

}  // namespace stpq
