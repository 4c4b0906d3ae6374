#include "index/srt_index.h"

#include "debug/validate.h"
#include "rtree/bulk_load.h"

namespace stpq {

namespace {

RTreeOptions MakeTreeOptions(const FeatureIndexOptions& opts,
                             uint32_t universe_size) {
  RTreeOptions t;
  t.max_entries = SrtIndex::FanOut(opts.page_size_bytes, universe_size);
  t.buffer_pool = opts.buffer_pool;
  t.page_base = opts.page_base;
  return t;
}

}  // namespace

uint32_t SrtIndex::FanOut(uint32_t page_size, uint32_t universe_size) {
  // Aug bytes: 8 (max score) + the aggregated Hilbert value.
  return FanOutForPage(page_size, 4, 8 + 8 * ((universe_size + 63) / 64));
}

RTree<4, SrtAug>::Entry SrtIndex::LeafEntry(uint32_t id,
                                            const FeatureObject& f) {
  HilbertValue hv = EncodeKeywords(f.keywords);
  std::array<double, 4> p{f.pos.x, f.pos.y, f.score, hv.ToUnitDouble()};
  return {Rect4::FromPoint(p), id, SrtAug{f.score, std::move(hv), f.keywords}};
}

SrtIndex::SrtIndex(const FeatureTable* table,
                   const FeatureIndexOptions& options)
    : FeatureIndex(options.set_ordinal),
      table_(table),
      build_kind_(options.bulk_load),
      tree_(MakeTreeOptions(options, table->universe_size())) {
  using Entry = RTree<4, SrtAug>::Entry;
  std::vector<Entry> records;
  records.reserve(table_->size());
  for (const FeatureObject& f : table_->All()) {
    records.push_back(LeafEntry(f.id, f));
  }
  switch (options.bulk_load) {
    case BulkLoadKind::kHilbert: {
      // Bulk insertion [9]: sort by the Hilbert key of the mapped 4-D point.
      Rect4 domain = ComputeDomain<4, SrtAug>(records);
      SortByHilbertKey<4, SrtAug>(&records, domain);
      tree_.BulkLoadSorted(records, options.fill);
      break;
    }
    case BulkLoadKind::kStr: {
      SortSTR<4, SrtAug>(&records, tree_.options().max_entries);
      tree_.BulkLoadSorted(records, options.fill);
      break;
    }
    case BulkLoadKind::kInsert: {
      for (const Entry& r : records) tree_.Insert(r.rect, r.id, r.aug);
      break;
    }
  }
  STPQ_VALIDATE(ValidateSrtIndex(*this));
}

SrtIndex::SrtIndex(const FeatureTable* table,
                   const FeatureIndexOptions& options,
                   RestoredTreeData<4, SrtAug> restored)
    : FeatureIndex(options.set_ordinal),
      table_(table),
      build_kind_(options.bulk_load),
      tree_(MakeTreeOptions(options, table->universe_size())) {
  AdoptRestoredTree(&tree_, std::move(restored));
  STPQ_VALIDATE(ValidateSrtIndex(*this));
}

NodeId SrtIndex::RootId() const { return tree_.root_id(); }

BufferPool* SrtIndex::buffer_pool() const {
  return tree_.options().buffer_pool;
}

void SrtIndex::VisitChildren(NodeId node_id, const KeywordSet& query_kw,
                             double lambda,
                             std::vector<FeatureBranch>* out) const {
  out->clear();
  const RTree<4, SrtAug>::Node& node = tree_.ReadNode(node_id);
  const uint32_t query_count = query_kw.Count();
  out->reserve(node.entries.size());
  for (const auto& e : node.entries) {
    FeatureBranch b;
    b.id = e.id;
    b.is_feature = node.IsLeaf();
    // Spatial projection of the 4-D MBR.
    b.mbr = Rect2{{e.rect.lo[0], e.rect.lo[1]}, {e.rect.hi[0], e.rect.hi[1]}};
    if (b.is_feature) {
      // Exact preference score s(t) (Definition 1), from the leaf entry:
      // its e.s and e.W are the record's t.s and t.W (Section 4.1;
      // ValidateSrtIndex checks the equality), so no table read is needed.
      double sim = e.aug.keywords.Jaccard(query_kw);
      b.score_bound = (1.0 - lambda) * e.aug.max_score + lambda * sim;
      b.text_match = sim > 0.0;
    } else {
      // e.W is the decoded aggregated Hilbert value (cached at build time,
      // see SrtAug); the bound uses |e.W n W| / |W| >= Jaccard.
      uint32_t inter = e.aug.keywords.IntersectCount(query_kw);
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
