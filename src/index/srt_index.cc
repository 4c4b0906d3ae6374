#include "index/srt_index.h"

#include <bit>

#include "debug/validate.h"
#include "hilbert/keyword_hilbert.h"

namespace stpq {

SortPoint SrtIndex::LeafSortPoint(const FeatureObject& f) {
  const HilbertValue hv = EncodeKeywords(f.keywords);
  return SortPoint{{f.pos.x, f.pos.y, f.score, hv.ToUnitDouble()}, 4};
}

TreeImage SrtIndex::Pack(const FeatureTable& table,
                         const IndexBuildParams& params) {
  std::vector<PageEntry> entries;
  std::vector<SortPoint> points;
  entries.reserve(table.size());
  points.reserve(table.size());
  for (const FeatureObject& f : table.All()) {
    entries.push_back(LeafEntry(f.id, f));
    points.push_back(LeafSortPoint(f));
  }
  // Bulk insertion [9]: sort by the Hilbert key of the mapped 4-D point.
  SortByHilbertKey(&entries, points);
  return PackTree(std::move(entries), Layout(table.universe_size()),
                  params.page_size_bytes, params.fill);
}

SrtIndex::SrtIndex(const FeatureTable* table, const IndexBuildParams& params,
                   uint32_t set_ordinal)
    : FeatureIndex(set_ordinal),
      table_(table),
      tree_(Pack(*table, params), Layout(table->universe_size()),
            PageBase(set_ordinal)) {
  STPQ_VALIDATE(ValidateSrtIndex(*this));
}

SrtIndex::SrtIndex(const FeatureTable* table, uint32_t set_ordinal,
                   TreeMeta meta, const PageStore* pages)
    : FeatureIndex(set_ordinal),
      table_(table),
      tree_(std::move(meta), Layout(table->universe_size()), pages,
            PageBase(set_ordinal)) {}

NodeVisit SrtIndex::EvaluateNode(const NodeView& node,
                                 const KeywordSet& query_kw, double lambda,
                                 std::vector<FeatureBranch>* out) const {
  const std::vector<uint64_t>& query = query_kw.blocks();
  const uint32_t words = node.keyword_words();
  STPQ_DCHECK(query.size() == words);
  const uint32_t query_count = query_kw.Count();
  const bool leaf = node.IsLeaf();
  NodeVisit visit{node.level(), 0};
  for (uint32_t i = 0; i < node.size(); ++i) {
    // The keyword column decides first: an entry sharing no query keyword
    // has sim = 0 below it (Section 4.1) and is dropped before any other
    // column of it is read.  Most entries are dropped, so the test ORs
    // the word intersections and counts bits only for the survivors.
    uint64_t shared = 0;
    for (uint32_t w = 0; w < words; ++w) {
      shared |= node.keyword_word(i, w) & query[w];
    }
    if (shared == 0) {
      ++visit.text_pruned;
      continue;
    }
    uint32_t inter = 0;
    for (uint32_t w = 0; w < words; ++w) {
      inter += std::popcount(node.keyword_word(i, w) & query[w]);
    }
    FeatureBranch b;
    b.id = node.id(i);
    b.is_feature = leaf;
    b.mbr = node.mbr(i);
    b.text_match = true;
    double text = 0.0;
    if (leaf) {
      // Exact preference score s(t) (Definition 1), from the leaf entry:
      // its e.s and e.W are the record's t.s and t.W (Section 4.1;
      // ValidateSrtIndex checks the equality), so no table read is
      // needed.  Jaccard = |e.W n W| / |e.W u W|.
      uint32_t uni = 0;
      for (uint32_t w = 0; w < words; ++w) {
        uni += std::popcount(node.keyword_word(i, w) | query[w]);
      }
      text = uni > 0 ? static_cast<double>(inter) / static_cast<double>(uni)
                     : 0.0;
    } else if (query_count > 0) {
      // The bound uses |e.W n W| / |W| >= Jaccard.
      text = static_cast<double>(inter) / static_cast<double>(query_count);
    }
    b.score_bound = (1.0 - lambda) * node.score(i) + lambda * text;
    out->push_back(b);
  }
  return visit;
}

}  // namespace stpq
