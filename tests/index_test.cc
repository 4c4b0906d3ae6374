// Tests for index/: FeatureTable, the SRT-index and the modified IR2-tree
// (bound validity, textual filters, I/O accounting), and the ObjectIndex.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <filesystem>
#include <functional>
#include <set>
#include <string>

#include "core/engine.h"
#include "core/score.h"
#include "gen/synthetic.h"
#include "index/ir2_tree.h"
#include "index/object_index.h"
#include "hilbert/keyword_hilbert.h"
#include "index/srt_index.h"
#include "paper_example.h"
#include "rtree/bulk_load.h"
#include "util/rng.h"

namespace stpq {
namespace {

namespace ex = testing_example;

FeatureTable RandomFeatures(uint64_t seed, uint32_t n, uint32_t universe) {
  Rng rng(seed);
  std::vector<FeatureObject> f;
  for (uint32_t i = 0; i < n; ++i) {
    FeatureObject t;
    t.pos = {rng.Uniform(), rng.Uniform()};
    t.score = rng.Uniform();
    t.keywords = KeywordSet(universe);
    uint32_t nkw = static_cast<uint32_t>(rng.UniformInt(1, 4));
    for (uint32_t j = 0; j < nkw; ++j) {
      t.keywords.Insert(static_cast<TermId>(rng.UniformInt(0, universe - 1)));
    }
    f.push_back(std::move(t));
  }
  return FeatureTable(std::move(f), universe);
}

TEST(FeatureTableTest, AssignsIdsAndDomain) {
  FeatureTable t = RandomFeatures(1, 100, 32);
  EXPECT_EQ(t.size(), 100u);
  for (uint32_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.Get(i).id, i);
  const Rect2& d = t.domain();
  EXPECT_GE(d.lo[0], 0.0);
  EXPECT_LE(d.hi[0], 1.0);
  EXPECT_FALSE(d.IsEmpty());
}

// -------- shared FeatureIndex conformance suite (runs for SRT and IR2) ----

struct IndexFactory {
  const char* name;
  std::function<std::unique_ptr<FeatureIndex>(const FeatureTable*,
                                              const IndexBuildParams&)>
      make;
};

/// The pages of `index`: whole-tree walks read them, since VisitChildren
/// returns only the children whose text may match.
const PagedTree& PagesOf(const FeatureIndex& index) {
  if (const auto* srt = dynamic_cast<const SrtIndex*>(&index)) {
    return srt->tree();
  }
  return dynamic_cast<const Ir2Tree&>(index).tree();
}

/// Ids of the features of `table` that share a keyword with `query`.
std::set<uint32_t> MatchingFeatures(const FeatureTable& table,
                                    const KeywordSet& query) {
  std::set<uint32_t> ids;
  for (const FeatureObject& f : table.All()) {
    if (f.keywords.Intersects(query)) ids.insert(f.id);
  }
  return ids;
}

/// Every record id below node `root`, read from the pages.
std::set<uint32_t> RecordsBelow(const PagedTree& tree, NodeId root) {
  std::set<uint32_t> ids;
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeView node = tree.PeekNode(stack.back());
    stack.pop_back();
    for (uint32_t i = 0; i < node.size(); ++i) {
      if (node.IsLeaf()) {
        ids.insert(node.id(i));
      } else {
        stack.push_back(node.id(i));
      }
    }
  }
  return ids;
}

class FeatureIndexConformance : public ::testing::TestWithParam<IndexFactory> {
 protected:
  std::unique_ptr<FeatureIndex> Build(const FeatureTable* table) {
    IndexBuildParams opts;
    opts.page_size_bytes = 1024;  // small pages, deeper trees
    return GetParam().make(table, opts);
  }
};

/// Every feature sharing a query keyword must be reachable through the
/// relevant children, and every internal entry's bound must dominate the
/// exact score of every feature below it (Section 4.1's s-hat(e) >= s(t)
/// requirement) — checked by full traversal of the relevant children.
TEST_P(FeatureIndexConformance, BoundDominatesDescendants) {
  FeatureTable table = RandomFeatures(2, 2000, 64);
  std::unique_ptr<FeatureIndex> index = Build(&table);
  Rng rng(3);
  for (int q = 0; q < 10; ++q) {
    KeywordSet query(64);
    for (int j = 0; j < 3; ++j) {
      query.Insert(static_cast<TermId>(rng.UniformInt(0, 63)));
    }
    double lambda = rng.Uniform();
    std::set<uint32_t> seen;
    std::vector<FeatureBranch> scratch;
    // DFS carrying the tightest ancestor bound.
    struct Frame {
      NodeId id;
      double bound;
    };
    std::vector<Frame> stack{{index->RootId(), 1.0}};
    while (!stack.empty()) {
      Frame f = stack.back();
      stack.pop_back();
      scratch.clear();
      index->VisitChildren(/*pool=*/nullptr, f.id, query, lambda, &scratch);
      for (const FeatureBranch& b : scratch) {
        EXPECT_TRUE(b.text_match);
        EXPECT_LE(b.score_bound, f.bound + 1e-9)
            << "child bound exceeds parent bound";
        if (b.is_feature) {
          seen.insert(b.id);
          const FeatureObject& t = table.Get(b.id);
          double exact = PreferenceScore(t, query, lambda);
          EXPECT_NEAR(b.score_bound, exact, 1e-12);
          EXPECT_TRUE(t.keywords.Intersects(query));
          // Leaf MBR is the feature's position.
          EXPECT_DOUBLE_EQ(b.mbr.lo[0], t.pos.x);
          EXPECT_DOUBLE_EQ(b.mbr.lo[1], t.pos.y);
        } else {
          for (uint32_t id : RecordsBelow(PagesOf(*index), b.id)) {
            EXPECT_GE(b.score_bound,
                      PreferenceScore(table.Get(id), query, lambda) - 1e-9)
                << "bound below a descendant's score";
          }
          stack.push_back({b.id, b.score_bound});
        }
      }
    }
    EXPECT_EQ(seen, MatchingFeatures(table, query));
  }
}

TEST_P(FeatureIndexConformance, TextMatchNeverFalseNegative) {
  // Pruning safety: walking only the relevant children reaches every
  // feature that shares a query keyword, and each visit accounts for all
  // of its node's entries as relevant or text-pruned.
  FeatureTable table = RandomFeatures(4, 1500, 128);
  std::unique_ptr<FeatureIndex> index = Build(&table);
  const PagedTree& pages = PagesOf(*index);
  Rng rng(5);
  for (int q = 0; q < 10; ++q) {
    KeywordSet query(128);
    for (int j = 0; j < 2; ++j) {
      query.Insert(static_cast<TermId>(rng.UniformInt(0, 127)));
    }
    std::set<uint32_t> seen;
    std::vector<FeatureBranch> scratch;
    std::vector<NodeId> stack{index->RootId()};
    while (!stack.empty()) {
      const NodeId nid = stack.back();
      stack.pop_back();
      scratch.clear();
      const NodeVisit visit =
          index->VisitChildren(/*pool=*/nullptr, nid, query, 0.5, &scratch);
      const NodeView node = pages.PeekNode(nid);
      EXPECT_EQ(visit.level, node.level());
      EXPECT_EQ(scratch.size() + visit.text_pruned, node.size())
          << "node " << nid;
      for (const FeatureBranch& b : scratch) {
        if (b.is_feature) {
          seen.insert(b.id);
        } else {
          stack.push_back(b.id);
        }
      }
    }
    EXPECT_EQ(seen, MatchingFeatures(table, query));
  }
}

TEST_P(FeatureIndexConformance, SpatialMbrCoversDescendants) {
  FeatureTable table = RandomFeatures(6, 1000, 32);
  std::unique_ptr<FeatureIndex> index = Build(&table);
  const PagedTree& pages = PagesOf(*index);
  struct Frame {
    NodeId id;
    Rect2 mbr;
  };
  std::vector<Frame> stack{{index->RootId(), MakeRect2(-1e9, -1e9, 1e9, 1e9)}};
  size_t records = 0;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    const NodeView node = pages.PeekNode(f.id);
    for (uint32_t i = 0; i < node.size(); ++i) {
      EXPECT_TRUE(f.mbr.ContainsRect(node.mbr(i)));
      if (node.IsLeaf()) {
        const FeatureObject& t = table.Get(node.id(i));
        EXPECT_DOUBLE_EQ(node.mbr(i).lo[0], t.pos.x);
        EXPECT_DOUBLE_EQ(node.mbr(i).lo[1], t.pos.y);
        ++records;
      } else {
        stack.push_back({node.id(i), node.mbr(i)});
      }
    }
  }
  EXPECT_EQ(records, table.size());
}

TEST_P(FeatureIndexConformance, ChargesBufferPool) {
  BufferPool pool(0);
  FeatureTable table = RandomFeatures(7, 2000, 64);
  std::unique_ptr<FeatureIndex> index = Build(&table);
  KeywordSet query(64, {1, 2, 3});
  std::vector<FeatureBranch> scratch;
  index->VisitChildren(&pool, index->RootId(), query, 0.5, &scratch);
  EXPECT_EQ(pool.stats().reads, 1u);
  index->VisitChildren(&pool, index->RootId(), query, 0.5, &scratch);
  EXPECT_EQ(pool.stats().reads, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  index->TouchNode(&pool, index->RootId());
  EXPECT_EQ(pool.stats().hits, 2u);
  // A null pool reads uncharged.
  index->VisitChildren(nullptr, index->RootId(), query, 0.5, &scratch);
  index->TouchNode(nullptr, index->RootId());
  EXPECT_EQ(pool.stats().reads, 1u);
  EXPECT_EQ(pool.stats().hits, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Indexes, FeatureIndexConformance,
    ::testing::Values(
        IndexFactory{"SRT",
                     [](const FeatureTable* table,
                        const IndexBuildParams& o) {
                       return std::unique_ptr<FeatureIndex>(
                           new SrtIndex(table, o));
                     }},
        IndexFactory{"IR2",
                     [](const FeatureTable* table,
                        const IndexBuildParams& o) {
                       return std::unique_ptr<FeatureIndex>(
                           new Ir2Tree(table, o));
                     }}),
    [](const ::testing::TestParamInfo<IndexFactory>& param_info) {
      return param_info.param.name;
    });

// ------------------------------------------------ index-specific details

TEST(SrtIndexTest, NodeSummariesAreExactKeywordUnions) {
  FeatureTable table = RandomFeatures(9, 800, 64);
  IndexBuildParams opts;
  SrtIndex index(&table, opts);
  // For the SRT-index, a node's aggregated Hilbert value decodes to the
  // exact union of descendant keywords, so a query fully contained in the
  // union yields bound >= (1-l)*e.s + l (only if all query terms present).
  const auto& tree = index.tree();
  std::function<KeywordSet(NodeId)> collect = [&](NodeId nid) -> KeywordSet {
    const NodeView node = tree.PeekNode(nid);
    KeywordSet acc(64);
    for (uint32_t i = 0; i < node.size(); ++i) {
      if (node.IsLeaf()) {
        acc.UnionWith(table.Get(node.id(i)).keywords);
      } else {
        acc.UnionWith(collect(node.id(i)));
      }
    }
    return acc;
  };
  std::function<void(NodeId)> verify = [&](NodeId nid) {
    const NodeView node = tree.PeekNode(nid);
    if (node.IsLeaf()) return;
    for (uint32_t i = 0; i < node.size(); ++i) {
      KeywordSet expected = collect(node.id(i));
      // The page stores e.W as its bitmap.
      EXPECT_EQ(KeywordSet::FromBlocks(64, {node.keyword_word(i, 0)}),
                expected);
      verify(node.id(i));
    }
  };
  verify(tree.root_id());
}

// SRT leaves are scored from the leaf entry's e.s and e.W (Section 4.1)
// instead of the feature table.  Walks every relevant leaf of `index`
// through VisitChildren and checks, bit for bit, the table-based
// preference score (1-lambda) * t.s + lambda * Jaccard(t.W, W), and that
// exactly the records with sim > 0 are reached.
void ExpectLeavesScoredAsTableRecords(const FeatureIndex& index,
                                      const std::vector<KeywordSet>& queries,
                                      const std::string& label) {
  const FeatureTable& table = index.table();
  std::vector<FeatureBranch> branches;
  for (const KeywordSet& kw : queries) {
    for (double lambda : {0.0, 0.3, 0.5, 1.0}) {
      size_t leaves = 0;
      std::vector<NodeId> stack{index.RootId()};
      while (!stack.empty()) {
        const NodeId nid = stack.back();
        stack.pop_back();
        branches.clear();
        index.VisitChildren(/*pool=*/nullptr, nid, kw, lambda, &branches);
        for (const FeatureBranch& b : branches) {
          if (!b.is_feature) {
            stack.push_back(b.id);
            continue;
          }
          ++leaves;
          const FeatureObject& t = table.Get(b.id);
          const double sim = t.keywords.Jaccard(kw);
          const double want = (1.0 - lambda) * t.score + lambda * sim;
          EXPECT_EQ(std::bit_cast<uint64_t>(b.score_bound),
                    std::bit_cast<uint64_t>(want))
              << label << " feature " << b.id << " lambda " << lambda;
          EXPECT_TRUE(b.text_match && sim > 0.0)
              << label << " feature " << b.id << " lambda " << lambda;
        }
      }
      EXPECT_EQ(leaves, MatchingFeatures(table, kw).size()) << label;
      if (kw.Count() > 0) {
        EXPECT_GT(leaves, 0u) << label;
      }
    }
  }
}

TEST(SrtIndexTest, LeafRecordsScoreAsTheFeatureTable) {
  // 150 keywords: three bitmap blocks, so Jaccard runs its block loop.
  SyntheticConfig cfg;
  cfg.seed = 57;
  cfg.num_objects = 50;
  cfg.num_features_per_set = 1500;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 150;
  cfg.num_clusters = 60;
  Rng rng(58);
  std::vector<KeywordSet> queries{KeywordSet(cfg.vocabulary_size)};
  for (int i = 0; i < 6; ++i) {
    KeywordSet kw(cfg.vocabulary_size);
    for (int j = 0; j <= i % 4; ++j) {
      kw.Insert(static_cast<TermId>(
          rng.UniformInt(0, cfg.vocabulary_size - 1)));
    }
    queries.push_back(std::move(kw));
  }

  Dataset ds = GenerateSynthetic(cfg);
  Engine built = Engine::Build(std::move(ds.objects),
                               std::move(ds.feature_tables))
                     .TakeValue();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("stpq_srt_leaves_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "srt.stpqx").string();
  ASSERT_TRUE(built.Save(path).ok());
  Result<Engine> reopened = Engine::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (size_t i = 0; i < built.num_feature_sets(); ++i) {
    ASSERT_NE(dynamic_cast<const SrtIndex*>(&built.feature_index(i)),
              nullptr);
    ExpectLeavesScoredAsTableRecords(built.feature_index(i), queries,
                                     "built set " + std::to_string(i));
    // Opened nodes are read in place from the mapped file.
    ExpectLeavesScoredAsTableRecords(reopened.value().feature_index(i),
                                     queries,
                                     "reopened set " + std::to_string(i));
  }
  std::filesystem::remove_all(dir);
}

TEST(SrtIndexTest, MergeIsTheHilbertAggregation) {
  // SrtAug::Merge folds e.W as a union of bitmaps; Section 4.2 states the
  // node update on Hilbert values (decode, OR, re-encode).  The two must
  // agree pair by pair and over every internal entry of a built index.
  const uint32_t w = 150;
  Rng rng(61);
  for (int iter = 0; iter < 100; ++iter) {
    SrtAug a{rng.Uniform(), KeywordSet(w)};
    SrtAug b{rng.Uniform(), KeywordSet(w)};
    for (int i = 0; i < 5; ++i) {
      a.keywords.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
      b.keywords.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
    }
    const SrtAug merged = SrtAug::Merge(a, b);
    EXPECT_EQ(EncodeKeywords(merged.keywords),
              AggregateHilbert(EncodeKeywords(a.keywords),
                               EncodeKeywords(b.keywords), w));
    EXPECT_EQ(merged.max_score, std::max(a.max_score, b.max_score));
  }

  FeatureTable table = RandomFeatures(62, 600, w);
  IndexBuildParams opts;
  opts.page_size_bytes = 1024;
  SrtIndex index(&table, opts);
  const PagedTree& tree = index.tree();
  auto entry_keywords = [&](const NodeView& node, uint32_t i) {
    std::vector<uint64_t> words(node.keyword_words());
    for (uint32_t k = 0; k < words.size(); ++k) {
      words[k] = node.keyword_word(i, k);
    }
    return KeywordSet::FromBlocks(w, words);
  };
  size_t checked = 0;
  std::vector<NodeId> stack{tree.root_id()};
  while (!stack.empty()) {
    const NodeView node = tree.PeekNode(stack.back());
    stack.pop_back();
    if (node.IsLeaf()) continue;
    for (uint32_t i = 0; i < node.size(); ++i) {
      const NodeView child = tree.PeekNode(node.id(i));
      HilbertValue fold = EncodeKeywords(KeywordSet(w));
      for (uint32_t j = 0; j < child.size(); ++j) {
        fold = AggregateHilbert(fold, EncodeKeywords(entry_keywords(child, j)),
                                w);
      }
      EXPECT_EQ(EncodeKeywords(entry_keywords(node, i)), fold)
          << "node " << node.id(i);
      ++checked;
      stack.push_back(node.id(i));
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(SrtIndexTest, LeavesKeepMappedHilbertOrderAndRecordSummaries) {
  // Pages keep no 4-D point, but the leaves are still packed in the
  // Hilbert order of the mapped points {x, y, t.s, H(t.W)}: walking them
  // left to right, each record's key never decreases.  Each leaf entry
  // carries its record's t.s and t.W as e.s and e.W.
  FeatureTable table = RandomFeatures(10, 200, 32);
  IndexBuildParams opts;
  opts.page_size_bytes = 512;
  SrtIndex index(&table, opts);
  const auto& tree = index.tree();
  ASSERT_GE(tree.height(), 3u);
  Rect4 domain = Rect4::Empty();
  for (const FeatureObject& t : table.All()) {
    domain.Enlarge(SrtIndex::LeafEntry(t.id, t).rect);
  }
  uint64_t prev_key = 0;
  size_t leaves = 0;
  std::function<void(NodeId)> walk = [&](NodeId nid) {
    const NodeView node = tree.PeekNode(nid);
    for (uint32_t i = 0; i < node.size(); ++i) {
      if (!node.IsLeaf()) {
        walk(node.id(i));
        continue;
      }
      const FeatureObject& t = table.Get(node.id(i));
      const uint64_t key =
          HilbertSortKey(SrtIndex::LeafEntry(t.id, t).rect, domain);
      EXPECT_GE(key, prev_key) << "leaf record " << leaves;
      prev_key = key;
      ++leaves;
      EXPECT_EQ(node.score(i), t.score);
      for (uint32_t w = 0; w < node.keyword_words(); ++w) {
        EXPECT_EQ(node.keyword_word(i, w), t.keywords.blocks()[w]);
      }
    }
  };
  walk(tree.root_id());
  EXPECT_EQ(leaves, table.size());
}

TEST(SrtIndexTest, ClustersScoreAndText) {
  // SRT leaves should have smaller score spreads than spatial-only leaves
  // (that is the point of indexing the mapped 4-D space).
  FeatureTable table = RandomFeatures(11, 5000, 64);
  IndexBuildParams srt_opts;
  SrtIndex srt(&table, srt_opts);
  Ir2Tree ir2(&table, srt_opts);
  auto mean_leaf_score_spread = [&](auto& tree) {
    double total = 0;
    int leaves = 0;
    std::vector<NodeId> stack{tree.root_id()};
    while (!stack.empty()) {
      NodeId nid = stack.back();
      stack.pop_back();
      const NodeView node = tree.PeekNode(nid);
      if (node.IsLeaf()) {
        double lo = 1e9, hi = -1e9;
        for (uint32_t i = 0; i < node.size(); ++i) {
          double s = table.Get(node.id(i)).score;
          lo = std::min(lo, s);
          hi = std::max(hi, s);
        }
        total += hi - lo;
        ++leaves;
      } else {
        for (uint32_t i = 0; i < node.size(); ++i) {
          stack.push_back(node.id(i));
        }
      }
    }
    return total / leaves;
  };
  EXPECT_LT(mean_leaf_score_spread(srt.tree()),
            mean_leaf_score_spread(ir2.tree()));
}

TEST(Ir2TreeTest, SignatureWidthScalesWithVocabulary) {
  FeatureTable small = RandomFeatures(12, 100, 64);
  FeatureTable large = RandomFeatures(13, 100, 256);
  IndexBuildParams opts;
  Ir2Tree a(&small, opts), b(&large, opts);
  EXPECT_EQ(a.scheme().signature_bits(), 128u);
  EXPECT_EQ(b.scheme().signature_bits(), 512u);
  // Wider signatures shrink the fan-out.
  EXPECT_GT(a.tree().max_entries(), b.tree().max_entries());
}

TEST(Ir2TreeTest, ExplicitSignatureBits) {
  FeatureTable table = RandomFeatures(14, 100, 64);
  IndexBuildParams opts;
  opts.signature_bits = 1024;
  Ir2Tree index(&table, opts);
  EXPECT_EQ(index.scheme().signature_bits(), 1024u);
}

// ------------------------------------------------------------ ObjectIndex

TEST(ObjectIndexTest, RangeQueryMatchesBruteForce) {
  Rng rng(15);
  std::vector<DataObject> objects;
  for (uint32_t i = 0; i < 3000; ++i) {
    objects.push_back(DataObject{i, {rng.Uniform(), rng.Uniform()}, {}});
  }
  IndexBuildParams opts;
  ObjectIndex index(&objects, opts);
  std::vector<ObjectId> got;
  std::vector<NodeId> stack;
  for (int q = 0; q < 30; ++q) {
    Point c{rng.Uniform(), rng.Uniform()};
    double r = rng.Uniform(0.01, 0.2);
    index.RangeQuery(/*pool=*/nullptr, c, r, &got, &stack);
    std::set<ObjectId> got_set(got.begin(), got.end());
    std::set<ObjectId> expect;
    for (const DataObject& o : objects) {
      if (Distance(o.pos, c) <= r) expect.insert(o.id);
    }
    EXPECT_EQ(got_set, expect);
  }
}

TEST(ObjectIndexTest, SmallRangeTouchesFewPages) {
  Rng rng(13);
  std::vector<DataObject> objects;
  for (uint32_t i = 0; i < 10000; ++i) {
    objects.push_back(DataObject{i, {rng.Uniform(), rng.Uniform()}, {}});
  }
  BufferPool pool(0);
  IndexBuildParams opts;
  opts.page_size_bytes = 1024;  // fan-out 28: a few hundred nodes
  ObjectIndex index(&objects, opts);
  std::vector<ObjectId> got;
  std::vector<NodeId> stack;
  index.RangeQuery(&pool, {0.505, 0.505}, 0.005, &got, &stack);
  EXPECT_LT(pool.stats().reads, index.tree().node_count() / 10);
}

TEST(ObjectIndexTest, LeafBlocksPartitionObjects) {
  Rng rng(16);
  std::vector<DataObject> objects;
  for (uint32_t i = 0; i < 1000; ++i) {
    objects.push_back(DataObject{i, {rng.Uniform(), rng.Uniform()}, {}});
  }
  IndexBuildParams opts;
  ObjectIndex index(&objects, opts);
  std::set<ObjectId> seen;
  std::vector<NodeId> stack;
  std::vector<ObjectId> ids_buffer;
  index.ForEachLeafBlock(
      /*pool=*/nullptr,
      [&](std::span<const ObjectId> ids, const Rect2& mbr) {
        for (ObjectId id : ids) {
          EXPECT_TRUE(seen.insert(id).second) << "object in two leaf blocks";
          EXPECT_TRUE(mbr.Contains({objects[id].pos.x, objects[id].pos.y}));
        }
      },
      &stack, &ids_buffer);
  EXPECT_EQ(seen.size(), objects.size());
}

TEST(ObjectIndexTest, DomainCoversAllObjects) {
  Rng rng(17);
  std::vector<DataObject> objects;
  for (uint32_t i = 0; i < 500; ++i) {
    objects.push_back(
        DataObject{i, {rng.Uniform(2.0, 5.0), rng.Uniform(-3.0, 0.0)}, {}});
  }
  IndexBuildParams opts;
  ObjectIndex index(&objects, opts);
  for (const DataObject& o : objects) {
    EXPECT_TRUE(index.domain().Contains({o.pos.x, o.pos.y}));
  }
}

// ------------------------------------------- paper example through index

TEST(PaperExampleTest, OntarioAndRoyalRankFirst) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1]);
  // Best restaurant under W1 = {italian, pizza} is Ontario's Pizza (0.9);
  // best coffeehouse under W2 = {espresso, muffins} is Royal Coffe Shop.
  double best_r = 0, best_c = 0;
  std::string best_r_name, best_c_name;
  for (const FeatureObject& t : ds.feature_tables[0].All()) {
    double s = PreferenceScore(t, q.keywords[0], q.lambda);
    if (s > best_r) {
      best_r = s;
      best_r_name = t.name;
    }
  }
  for (const FeatureObject& t : ds.feature_tables[1].All()) {
    double s = PreferenceScore(t, q.keywords[1], q.lambda);
    if (s > best_c) {
      best_c = s;
      best_c_name = t.name;
    }
  }
  EXPECT_EQ(best_r_name, "Ontario's Pizza");
  EXPECT_DOUBLE_EQ(best_r, ex::kOntarioScore);
  EXPECT_EQ(best_c_name, "Royal Coffe Shop");
  EXPECT_NEAR(best_c, ex::kRoyalScore, 1e-12);
}

}  // namespace
}  // namespace stpq
