// End-to-end tests of the range-score query processing: STDS and STPS
// against brute force, both indexes, the batched STDS improvement, and the
// paper's worked example (Section 6.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "core/brute_force.h"
#include "core/compute_score.h"
#include "core/engine.h"
#include "core/score.h"
#include "core/stds.h"
#include "core/stps.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "index/ir2_tree.h"
#include "index/srt_index.h"
#include "paper_example.h"
#include "util/rng.h"

namespace stpq {
namespace {

namespace ex = testing_example;

std::vector<double> Scores(const std::vector<ResultEntry>& entries) {
  std::vector<double> out;
  out.reserve(entries.size());
  for (const ResultEntry& e : entries) out.push_back(e.score);
  return out;
}

void ExpectSameScores(const std::vector<ResultEntry>& got,
                      const std::vector<ResultEntry>& want,
                      const char* label) {
  std::vector<double> g = Scores(got), w = Scores(want);
  ASSERT_EQ(g.size(), w.size()) << label;
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_NEAR(g[i], w[i], 1e-9) << label << " rank " << i;
  }
}

std::vector<const FeatureTable*> TablePtrs(const Dataset& ds) {
  std::vector<const FeatureTable*> out;
  for (const FeatureTable& t : ds.feature_tables) out.push_back(&t);
  return out;
}

// ------------------------------------------------------- compute score

TEST(ComputeScoreTest, RangeMatchesBruteForce) {
  SyntheticConfig cfg;
  cfg.num_objects = 100;
  cfg.num_features_per_set = 800;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 50;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;
  SrtIndex index(&ds.feature_tables[0], opts);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  Query q;
  q.radius = 0.08;
  q.lambda = 0.5;
  q.keywords = {KeywordSet(32, {0, 1, 2})};
  QueryStats stats;
  TraversalScratch scratch;
  for (int i = 0; i < 60; ++i) {
    const Point& p = ds.objects[i].pos;
    double got = ComputeBestRange(index, p, q.keywords[0], q.lambda,
                                  q.radius, stats, scratch)
                     .score;
    EXPECT_NEAR(got, brute.ComponentScore(p, 0, q), 1e-12) << "object " << i;
  }
}

TEST(ComputeScoreTest, BatchAgreesWithSingle) {
  SyntheticConfig cfg;
  cfg.num_objects = 200;
  cfg.num_features_per_set = 500;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 40;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;
  SrtIndex index(&ds.feature_tables[0], opts);
  KeywordSet query(32, {1, 2, 3});
  std::vector<BatchObject> batch;
  Rect2 mbr = Rect2::Empty();
  for (uint32_t i = 0; i < 200; ++i) {
    batch.push_back({i, ds.objects[i].pos});
    mbr.EnlargePoint({ds.objects[i].pos.x, ds.objects[i].pos.y});
  }
  std::vector<double> scores(batch.size());
  QueryStats stats;
  TraversalScratch scratch;
  ComputeScoresRangeBatch(index, batch, mbr, query, 0.5, 0.05, scores,
                          stats, scratch);
  for (size_t i = 0; i < batch.size(); ++i) {
    double single = ComputeBestRange(index, batch[i].pos, query, 0.5, 0.05,
                                     stats, scratch)
                        .score;
    EXPECT_NEAR(scores[i], single, 1e-12) << "object " << i;
  }
}

TEST(ComputeScoreTest, ZeroRadiusOnlyColocated) {
  Dataset ds = ex::ExampleDataset();
  IndexBuildParams opts;
  SrtIndex index(&ds.feature_tables[0], opts);
  KeywordSet query = ex::Terms(ds.vocabularies[0], {"pizza"});
  QueryStats stats;
  TraversalScratch scratch;
  // p exactly at Ontario's Pizza: radius 0 still matches it.
  double at =
      ComputeBestRange(index, {7, 6}, query, 0.5, 0.0, stats, scratch).score;
  EXPECT_NEAR(at, 0.4 + 0.5 * 0.5, 1e-12);  // s = .5*.8 + .5*(1/2)
  double off =
      ComputeBestRange(index, {7.1, 6}, query, 0.5, 0.0, stats, scratch)
          .score;
  EXPECT_EQ(off, 0.0);
}

// ------------------------------------------------------------ paper example

class PaperExampleAlgorithms
    : public ::testing::TestWithParam<FeatureIndexKind> {};

TEST_P(PaperExampleAlgorithms, Top3AreTheThreeHotels) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 3);
  EngineOptions opts;
  opts.build.index_kind = GetParam();
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), opts).TakeValue();
  for (Algorithm alg : {Algorithm::kStds, Algorithm::kStps}) {
    QueryResult r = engine.Execute(q, alg).TakeValue();
    ASSERT_EQ(r.entries.size(), 3u);
    std::set<ObjectId> ids;
    for (const ResultEntry& e : r.entries) {
      EXPECT_NEAR(e.score, ex::kTopHotelScore, 1e-9);
      ids.insert(e.object);
    }
    // p6, p9, p10 are ids 5, 8, 9.
    EXPECT_EQ(ids, (std::set<ObjectId>{5, 8, 9}));
  }
}

TEST_P(PaperExampleAlgorithms, FullRankingMatchesBruteForce) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 10);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  std::vector<ResultEntry> expected = brute.TopK(q);
  EngineOptions opts;
  opts.build.index_kind = GetParam();
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), opts).TakeValue();
  ExpectSameScores(engine.Execute(q, Algorithm::kStds).TakeValue().entries, expected, "STDS");
  ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, expected, "STPS");
}

INSTANTIATE_TEST_SUITE_P(Indexes, PaperExampleAlgorithms,
                         ::testing::Values(FeatureIndexKind::kSrt,
                                           FeatureIndexKind::kIr2),
                         [](const ::testing::TestParamInfo<FeatureIndexKind>&
                                param_info) {
                           return param_info.param == FeatureIndexKind::kSrt
                                      ? "SRT"
                                      : "IR2";
                         });

// -------------------------------------------------- randomized agreement

struct AgreementParam {
  FeatureIndexKind kind;
  uint32_t c;
  double radius;
  double lambda;
  uint32_t k;
};

class RangeAgreementTest : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(RangeAgreementTest, StdsStpsBruteForceAgree) {
  const AgreementParam& p = GetParam();
  SyntheticConfig cfg;
  cfg.seed = 1000 + p.c + p.k;
  cfg.num_objects = 400;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = p.c;
  cfg.vocabulary_size = 24;
  cfg.num_clusters = 60;
  cfg.cluster_stddev = 0.02;
  Dataset ds = GenerateSynthetic(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));

  QueryWorkloadConfig qcfg;
  qcfg.count = 5;
  qcfg.k = p.k;
  qcfg.radius = p.radius;
  qcfg.lambda = p.lambda;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);

  EngineOptions opts;
  opts.build.index_kind = p.kind;
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), opts).TakeValue();
  for (const Query& q : queries) {
    std::vector<ResultEntry> expected = brute.TopK(q);
    ExpectSameScores(engine.Execute(q, Algorithm::kStds).TakeValue().entries, expected, "STDS");
    ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, expected, "STPS");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RangeAgreementTest,
    ::testing::Values(
        AgreementParam{FeatureIndexKind::kSrt, 1, 0.05, 0.5, 10},
        AgreementParam{FeatureIndexKind::kSrt, 2, 0.05, 0.5, 10},
        AgreementParam{FeatureIndexKind::kSrt, 3, 0.08, 0.5, 5},
        AgreementParam{FeatureIndexKind::kSrt, 2, 0.01, 0.5, 10},
        AgreementParam{FeatureIndexKind::kSrt, 2, 0.2, 0.5, 10},
        AgreementParam{FeatureIndexKind::kSrt, 2, 0.05, 0.0, 10},
        AgreementParam{FeatureIndexKind::kSrt, 2, 0.05, 1.0, 10},
        AgreementParam{FeatureIndexKind::kSrt, 2, 0.05, 0.9, 40},
        AgreementParam{FeatureIndexKind::kIr2, 2, 0.05, 0.5, 10},
        AgreementParam{FeatureIndexKind::kIr2, 3, 0.08, 0.3, 5},
        AgreementParam{FeatureIndexKind::kIr2, 1, 0.02, 0.7, 20}),
    [](const ::testing::TestParamInfo<AgreementParam>& param_info) {
      const AgreementParam& p = param_info.param;
      return std::string(p.kind == FeatureIndexKind::kSrt ? "srt" : "ir2") +
             "_c" + std::to_string(p.c) + "_k" + std::to_string(p.k) + "_i" +
             std::to_string(param_info.index);
    });

// ------------------------------------------------------------- edge cases

TEST(RangeEdgeCases, KLargerThanDataset) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 100);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  QueryResult stds = engine.Execute(q, Algorithm::kStds).TakeValue();
  QueryResult stps = engine.Execute(q, Algorithm::kStps).TakeValue();
  EXPECT_EQ(stds.entries.size(), 10u);  // all hotels
  EXPECT_EQ(stps.entries.size(), 10u);
  ExpectSameScores(stps.entries, stds.entries, "k>n");
}

TEST(RangeEdgeCases, NoRelevantFeaturesScoresZero) {
  Dataset ds = ex::ExampleDataset();
  Query q;
  q.k = 5;
  q.radius = 3.5;
  q.lambda = 0.5;
  // Keywords that no feature has: universe ids beyond any used... use terms
  // present in the vocab but disjoint per feature ("seafood" restaurants
  // exist, so pick an unused pair by constructing empty-intersection sets).
  q.keywords.push_back(KeywordSet(ds.feature_tables[0].universe_size()));
  q.keywords.push_back(KeywordSet(ds.feature_tables[1].universe_size()));
  // Empty keyword sets: sim = 0 everywhere, every tau_i = 0.
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  QueryResult stds = engine.Execute(q, Algorithm::kStds).TakeValue();
  QueryResult stps = engine.Execute(q, Algorithm::kStps).TakeValue();
  ASSERT_EQ(stds.entries.size(), 5u);
  ASSERT_EQ(stps.entries.size(), 5u);
  for (const auto& e : stds.entries) EXPECT_EQ(e.score, 0.0);
  for (const auto& e : stps.entries) EXPECT_EQ(e.score, 0.0);
}

TEST(RangeEdgeCases, TinyRadiusIsolatesColocated) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 10);
  q.radius = 0.1;  // no hotel within 0.1 of any restaurant
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  std::vector<ResultEntry> expected = brute.TopK(q);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, expected, "tiny radius");
}

TEST(RangeEdgeCases, KZeroIsRejected) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 0);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  EXPECT_EQ(engine.Execute(q, Algorithm::kStds).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Execute(q, Algorithm::kStps).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RangeEdgeCases, EmptyObjectSet) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 5);
  Engine engine = Engine::Build({}, std::move(ds.feature_tables), {}).TakeValue();
  EXPECT_TRUE(engine.Execute(q, Algorithm::kStds).TakeValue().entries.empty());
  EXPECT_TRUE(engine.Execute(q, Algorithm::kStps).TakeValue().entries.empty());
}

// ------------------------------------------------------------- statistics

TEST(StatsTest, StpsReadsFewerPagesThanStds) {
  // STDS's cost grows with |O| (it scores data objects), while STPS's does
  // not; at paper-like object-to-feature ratios STPS reads far fewer pages.
  SyntheticConfig cfg;
  cfg.num_objects = 20000;
  cfg.num_features_per_set = 2000;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 64;
  cfg.num_clusters = 200;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 5;
  qcfg.radius = 0.03;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  uint64_t stds_reads = 0, stps_reads = 0;
  for (const Query& q : queries) {
    stds_reads += engine.Execute(q, Algorithm::kStds).TakeValue().stats.TotalReads();
    stps_reads += engine.Execute(q, Algorithm::kStps).TakeValue().stats.TotalReads();
  }
  // The paper's headline: STPS is orders of magnitude cheaper than STDS.
  EXPECT_LT(stps_reads * 2, stds_reads);
}

TEST(StatsTest, ColdCachePerQueryIsDeterministic) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 3);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  QueryResult a = engine.Execute(q, Algorithm::kStps).TakeValue();
  QueryResult b = engine.Execute(q, Algorithm::kStps).TakeValue();
  EXPECT_EQ(a.stats.TotalReads(), b.stats.TotalReads());
  EXPECT_GT(a.stats.TotalReads(), 0u);
}

// ------------------------------------------------ relevant-children memo

/// Forwards every call to `inner`, counting child evaluations per node and
/// charge-only touches.
class CountingIndex : public FeatureIndex {
 public:
  explicit CountingIndex(const FeatureIndex* inner)
      : FeatureIndex(inner->set_ordinal()), inner_(inner) {}

  NodeId RootId() const override { return inner_->RootId(); }
  NodeVisit VisitChildren(BufferPool* pool, NodeId node_id,
                          const KeywordSet& query_kw, double lambda,
                          std::vector<FeatureBranch>* out) const override {
    ++evaluations_[node_id];
    return inner_->VisitChildren(pool, node_id, query_kw, lambda, out);
  }
  void TouchNode(BufferPool* pool, NodeId node_id) const override {
    ++touches_;
    inner_->TouchNode(pool, node_id);
  }
  const FeatureTable& table() const override { return inner_->table(); }
  const char* Name() const override { return inner_->Name(); }

  uint64_t Evaluations(NodeId node_id) const {
    auto it = evaluations_.find(node_id);
    return it == evaluations_.end() ? 0 : it->second;
  }
  uint64_t MaxEvaluationsPerNode() const {
    uint64_t most = 0;
    for (const auto& [node, n] : evaluations_) most = std::max(most, n);
    return most;
  }
  uint64_t touches() const { return touches_; }
  void ResetCounts() {
    evaluations_.clear();
    touches_ = 0;
  }

 private:
  const FeatureIndex* inner_;
  mutable std::map<NodeId, uint64_t> evaluations_;
  mutable uint64_t touches_ = 0;
};

std::unique_ptr<FeatureIndex> BuildFeatureIndex(
    FeatureIndexKind kind, const FeatureTable* table,
    const IndexBuildParams& opts) {
  if (kind == FeatureIndexKind::kSrt) {
    return std::make_unique<SrtIndex>(table, opts);
  }
  return std::make_unique<Ir2Tree>(table, opts);
}

/// The pages of `index`, an SRT-index or an IR2-tree.
const PagedTree& PagesOf(const FeatureIndex& index) {
  if (const auto* srt = dynamic_cast<const SrtIndex*>(&index)) {
    return srt->tree();
  }
  return dynamic_cast<const Ir2Tree&>(index).tree();
}

/// Every node id of `index`, found by walking its pages from the root.
std::vector<NodeId> AllNodes(const FeatureIndex& index) {
  std::vector<NodeId> nodes;
  if (index.RootId() == kInvalidNodeId) return nodes;
  const PagedTree& pages = PagesOf(index);
  std::vector<NodeId> stack = {index.RootId()};
  while (!stack.empty()) {
    NodeId node = stack.back();
    stack.pop_back();
    nodes.push_back(node);
    const NodeView view = pages.PeekNode(node);
    if (view.IsLeaf()) continue;
    for (uint32_t i = 0; i < view.size(); ++i) stack.push_back(view.id(i));
  }
  return nodes;
}

/// The memo's view of `node` must be what VisitChildren reports, entry
/// for entry, and account for every entry of the node's page.
void ExpectViewMatchesVisit(const FeatureIndex& index, NodeId node,
                               const KeywordSet& kw, double lambda,
                               const NodeChildren& got) {
  std::vector<FeatureBranch> want;
  const NodeVisit visit =
      index.VisitChildren(/*pool=*/nullptr, node, kw, lambda, &want);
  const NodeView page = PagesOf(index).PeekNode(node);
  EXPECT_EQ(got.level, visit.level) << "node " << node;
  EXPECT_EQ(got.level, page.level()) << "node " << node;
  EXPECT_EQ(got.text_pruned, visit.text_pruned) << "node " << node;
  EXPECT_EQ(got.text_pruned + want.size(), page.size()) << "node " << node;
  ASSERT_EQ(got.relevant.size(), want.size()) << "node " << node;
  for (size_t i = 0; i < want.size(); ++i) {
    const FeatureBranch& g = got.relevant[i];
    EXPECT_EQ(g.id, want[i].id) << "node " << node << " entry " << i;
    EXPECT_EQ(g.is_feature, want[i].is_feature);
    EXPECT_EQ(g.score_bound, want[i].score_bound);
    EXPECT_EQ(g.mbr.lo, want[i].mbr.lo);
    EXPECT_EQ(g.mbr.hi, want[i].mbr.hi);
    EXPECT_TRUE(g.text_match);
  }
}

class ChildrenMemoTest : public ::testing::TestWithParam<FeatureIndexKind> {
 protected:
  static Dataset Features() {
    SyntheticConfig cfg;
    cfg.seed = 41;
    cfg.num_objects = 0;
    cfg.num_features_per_set = 600;
    cfg.num_feature_sets = 1;
    cfg.vocabulary_size = 32;
    cfg.num_clusters = 40;
    return GenerateSynthetic(cfg);
  }
};

TEST_P(ChildrenMemoTest, ViewsAreVisitChildrenFilteredToTextMatches) {
  Dataset ds = Features();
  IndexBuildParams opts;
  opts.page_size_bytes = 512;  // small pages: a deep tree
  std::unique_ptr<FeatureIndex> index =
      BuildFeatureIndex(GetParam(), &ds.feature_tables[0], opts);
  const std::vector<NodeId> nodes = AllNodes(*index);
  ASSERT_GT(nodes.size(), 20u);
  const std::vector<KeywordSet> keyword_sets = {
      KeywordSet(32, {0}), KeywordSet(32, {1, 7, 30}), KeywordSet(32)};
  ChildrenMemo memo;
  for (const KeywordSet& kw : keyword_sets) {
    for (double lambda : {0.0, 0.3, 1.0}) {
      ChildrenMemo::IndexMemo& bound = memo.Bind(*index, kw, lambda);
      // The first pass evaluates every node, the second reads the memo.
      for (int pass = 0; pass < 2; ++pass) {
        for (NodeId node : nodes) {
          ExpectViewMatchesVisit(*index, node, kw, lambda, bound.Visit(node));
        }
      }
    }
  }
}

TEST_P(ChildrenMemoTest, RepeatVisitIsOnePoolHitAndNoEvaluation) {
  Dataset ds = Features();
  IndexBuildParams opts;
  opts.page_size_bytes = 512;
  std::unique_ptr<FeatureIndex> index =
      BuildFeatureIndex(GetParam(), &ds.feature_tables[0], opts);
  BufferPool pool(&PagesOf(*index).pages());
  CountingIndex counting(index.get());

  const KeywordSet kw(32, {1, 2});
  ChildrenMemo memo;
  memo.set_pool(&pool);
  ChildrenMemo::IndexMemo& bound = memo.Bind(counting, kw, 0.5);
  const NodeId root = counting.RootId();
  const size_t first_size = bound.Visit(root).relevant.size();
  EXPECT_EQ(counting.Evaluations(root), 1u);
  EXPECT_EQ(pool.stats().reads, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
  for (uint64_t repeat = 1; repeat <= 3; ++repeat) {
    const NodeChildren again = bound.Visit(root);
    EXPECT_EQ(again.relevant.size(), first_size);
    EXPECT_EQ(counting.Evaluations(root), 1u);
    EXPECT_EQ(counting.touches(), repeat);
    EXPECT_EQ(pool.stats().reads, 1u);
    EXPECT_EQ(pool.stats().hits, repeat);
  }
}

TEST_P(ChildrenMemoTest, AnotherBindingReevaluates) {
  Dataset ds = Features();
  IndexBuildParams opts;
  opts.page_size_bytes = 512;
  std::unique_ptr<FeatureIndex> index =
      BuildFeatureIndex(GetParam(), &ds.feature_tables[0], opts);
  std::unique_ptr<FeatureIndex> twin =
      BuildFeatureIndex(GetParam(), &ds.feature_tables[0], opts);
  CountingIndex counting(index.get());
  CountingIndex other(twin.get());
  const NodeId root = counting.RootId();
  ChildrenMemo memo;
  KeywordSet kw(32, {0});
  auto visit_root = [&](const CountingIndex& idx, double lambda) {
    return memo.Bind(idx, kw, lambda).Visit(idx.RootId());
  };

  visit_root(counting, 0.5);
  visit_root(counting, 0.5);
  EXPECT_EQ(counting.Evaluations(root), 1u);

  kw.Insert(9);  // same object, new contents
  ExpectViewMatchesVisit(*index, root, kw, 0.5, visit_root(counting, 0.5));
  EXPECT_EQ(counting.Evaluations(root), 2u);

  ExpectViewMatchesVisit(*index, root, kw, 0.25, visit_root(counting, 0.25));
  EXPECT_EQ(counting.Evaluations(root), 3u);

  // Another index under the same keywords and lambda is evaluated on its
  // own and leaves the first index's entries in place.
  visit_root(other, 0.25);
  EXPECT_EQ(other.Evaluations(other.RootId()), 1u);
  visit_root(counting, 0.25);
  EXPECT_EQ(counting.Evaluations(root), 3u);

  // A query start drops every binding.
  memo.Clear();
  visit_root(counting, 0.25);
  EXPECT_EQ(counting.Evaluations(root), 4u);
}

// STPS (range, both influence modes, NN) and STDS (batched and per object)
// over decorated indexes: within one query every node of every feature
// set is evaluated at most once, and entries, page reads and buffer hits
// equal the undecorated run's.
TEST_P(ChildrenMemoTest, QueriesEvaluateEachNodeOncePerSet) {
  SyntheticConfig cfg;
  cfg.seed = 5;
  cfg.num_objects = 400;
  cfg.num_features_per_set = 800;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 40;
  Dataset ds = GenerateSynthetic(cfg);
  // An engine packs every tree into one page array, which both pools read.
  EngineOptions eopts;
  eopts.build.index_kind = GetParam();
  eopts.build.page_size_bytes = 512;
  const Engine engine =
      Engine::Build(ds.objects, ds.feature_tables, eopts).TakeValue();
  BufferPool object_pool(&engine.page_store());
  BufferPool feature_pool(&engine.page_store());
  const ObjectIndex& objects = engine.object_index();
  std::vector<std::unique_ptr<CountingIndex>> counters;
  std::vector<const FeatureIndex*> plain;
  std::vector<const FeatureIndex*> decorated;
  for (uint32_t i = 0; i < engine.num_feature_sets(); ++i) {
    plain.push_back(&engine.feature_index(i));
    counters.push_back(std::make_unique<CountingIndex>(plain.back()));
    decorated.push_back(counters.back().get());
  }

  struct Run {
    std::vector<ResultEntry> entries;
    BufferPoolStats object_io;
    BufferPoolStats feature_io;
  };
  enum class Executor { kStds, kStps, kStpsCombos };
  auto run = [&](Executor executor, const std::vector<const FeatureIndex*>& ix,
                 const Query& q) {
    object_pool.Reset();
    feature_pool.Reset();
    TraversalScratch scratch;
    scratch.object_pool = &object_pool;
    scratch.children.set_pool(&feature_pool);
    QueryResult r;
    switch (executor) {
      case Executor::kStds:
        r = Stds(&objects, ix).Execute(q, &scratch);
        break;
      case Executor::kStps:
        r = Stps(&objects, ix).Execute(q, PullingStrategy::kPrioritized,
                                       &scratch);
        break;
      case Executor::kStpsCombos:
        r = Stps(&objects, ix, InfluenceMode::kCombinations)
                .Execute(q, PullingStrategy::kPrioritized, &scratch);
        break;
    }
    return Run{r.entries, object_pool.stats(), feature_pool.stats()};
  };

  uint64_t touches = 0;
  for (ScoreVariant variant :
       {ScoreVariant::kRange, ScoreVariant::kInfluence,
        ScoreVariant::kNearestNeighbor}) {
    QueryWorkloadConfig qcfg;
    qcfg.count = 3;
    qcfg.k = 5;
    qcfg.radius = 0.05;
    qcfg.keywords_per_set = 2;
    qcfg.variant = variant;
    for (const Query& q : GenerateQueries(ds, qcfg)) {
      for (Executor executor :
           {Executor::kStds, Executor::kStps, Executor::kStpsCombos}) {
        if (executor == Executor::kStpsCombos &&
            variant != ScoreVariant::kInfluence) {
          continue;
        }
        const std::string label = std::string(VariantName(variant)) +
                                  " executor " +
                                  std::to_string(static_cast<int>(executor));
        const Run want = run(executor, plain, q);
        for (auto& c : counters) c->ResetCounts();
        const Run got = run(executor, decorated, q);
        for (const auto& c : counters) {
          EXPECT_LE(c->MaxEvaluationsPerNode(), 1u) << label;
          touches += c->touches();
        }
        ASSERT_EQ(got.entries.size(), want.entries.size()) << label;
        for (size_t i = 0; i < want.entries.size(); ++i) {
          EXPECT_EQ(got.entries[i].object, want.entries[i].object) << label;
          EXPECT_EQ(got.entries[i].score, want.entries[i].score) << label;
        }
        EXPECT_EQ(got.object_io.reads, want.object_io.reads) << label;
        EXPECT_EQ(got.object_io.hits, want.object_io.hits) << label;
        EXPECT_EQ(got.feature_io.reads, want.feature_io.reads) << label;
        EXPECT_EQ(got.feature_io.hits, want.feature_io.hits) << label;
      }
    }
  }
  // The queries did revisit nodes, so the memo answered from memory.
  EXPECT_GT(touches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Indexes, ChildrenMemoTest,
                         ::testing::Values(FeatureIndexKind::kSrt,
                                           FeatureIndexKind::kIr2));

}  // namespace
}  // namespace stpq
