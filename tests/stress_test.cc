// Stress and property tests that cut across modules: the workload runner,
// long randomized runs, degenerate data layouts, and engine re-entrancy.
#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/score.h"
#include "core/workload.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "util/rng.h"

namespace stpq {
namespace {

std::vector<const FeatureTable*> TablePtrs(const Dataset& ds) {
  std::vector<const FeatureTable*> out;
  for (const FeatureTable& t : ds.feature_tables) out.push_back(&t);
  return out;
}

TEST(WorkloadTest, SummarizesCosts) {
  SyntheticConfig cfg;
  cfg.num_objects = 500;
  cfg.num_features_per_set = 400;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 50;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 10;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  WorkloadSummary s = RunWorkload(engine, queries, {.algorithm = Algorithm::kStps, .io_unit_cost_ms = 0.1}).TakeValue().summary;
  EXPECT_EQ(s.queries, 10u);
  EXPECT_GT(s.total_ms.mean, 0.0);
  EXPECT_LE(s.total_ms.p50, s.total_ms.p95);
  EXPECT_LE(s.total_ms.p95, s.total_ms.max);
  EXPECT_GT(s.mean_page_reads, 0.0);
  EXPECT_NEAR(s.total_ms.mean, s.cpu_ms.mean + s.io_ms.mean, 1e-9);
  EXPECT_GT(s.aggregate.features_retrieved, 0u);
  EXPECT_FALSE(s.ToString().empty());
}

TEST(WorkloadTest, EmptyWorkload) {
  SyntheticConfig cfg;
  cfg.num_objects = 10;
  cfg.num_features_per_set = 10;
  cfg.num_feature_sets = 1;
  Dataset ds = GenerateSynthetic(cfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  WorkloadSummary s = RunWorkload(engine, {}, {.algorithm = Algorithm::kStps, .io_unit_cost_ms = 0.1}).TakeValue().summary;
  EXPECT_EQ(s.queries, 0u);
  EXPECT_EQ(s.total_ms.mean, 0.0);
}

TEST(WorkloadTest, IoCostScalesLinearly) {
  SyntheticConfig cfg;
  cfg.num_objects = 300;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = 2;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 3;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  WorkloadSummary cheap = RunWorkload(engine, queries, {.algorithm = Algorithm::kStps, .io_unit_cost_ms = 0.1}).TakeValue().summary;
  WorkloadSummary costly = RunWorkload(engine, queries, {.algorithm = Algorithm::kStps, .io_unit_cost_ms = 1.0}).TakeValue().summary;
  EXPECT_NEAR(costly.io_ms.mean, 10.0 * cheap.io_ms.mean, 1e-6);
}

TEST(StressTest, EngineIsReentrantAcrossVariantsAndAlgorithms) {
  // Interleave variants, algorithms and k values on one engine; every
  // result must match brute force (the engine carries no per-query state).
  SyntheticConfig cfg;
  cfg.num_objects = 250;
  cfg.num_features_per_set = 200;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 30;
  cfg.cluster_stddev = 0.02;
  Dataset ds = GenerateSynthetic(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  Engine engine = Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables),
                {}).TakeValue();
  Rng rng(91);
  for (int step = 0; step < 30; ++step) {
    QueryWorkloadConfig qcfg;
    qcfg.seed = 1000 + step;
    qcfg.count = 1;
    qcfg.k = static_cast<uint32_t>(rng.UniformInt(1, 25));
    qcfg.radius = rng.Uniform(0.01, 0.15);
    qcfg.lambda = rng.Uniform(0.0, 1.0);
    qcfg.variant = static_cast<ScoreVariant>(rng.UniformInt(0, 2));
    Query q = GenerateQueries(ds, qcfg)[0];
    Algorithm alg = rng.Bernoulli(0.5) ? Algorithm::kStds : Algorithm::kStps;
    QueryResult r = engine.Execute(q, alg).TakeValue();
    std::vector<ResultEntry> expected = brute.TopK(q);
    ASSERT_EQ(r.entries.size(), expected.size()) << "step " << step;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(r.entries[i].score, expected[i].score, 1e-9)
          << "step " << step << " rank " << i << " variant "
          << VariantName(q.variant);
    }
  }
}

TEST(StressTest, DegenerateAllObjectsOnePoint) {
  // Every object at the same location: ties everywhere, all algorithms
  // must still return k results with equal scores.
  std::vector<DataObject> objects;
  for (uint32_t i = 0; i < 50; ++i) {
    objects.push_back({i, {0.5, 0.5}, ""});
  }
  std::vector<FeatureObject> features;
  Rng rng(92);
  for (uint32_t i = 0; i < 100; ++i) {
    features.push_back({i,
                        {rng.Uniform(), rng.Uniform()},
                        rng.Uniform(),
                        KeywordSet(8, {static_cast<TermId>(i % 8)}),
                        ""});
  }
  std::vector<FeatureTable> tables;
  tables.emplace_back(std::move(features), 8);
  Engine engine = Engine::Build(std::move(objects), std::move(tables), {}).TakeValue();
  Query q;
  q.k = 10;
  q.radius = 0.3;
  q.keywords = {KeywordSet(8, {1, 2})};
  for (ScoreVariant v : {ScoreVariant::kRange, ScoreVariant::kInfluence,
                         ScoreVariant::kNearestNeighbor}) {
    q.variant = v;
    QueryResult stds = engine.Execute(q, Algorithm::kStds).TakeValue();
    QueryResult stps = engine.Execute(q, Algorithm::kStps).TakeValue();
    ASSERT_EQ(stds.entries.size(), 10u) << VariantName(v);
    ASSERT_EQ(stps.entries.size(), 10u) << VariantName(v);
    for (size_t i = 0; i < 10; ++i) {
      EXPECT_NEAR(stds.entries[i].score, stds.entries[0].score, 1e-12);
      EXPECT_NEAR(stps.entries[i].score, stds.entries[0].score, 1e-9);
    }
  }
}

TEST(StressTest, DegenerateAllFeaturesIdentical) {
  // One location, one score, one keyword for every feature: the indexes
  // collapse to a single hot spot.
  std::vector<DataObject> objects;
  Rng rng(93);
  for (uint32_t i = 0; i < 100; ++i) {
    objects.push_back({i, {rng.Uniform(), rng.Uniform()}, ""});
  }
  std::vector<FeatureObject> features;
  for (uint32_t i = 0; i < 200; ++i) {
    features.push_back({i, {0.25, 0.25}, 0.8, KeywordSet(4, {0}), ""});
  }
  std::vector<FeatureTable> tables;
  tables.emplace_back(std::move(features), 4);
  std::vector<DataObject> objects_copy = objects;
  Engine engine = Engine::Build(std::move(objects), std::move(tables), {}).TakeValue();
  Query q;
  q.k = 5;
  q.radius = 0.1;
  q.keywords = {KeywordSet(4, {0})};
  QueryResult r = engine.Execute(q, Algorithm::kStps).TakeValue();
  // Objects within 0.1 of (0.25, 0.25) score 0.4 + 0.5 = ... Jaccard = 1.
  double expected_score = 0.5 * 0.8 + 0.5 * 1.0;
  size_t in_range = 0;
  for (const DataObject& o : objects_copy) {
    if (Distance(o.pos, {0.25, 0.25}) <= 0.1) ++in_range;
  }
  ASSERT_EQ(r.entries.size(), 5u);  // the virtual combination fills up
  for (size_t i = 0; i < std::min<size_t>(in_range, 5); ++i) {
    EXPECT_NEAR(r.entries[i].score, expected_score, 1e-12);
  }
  for (size_t i = std::min<size_t>(in_range, 5); i < 5; ++i) {
    EXPECT_EQ(r.entries[i].score, 0.0);
  }
}

TEST(StressTest, ManySmallQueriesStaysConsistent) {
  // 200 tiny queries with rotating parameters: deterministic I/O counts
  // and monotone score lists throughout.
  SyntheticConfig cfg;
  cfg.num_objects = 400;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 24;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 200;
  qcfg.k = 5;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  for (const Query& q : queries) {
    QueryResult a = engine.Execute(q, Algorithm::kStps).TakeValue();
    QueryResult b = engine.Execute(q, Algorithm::kStps).TakeValue();
    ASSERT_EQ(a.entries.size(), b.entries.size());
    EXPECT_EQ(a.stats.TotalReads(), b.stats.TotalReads());
    for (size_t i = 1; i < a.entries.size(); ++i) {
      EXPECT_GE(a.entries[i - 1].score, a.entries[i].score - 1e-12);
    }
  }
}

}  // namespace
}  // namespace stpq
