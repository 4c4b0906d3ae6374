// Cross-module integration tests: full engine runs on generated workloads,
// SRT/IR2 result equality, variant relationships, and larger randomized
// agreement sweeps than the per-module tests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/score.h"
#include "gen/queries.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"

namespace stpq {
namespace {

std::vector<const FeatureTable*> TablePtrs(const Dataset& ds) {
  std::vector<const FeatureTable*> out;
  for (const FeatureTable& t : ds.feature_tables) out.push_back(&t);
  return out;
}

void ExpectSameScores(const std::vector<ResultEntry>& got,
                      const std::vector<ResultEntry>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, want[i].score, 1e-9) << label << " rank " << i;
  }
}

TEST(IntegrationTest, SrtAndIr2ReturnIdenticalResults) {
  // The index is a performance choice, never a correctness one.
  SyntheticConfig cfg;
  cfg.num_objects = 1500;
  cfg.num_features_per_set = 1200;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 48;
  cfg.num_clusters = 120;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 8;
  qcfg.radius = 0.04;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  EngineOptions srt_opts;
  srt_opts.build.index_kind = FeatureIndexKind::kSrt;
  EngineOptions ir2_opts;
  ir2_opts.build.index_kind = FeatureIndexKind::kIr2;
  Engine srt = Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables),
             srt_opts).TakeValue();
  Engine ir2 = Engine::Build(ds.objects, std::move(ds.feature_tables), ir2_opts).TakeValue();
  for (const Query& q : queries) {
    ExpectSameScores(srt.Execute(q, Algorithm::kStps).TakeValue().entries, ir2.Execute(q, Algorithm::kStps).TakeValue().entries,
                     "SRT vs IR2");
  }
}

TEST(IntegrationTest, PullingStrategiesReturnIdenticalResults) {
  SyntheticConfig cfg;
  cfg.num_objects = 800;
  cfg.num_features_per_set = 600;
  cfg.num_feature_sets = 3;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 80;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 6;
  qcfg.radius = 0.05;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  EngineOptions pri;
  pri.pulling = PullingStrategy::kPrioritized;
  EngineOptions rr;
  rr.pulling = PullingStrategy::kRoundRobin;
  Engine a = Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables), pri).TakeValue();
  Engine b = Engine::Build(ds.objects, std::move(ds.feature_tables), rr).TakeValue();
  for (const Query& q : queries) {
    ExpectSameScores(a.Execute(q, Algorithm::kStps).TakeValue().entries, b.Execute(q, Algorithm::kStps).TakeValue().entries,
                     "pulling strategies");
  }
}

TEST(IntegrationTest, RealLikeWorkloadAllVariantsAgreeWithBruteForce) {
  RealLikeConfig cfg;
  cfg.scale = 0.02;  // 500 hotels, 1580 restaurants, 600 cafes
  Dataset ds = GenerateRealLike(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  Engine engine = Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables),
                {}).TakeValue();
  for (ScoreVariant variant :
       {ScoreVariant::kRange, ScoreVariant::kInfluence,
        ScoreVariant::kNearestNeighbor}) {
    QueryWorkloadConfig qcfg;
    qcfg.count = 4;
    qcfg.radius = 0.02;
    qcfg.variant = variant;
    std::vector<Query> queries = GenerateQueries(ds, qcfg);
    for (const Query& q : queries) {
      std::vector<ResultEntry> expected = brute.TopK(q);
      ExpectSameScores(engine.Execute(q, Algorithm::kStds).TakeValue().entries, expected,
                       std::string("STDS ") + VariantName(variant));
      ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, expected,
                       std::string("STPS ") + VariantName(variant));
    }
  }
}

TEST(IntegrationTest, FiveFeatureSets) {
  // The paper sweeps c up to 5 (Table 2).
  SyntheticConfig cfg;
  cfg.num_objects = 300;
  cfg.num_features_per_set = 150;
  cfg.num_feature_sets = 5;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 40;
  cfg.cluster_stddev = 0.02;
  Dataset ds = GenerateSynthetic(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  QueryWorkloadConfig qcfg;
  qcfg.count = 3;
  qcfg.radius = 0.06;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  for (const Query& q : queries) {
    std::vector<ResultEntry> expected = brute.TopK(q);
    ExpectSameScores(engine.Execute(q, Algorithm::kStds).TakeValue().entries, expected, "STDS c=5");
    ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, expected, "STPS c=5");
  }
}

TEST(IntegrationTest, RangeScoreDominatesInfluenceScore) {
  // For identical queries, influence scores are <= 2^0-weighted range-style
  // maxima but relative ranking may differ; here we just sanity-check both
  // pipelines run and return monotone score lists.
  SyntheticConfig cfg;
  cfg.num_objects = 500;
  cfg.num_features_per_set = 400;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 3;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  for (Query q : queries) {
    for (ScoreVariant v : {ScoreVariant::kRange, ScoreVariant::kInfluence,
                           ScoreVariant::kNearestNeighbor}) {
      q.variant = v;
      QueryResult r = engine.Execute(q, Algorithm::kStps).TakeValue();
      for (size_t i = 1; i < r.entries.size(); ++i) {
        EXPECT_GE(r.entries[i - 1].score, r.entries[i].score - 1e-12)
            << VariantName(v);
      }
      // tau(p) is a sum over c in-[0,1] components.
      for (const ResultEntry& e : r.entries) {
        EXPECT_GE(e.score, 0.0);
        EXPECT_LE(e.score, 2.0 + 1e-12);
      }
    }
  }
}

TEST(IntegrationTest, SmallBufferPoolStillCorrect) {
  SyntheticConfig cfg;
  cfg.num_objects = 1000;
  cfg.num_features_per_set = 800;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  Dataset ds = GenerateSynthetic(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  QueryWorkloadConfig qcfg;
  qcfg.count = 3;
  qcfg.radius = 0.04;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  EngineOptions opts;
  opts.pool_capacity = 8;  // pathologically small LRU
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), opts).TakeValue();
  for (const Query& q : queries) {
    ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, brute.TopK(q),
                     "tiny pool");
  }
}

TEST(IntegrationTest, SmallPageSizeDeepTreesStillCorrect) {
  SyntheticConfig cfg;
  cfg.num_objects = 600;
  cfg.num_features_per_set = 500;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  Dataset ds = GenerateSynthetic(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  QueryWorkloadConfig qcfg;
  qcfg.count = 3;
  qcfg.radius = 0.05;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  EngineOptions opts;
  opts.build.page_size_bytes = 256;  // fan-out floors at 4: deep trees
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), opts).TakeValue();
  for (const Query& q : queries) {
    ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, brute.TopK(q),
                     "deep trees");
  }
}

TEST(IntegrationTest, ResultEntriesCarryValidObjectIds) {
  SyntheticConfig cfg;
  cfg.num_objects = 400;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = 2;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 2;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  for (const Query& q : queries) {
    QueryResult r = engine.Execute(q, Algorithm::kStps).TakeValue();
    std::set<ObjectId> seen;
    for (const ResultEntry& e : r.entries) {
      EXPECT_LT(e.object, engine.objects().size());
      EXPECT_TRUE(seen.insert(e.object).second) << "duplicate object";
    }
  }
}

// Pooled execution sessions (DESIGN.md §13).  Execute leases a session
// that earlier queries used; the query's answer and every cost counter must
// be those of a fresh engine, on both backends, and a move-constructed
// engine must keep its pool and answer identically.
Dataset SessionPoolDataset() {
  SyntheticConfig cfg;
  cfg.seed = 23;
  cfg.num_objects = 700;
  cfg.num_features_per_set = 600;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 40;
  return GenerateSynthetic(cfg);
}

bool SameCounts(const TreeTraversalCounts& a, const TreeTraversalCounts& b) {
  return std::equal(std::begin(a.visited), std::end(a.visited),
                    std::begin(b.visited)) &&
         std::equal(std::begin(a.pruned), std::end(a.pruned),
                    std::begin(b.pruned)) &&
         std::equal(std::begin(a.descended), std::end(a.descended),
                    std::begin(b.descended));
}

void ExpectSameRun(const QueryResult& got, const QueryResult& want,
                   const std::string& label) {
  EXPECT_EQ(got.entries, want.entries) << label;
  const QueryStats& g = got.stats;
  const QueryStats& w = want.stats;
  EXPECT_EQ(g.object_index_reads, w.object_index_reads) << label;
  EXPECT_EQ(g.feature_index_reads, w.feature_index_reads) << label;
  EXPECT_EQ(g.buffer_hits, w.buffer_hits) << label;
  EXPECT_EQ(g.heap_pushes, w.heap_pushes) << label;
  EXPECT_EQ(g.features_retrieved, w.features_retrieved) << label;
  EXPECT_EQ(g.combinations_generated, w.combinations_generated) << label;
  EXPECT_EQ(g.combinations_emitted, w.combinations_emitted) << label;
  EXPECT_EQ(g.objects_scored, w.objects_scored) << label;
  EXPECT_EQ(g.voronoi_cells, w.voronoi_cells) << label;
  EXPECT_EQ(g.voronoi_reads, w.voronoi_reads) << label;
  EXPECT_TRUE(SameCounts(g.traversal.object_tree, w.traversal.object_tree))
      << label;
  for (size_t i = 0; i < kMaxProfiledFeatureSets; ++i) {
    EXPECT_TRUE(
        SameCounts(g.traversal.feature_tree[i], w.traversal.feature_tree[i]))
        << label << " feature set " << i;
  }
}

TEST(SessionPoolTest, LeasedSessionRunsQueriesAsAFreshEngine) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("stpq_session_pool_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const Dataset ds = SessionPoolDataset();
  // Unrelated traffic between the checked queries: every variant, another
  // radius, k and keyword draw.
  std::vector<Query> noise;
  QueryWorkloadConfig ncfg;
  ncfg.seed = 501;
  ncfg.count = 1;
  ncfg.k = 7;
  ncfg.radius = 0.08;
  for (ScoreVariant v : {ScoreVariant::kNearestNeighbor,
                         ScoreVariant::kRange, ScoreVariant::kInfluence}) {
    ncfg.variant = v;
    ++ncfg.seed;
    for (Query& q : GenerateQueries(ds, ncfg)) noise.push_back(std::move(q));
  }

  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    EngineOptions opts;
    opts.build.index_kind = kind;
    const std::string path = (dir / "pool.stpqx").string();
    {
      Dataset d = SessionPoolDataset();
      Engine saver = Engine::Build(std::move(d.objects),
                                   std::move(d.feature_tables), opts)
                         .TakeValue();
      ASSERT_TRUE(saver.Save(path).ok());
    }
    for (bool file_backed : {false, true}) {
      auto make_engine = [&]() {
        if (file_backed) return Engine::Open(path, opts).TakeValue();
        Dataset d = SessionPoolDataset();
        return Engine::Build(std::move(d.objects),
                             std::move(d.feature_tables), opts)
            .TakeValue();
      };
      struct Checked {
        Query query;
        Algorithm algorithm;
        QueryResult want;
        std::string label;
      };
      std::vector<Checked> checked;
      Engine shared = make_engine();
      for (ScoreVariant variant :
           {ScoreVariant::kRange, ScoreVariant::kInfluence,
            ScoreVariant::kNearestNeighbor}) {
        QueryWorkloadConfig qcfg;
        qcfg.seed = 17;
        qcfg.count = 2;
        qcfg.radius = 0.04;
        qcfg.variant = variant;
        for (const Query& q : GenerateQueries(ds, qcfg)) {
          for (Algorithm alg : {Algorithm::kStds, Algorithm::kStps}) {
            const std::string label =
                std::string(kind == FeatureIndexKind::kSrt ? "SRT" : "IR2") +
                (file_backed ? "/file/" : "/memory/") +
                VariantName(variant) +
                (alg == Algorithm::kStds ? "/STDS" : "/STPS");
            QueryResult want = make_engine().Execute(q, alg).TakeValue();
            for (const Query& n : noise) {
              ASSERT_TRUE(shared.Execute(n, Algorithm::kStps).ok());
              ASSERT_TRUE(shared.Execute(n, Algorithm::kStds).ok());
            }
            ExpectSameRun(shared.Execute(q, alg).TakeValue(), want, label);
            checked.push_back(Checked{q, alg, std::move(want), label});
          }
        }
      }
      Engine moved(std::move(shared));
      for (const Checked& c : checked) {
        ExpectSameRun(moved.Execute(c.query, c.algorithm).TakeValue(),
                      c.want, c.label + "/moved");
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stpq
