// Tests for the extended public API: the incremental StpsCursor, result
// explanation, and index introspection.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "core/brute_force.h"
#include "core/cursor.h"
#include "core/engine.h"
#include "core/explain.h"
#include "core/score.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "index/index_stats.h"
#include "paper_example.h"

namespace stpq {
namespace {

namespace ex = testing_example;

std::vector<const FeatureTable*> TablePtrs(const Dataset& ds) {
  std::vector<const FeatureTable*> out;
  for (const FeatureTable& t : ds.feature_tables) out.push_back(&t);
  return out;
}

// ----------------------------------------------------------------- cursor

TEST(CursorTest, StreamsWholeDatasetInScoreOrder) {
  SyntheticConfig cfg;
  cfg.num_objects = 300;
  cfg.num_features_per_set = 200;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 40;
  Dataset ds = GenerateSynthetic(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  QueryWorkloadConfig qcfg;
  qcfg.count = 1;
  qcfg.radius = 0.05;
  Query q = GenerateQueries(ds, qcfg)[0];
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();

  std::unique_ptr<StpsCursor> cursor = engine.OpenCursor(q).TakeValue();
  std::set<ObjectId> seen;
  double prev = std::numeric_limits<double>::infinity();
  size_t count = 0;
  while (auto e = cursor->Next()) {
    EXPECT_LE(e->score, prev + 1e-9) << "cursor out of order";
    prev = e->score;
    EXPECT_TRUE(seen.insert(e->object).second) << "duplicate object";
    EXPECT_NEAR(e->score, brute.Tau(engine.objects()[e->object].pos, q),
                1e-9);
    ++count;
  }
  EXPECT_EQ(count, engine.objects().size());
  EXPECT_FALSE(cursor->Next().has_value());  // stays exhausted
}

TEST(CursorTest, PrefixMatchesTopK) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 5);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  QueryResult topk = engine.Execute(q, Algorithm::kStps).TakeValue();
  std::unique_ptr<StpsCursor> cursor = engine.OpenCursor(q).TakeValue();
  for (size_t i = 0; i < topk.entries.size(); ++i) {
    auto e = cursor->Next();
    ASSERT_TRUE(e.has_value());
    EXPECT_NEAR(e->score, topk.entries[i].score, 1e-12) << "rank " << i;
  }
}

TEST(CursorTest, AccumulatesStats) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 1);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  std::unique_ptr<StpsCursor> cursor = engine.OpenCursor(q).TakeValue();
  ASSERT_TRUE(cursor->Next().has_value());
  EXPECT_GT(cursor->stats().features_retrieved, 0u);
  EXPECT_GT(cursor->stats().combinations_emitted, 0u);
}

// ---------------------------------------------------------------- explain

TEST(ExplainTest, PaperExampleContributions) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 3);
  Engine engine = Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables),
                {}).TakeValue();
  // Hotel p6 (id 5): tau = s(Ontario's Pizza) + s(Royal Coffe Shop).
  Explanation e = ExplainScore(&engine, q, 5);
  EXPECT_NEAR(e.total, ex::kTopHotelScore, 1e-9);
  ASSERT_EQ(e.contributions.size(), 2u);
  ASSERT_TRUE(e.contributions[0].has_feature);
  EXPECT_EQ(ds.feature_tables[0].Get(e.contributions[0].feature).name,
            "Ontario's Pizza");
  EXPECT_NEAR(e.contributions[0].score, ex::kOntarioScore, 1e-12);
  EXPECT_NEAR(e.contributions[0].distance,
              Distance({6, 5.5}, {7, 6}), 1e-12);
  ASSERT_TRUE(e.contributions[1].has_feature);
  EXPECT_EQ(ds.feature_tables[1].Get(e.contributions[1].feature).name,
            "Royal Coffe Shop");
}

TEST(ExplainTest, NoFeatureContribution) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 3);
  q.radius = 0.5;  // nothing near hotel p7 at (10, 10)
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  Explanation e = ExplainScore(&engine, q, 6);
  EXPECT_EQ(e.total, 0.0);
  for (const Contribution& c : e.contributions) {
    EXPECT_FALSE(c.has_feature);
    EXPECT_EQ(c.score, 0.0);
  }
}

TEST(ExplainTest, MatchesQueryScoresForAllVariants) {
  SyntheticConfig cfg;
  cfg.num_objects = 150;
  cfg.num_features_per_set = 150;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 30;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 1;
  qcfg.radius = 0.05;
  std::vector<Query> queries;
  for (ScoreVariant v : {ScoreVariant::kRange, ScoreVariant::kInfluence,
                         ScoreVariant::kNearestNeighbor}) {
    qcfg.variant = v;
    queries.push_back(GenerateQueries(ds, qcfg)[0]);
  }
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  for (const Query& q : queries) {
    ScoreVariant v = q.variant;
    QueryResult r = engine.Execute(q, Algorithm::kStps).TakeValue();
    for (const ResultEntry& entry : r.entries) {
      Explanation e = ExplainScore(&engine, q, entry.object);
      EXPECT_NEAR(e.total, entry.score, 1e-9) << VariantName(v);
    }
  }
}

// -------------------------------------------------------------- validation

TEST(ValidationTest, ExecuteRejectsMalformedQueries) {
  Dataset ds = ex::ExampleDataset();
  Query good = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 3);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  EXPECT_TRUE(engine.Execute(good, Algorithm::kStps).ok());

  Query bad = good;
  bad.keywords.pop_back();  // keyword-set count != num_feature_sets()
  EXPECT_EQ(engine.Execute(bad, Algorithm::kStps).status().code(),
            StatusCode::kInvalidArgument);

  bad = good;
  bad.k = 0;
  EXPECT_EQ(engine.Execute(bad, Algorithm::kStds).status().code(),
            StatusCode::kInvalidArgument);

  bad = good;
  bad.radius = 0.0;
  EXPECT_EQ(engine.Execute(bad, Algorithm::kStps).status().code(),
            StatusCode::kInvalidArgument);
  // The NN variant ignores the radius, so the same radius is accepted.
  bad.variant = ScoreVariant::kNearestNeighbor;
  EXPECT_TRUE(engine.Execute(bad, Algorithm::kStps).ok());

  bad = good;
  bad.lambda = 1.5;
  EXPECT_EQ(engine.Execute(bad, Algorithm::kStps).status().code(),
            StatusCode::kInvalidArgument);
  bad.lambda = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.Execute(bad, Algorithm::kStps).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ValidationTest, OpenCursorRejectsMalformedAndNonRangeQueries) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 3);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  EXPECT_TRUE(engine.OpenCursor(q).ok());

  Query bad = q;
  bad.radius = -1.0;
  EXPECT_EQ(engine.OpenCursor(bad).status().code(),
            StatusCode::kInvalidArgument);
  bad = q;
  bad.variant = ScoreVariant::kInfluence;
  EXPECT_EQ(engine.OpenCursor(bad).status().code(),
            StatusCode::kInvalidArgument);
}

/// An engine over two 128-term feature sets, plus a valid query for it
/// whose second keyword set is then rebuilt over `universe` terms.
void ExpectUniverseRejected(uint32_t universe) {
  SyntheticConfig cfg;
  cfg.num_objects = 100;
  cfg.num_features_per_set = 200;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 128;
  cfg.num_clusters = 20;
  Dataset ds = GenerateSynthetic(cfg);
  Engine engine =
      Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  Query good;
  good.k = 5;
  good.radius = 0.05;
  good.keywords = {KeywordSet(128, {1, 2}), KeywordSet(128, {3})};
  ASSERT_TRUE(engine.Execute(good, Algorithm::kStps).ok());
  ASSERT_TRUE(engine.OpenCursor(good).ok());

  Query bad = good;
  bad.keywords[1] = KeywordSet(universe, {3});
  for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
    EXPECT_EQ(engine.Execute(bad, algo).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(engine.OpenCursor(bad).status().code(),
            StatusCode::kInvalidArgument);
}

// A query universe smaller than the feature table's would be read past its
// blocks by the keyword-set algebra.
TEST(ValidationTest, RejectsKeywordSetOverSmallerUniverse) {
  ExpectUniverseRejected(64);
}

// A larger one would have its extra terms silently ignored.
TEST(ValidationTest, RejectsKeywordSetOverLargerUniverse) {
  ExpectUniverseRejected(256);
}

TEST(ValidationTest, CreateRejectsBadOptionsAndBuildsGoodEngines) {
  Dataset ds = ex::ExampleDataset();

  EngineOptions bad;
  bad.build.page_size_bytes = 16;  // below the 64-byte minimum
  EXPECT_EQ(Engine::Build(ds.objects,
                           std::vector<FeatureTable>(ds.feature_tables), bad)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  bad = EngineOptions{};
  bad.build.fill = 0.0;
  EXPECT_FALSE(Engine::Build(ds.objects,
                              std::vector<FeatureTable>(ds.feature_tables),
                              bad)
                   .ok());

  bad = EngineOptions{};
  bad.build.signature_hashes = 0;
  EXPECT_FALSE(Engine::Build(ds.objects,
                              std::vector<FeatureTable>(ds.feature_tables),
                              bad)
                   .ok());

  // A valid configuration builds a working engine that survives the move
  // out of the Result.
  Result<Engine> built = Engine::Build(
      ds.objects, std::vector<FeatureTable>(ds.feature_tables), {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = built.TakeValue();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 3);
  QueryResult r = engine.Execute(q, Algorithm::kStps).TakeValue();
  EXPECT_FALSE(r.entries.empty());
}

// STPS keeps per-feature-set state in arrays of kMaxFeatureSets, so an
// engine over more tables is refused by Build (CheckBuildParams, which
// Open and both index writers share: io_test, bulk_load_test), and one
// over exactly that many answers every variant (influence in the default
// anchored mode), the cursor and STDS exactly.
TEST(ValidationTest, EngineAcceptsAtMostMaxFeatureSets) {
  SyntheticConfig cfg;
  cfg.num_objects = 100;
  cfg.num_features_per_set = 15;
  cfg.num_feature_sets = kMaxFeatureSets + 1;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 10;
  Dataset ds = GenerateSynthetic(cfg);
  Result<Engine> too_many = Engine::Build(
      ds.objects, std::vector<FeatureTable>(ds.feature_tables), {});
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);

  ds.feature_tables.pop_back();
  ds.vocabularies.pop_back();
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  Result<Engine> built = Engine::Build(
      ds.objects, std::vector<FeatureTable>(ds.feature_tables), {});
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Engine engine = built.TakeValue();
  QueryWorkloadConfig qcfg;
  qcfg.count = 2;
  qcfg.k = 5;
  qcfg.radius = 0.2;
  qcfg.keywords_per_set = 2;
  for (ScoreVariant variant :
       {ScoreVariant::kRange, ScoreVariant::kInfluence,
        ScoreVariant::kNearestNeighbor}) {
    qcfg.variant = variant;
    for (const Query& q : GenerateQueries(ds, qcfg)) {
      std::vector<ResultEntry> expected = brute.TopK(q);
      for (Algorithm algo : {Algorithm::kStps, Algorithm::kStds}) {
        QueryResult got = engine.Execute(q, algo).TakeValue();
        ASSERT_EQ(got.entries.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_NEAR(got.entries[i].score, expected[i].score, 1e-9)
              << "variant " << static_cast<int>(variant) << " rank " << i;
        }
      }
      if (variant != ScoreVariant::kRange) continue;
      std::unique_ptr<StpsCursor> cursor = engine.OpenCursor(q).TakeValue();
      for (const ResultEntry& e : expected) {
        std::optional<ResultEntry> next = cursor->Next();
        ASSERT_TRUE(next.has_value());
        EXPECT_NEAR(next->score, e.score, 1e-9);
      }
    }
  }
}

TEST(ValidationTest, BuiltEngineServesTheSimulatedStore) {
  Dataset ds = ex::ExampleDataset();

  // Build is in-memory only (the file backend comes from Engine::Open): a
  // built engine reports the simulated store behind its pools.
  Engine engine = Engine::Build(
      ds.objects, std::vector<FeatureTable>(ds.feature_tables), {})
      .TakeValue();
  EXPECT_EQ(engine.page_store().backend(), StorageBackend::kSimulated);
}

// ------------------------------------------------------------ index stats

TEST(IndexStatsTest, ReportsStructure) {
  SyntheticConfig cfg;
  cfg.num_objects = 0;
  cfg.num_features_per_set = 3000;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 64;
  cfg.num_clusters = 200;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;
  SrtIndex srt(&ds.feature_tables[0], opts);
  IndexStatsReport r = AnalyzeIndex(srt);
  EXPECT_EQ(r.record_count, 3000u);
  EXPECT_GE(r.height, 2u);
  EXPECT_GT(r.leaf_count, 0u);
  EXPECT_GT(r.avg_leaf_fill, 0.5);  // bulk-loaded: nearly full
  EXPECT_FALSE(r.ToString().empty());
}

TEST(IndexStatsTest, SrtLeavesClusterScoreAndText) {
  // The quantified Section-4.2 claim: SRT leaves have smaller score spread
  // and fewer distinct keywords than the spatial-only IR2 leaves.
  SyntheticConfig cfg;
  cfg.num_objects = 0;
  cfg.num_features_per_set = 5000;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 64;
  cfg.num_clusters = 300;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;
  SrtIndex srt(&ds.feature_tables[0], opts);
  Ir2Tree ir2(&ds.feature_tables[0], opts);
  IndexStatsReport rs = AnalyzeIndex(srt);
  IndexStatsReport ri = AnalyzeIndex(ir2);
  EXPECT_LT(rs.avg_leaf_score_spread, ri.avg_leaf_score_spread);
  EXPECT_LT(rs.avg_leaf_keyword_count, ri.avg_leaf_keyword_count);
  // The price: SRT leaves are spatially wider.
  EXPECT_GT(rs.avg_leaf_spatial_margin, ri.avg_leaf_spatial_margin);
}

}  // namespace
}  // namespace stpq
