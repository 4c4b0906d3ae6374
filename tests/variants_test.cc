// Tests for the influence and nearest-neighbor score variants (Section 7):
// Voronoi cells, per-variant score computation, and STDS/STPS agreement
// with brute force.
#include <gtest/gtest.h>

#include <set>

#include "core/brute_force.h"
#include "core/combination.h"
#include "core/compute_score.h"
#include "core/engine.h"
#include "core/score.h"
#include "core/voronoi.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "index/srt_index.h"
#include "paper_example.h"
#include "util/rng.h"

namespace stpq {
namespace {

namespace ex = testing_example;

std::vector<const FeatureTable*> TablePtrs(const Dataset& ds) {
  std::vector<const FeatureTable*> out;
  for (const FeatureTable& t : ds.feature_tables) out.push_back(&t);
  return out;
}

void ExpectSameScores(const std::vector<ResultEntry>& got,
                      const std::vector<ResultEntry>& want,
                      const char* label, double tol = 1e-9) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, want[i].score, tol) << label << " rank " << i;
  }
}

// ----------------------------------------------------------- score compute

TEST(InfluenceScoreTest, MatchesBruteForce) {
  SyntheticConfig cfg;
  cfg.num_objects = 60;
  cfg.num_features_per_set = 600;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 50;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;
  SrtIndex index(&ds.feature_tables[0], opts);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  Query q;
  q.variant = ScoreVariant::kInfluence;
  q.radius = 0.05;
  q.lambda = 0.5;
  q.keywords = {KeywordSet(32, {0, 1, 2})};
  QueryStats stats;
  TraversalScratch scratch;
  for (const DataObject& o : ds.objects) {
    double got = ComputeScoreInfluence(index, o.pos, q.keywords[0], q.lambda,
                                       q.radius, stats, scratch);
    EXPECT_NEAR(got, brute.ComponentScore(o.pos, 0, q), 1e-12);
  }
}

TEST(InfluenceScoreTest, DecaysWithDistance) {
  // A feature at distance r contributes half its preference score.
  EXPECT_DOUBLE_EQ(InfluenceFactor(0.0, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(InfluenceFactor(0.01, 0.01), 0.5);
  EXPECT_DOUBLE_EQ(InfluenceFactor(0.02, 0.01), 0.25);
}

TEST(NnScoreTest, MatchesBruteForce) {
  SyntheticConfig cfg;
  cfg.num_objects = 60;
  cfg.num_features_per_set = 600;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 50;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;
  SrtIndex index(&ds.feature_tables[0], opts);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  Query q;
  q.variant = ScoreVariant::kNearestNeighbor;
  q.lambda = 0.5;
  q.keywords = {KeywordSet(32, {0, 1, 2})};
  QueryStats stats;
  TraversalScratch scratch;
  for (const DataObject& o : ds.objects) {
    double got = ComputeScoreNearestNeighbor(index, o.pos, q.keywords[0],
                                             q.lambda, stats, scratch);
    EXPECT_NEAR(got, brute.ComponentScore(o.pos, 0, q), 1e-12);
  }
}

TEST(NnScoreTest, IgnoresIrrelevantNearerFeature) {
  // A closer feature with sim = 0 must not mask the nearest relevant one.
  std::vector<FeatureObject> f;
  f.push_back({0, {0.50, 0.5}, 0.9, KeywordSet(4, {0}), "near-irrelevant"});
  f.push_back({0, {0.60, 0.5}, 0.6, KeywordSet(4, {1}), "far-relevant"});
  FeatureTable table(std::move(f), 4);
  IndexBuildParams opts;
  SrtIndex index(&table, opts);
  KeywordSet query(4, {1});
  QueryStats stats;
  TraversalScratch scratch;
  double got = ComputeScoreNearestNeighbor(index, {0.49, 0.5}, query, 0.5,
                                           stats, scratch);
  EXPECT_NEAR(got, 0.5 * 0.6 + 0.5 * 1.0, 1e-12);
}

TEST(NnScoreTest, EquidistantTieBreaksByPreferenceScore) {
  // p = (0.5, 0.5) with features at x = 0.4 and x = 0.6: neither feature
  // coordinate is exactly representable in binary, but both subtractions
  // are exact (Sterbenz) and round to the same double, so the squared
  // distances tie bit-for-bit.  Definition 7's tie rule: the larger s(t)
  // wins — regardless of which feature the traversal visits first.
  const Point p{0.5, 0.5};
  ASSERT_EQ(SquaredDistance(p, Point{0.4, 0.5}),
            SquaredDistance(p, Point{0.6, 0.5}));
  const double expected = 0.5 * 0.8 + 0.5 * 1.0;  // s(t) of the 0.8 feature
  for (bool high_first : {false, true}) {
    std::vector<FeatureObject> f;
    f.push_back({0, {0.4, 0.5}, high_first ? 0.8 : 0.2,
                 KeywordSet(4, {1}), "left"});
    f.push_back({0, {0.6, 0.5}, high_first ? 0.2 : 0.8,
                 KeywordSet(4, {1}), "right"});
    FeatureTable table(std::move(f), 4);
    IndexBuildParams opts;
    SrtIndex index(&table, opts);
    KeywordSet query(4, {1});
    QueryStats stats;
    TraversalScratch scratch;
    BestFeature best =
        ComputeBestNearestNeighbor(index, p, query, 0.5, stats, scratch);
    EXPECT_EQ(best.feature, high_first ? 0u : 1u)
        << "high_first=" << high_first;
    EXPECT_NEAR(best.score, expected, 1e-12);
    EXPECT_NEAR(ComputeScoreNearestNeighbor(index, p, query, 0.5, stats,
                                            scratch),
                expected, 1e-12);
  }
}

// ----------------------------------------------------------------- Voronoi

TEST(VoronoiTest, CellContainsExactlyNearestRegion) {
  SyntheticConfig cfg;
  cfg.num_objects = 0;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 8;
  cfg.num_clusters = 40;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;
  SrtIndex index(&ds.feature_tables[0], opts);
  KeywordSet query(8, {0, 1});
  Rect2 domain = MakeRect2(0, 0, 1, 1);
  Rng rng(71);
  QueryStats stats;
  TraversalScratch scratch;
  // Pick several relevant features and verify their cells pointwise.
  std::vector<ObjectId> relevant;
  for (const FeatureObject& t : ds.feature_tables[0].All()) {
    if (t.keywords.Intersects(query)) relevant.push_back(t.id);
  }
  ASSERT_GE(relevant.size(), 5u);
  for (int c = 0; c < 5; ++c) {
    ObjectId center = relevant[rng.UniformInt(0, relevant.size() - 1)];
    VoronoiCell voronoi;
    ComputeVoronoiCell(index, center, query, 0.5, domain, stats, scratch,
                       &voronoi);
    const ConvexPolygon& cell = voronoi.polygon;
    const Point cpos = ds.feature_tables[0].Get(center).pos;
    for (int s = 0; s < 200; ++s) {
      Point p{rng.Uniform(), rng.Uniform()};
      // Brute-force nearest relevant feature.
      double best_d2 = 1e18;
      ObjectId best = kVirtualFeature;
      for (ObjectId id : relevant) {
        double d2 = SquaredDistance(p, ds.feature_tables[0].Get(id).pos);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = id;
        }
      }
      bool in_cell = cell.Contains(p);
      bool is_nearest = best == center;
      double margin =
          std::abs(std::sqrt(best_d2) - Distance(p, cpos));
      if (margin > 1e-9) {  // skip razor-thin boundary ties
        EXPECT_EQ(in_cell, is_nearest)
            << "center " << center << " point (" << p.x << "," << p.y << ")";
      }
    }
  }
  EXPECT_EQ(stats.voronoi_cells, 5u);
  EXPECT_GT(stats.voronoi_clip_features, 0u);
}

TEST(VoronoiTest, SingleFeatureOwnsWholeDomain) {
  std::vector<FeatureObject> f;
  f.push_back({0, {0.5, 0.5}, 1.0, KeywordSet(4, {0}), {}});
  FeatureTable table(std::move(f), 4);
  IndexBuildParams opts;
  SrtIndex index(&table, opts);
  KeywordSet query(4, {0});
  QueryStats stats;
  TraversalScratch scratch;
  VoronoiCell cell;
  ComputeVoronoiCell(index, 0, query, 0.5, MakeRect2(0, 0, 1, 1), stats,
                     scratch, &cell);
  EXPECT_NEAR(cell.polygon.Area(), 1.0, 1e-12);
}

TEST(VoronoiTest, IntersectConvexMatchesSequentialClipping) {
  std::vector<Point> buffer;
  ConvexPolygon a = ConvexPolygon::FromRect(MakeRect2(0, 0, 0.6, 0.6));
  ConvexPolygon b = ConvexPolygon::FromRect(MakeRect2(0.4, 0.4, 1, 1));
  IntersectConvex(&a, b, &buffer);
  EXPECT_NEAR(a.Area(), 0.04, 1e-12);
  EXPECT_TRUE(a.Contains({0.5, 0.5}));
  EXPECT_FALSE(a.Contains({0.3, 0.3}));
  // Disjoint intersection is empty.
  ConvexPolygon c = ConvexPolygon::FromRect(MakeRect2(0, 0, 0.2, 0.2));
  ConvexPolygon d = ConvexPolygon::FromRect(MakeRect2(0.5, 0.5, 1, 1));
  IntersectConvex(&c, d, &buffer);
  EXPECT_TRUE(c.IsEmpty());
  // Intersection with empty is empty.
  ConvexPolygon e = ConvexPolygon::FromRect(MakeRect2(0, 0, 1, 1));
  IntersectConvex(&e, ConvexPolygon(), &buffer);
  EXPECT_TRUE(e.IsEmpty());
}

// ------------------------------------------------- full-query agreement

struct VariantParam {
  ScoreVariant variant;
  FeatureIndexKind kind;
  uint32_t c;
  uint32_t k;
  double lambda;
};

class VariantAgreementTest : public ::testing::TestWithParam<VariantParam> {};

TEST_P(VariantAgreementTest, StdsStpsBruteForceAgree) {
  const VariantParam& p = GetParam();
  SyntheticConfig cfg;
  cfg.seed = 2000 + static_cast<int>(p.variant) * 10 + p.c;
  cfg.num_objects = 250;
  cfg.num_features_per_set = 200;
  cfg.num_feature_sets = p.c;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 40;
  cfg.cluster_stddev = 0.02;
  Dataset ds = GenerateSynthetic(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  QueryWorkloadConfig qcfg;
  qcfg.count = 4;
  qcfg.k = p.k;
  qcfg.radius = 0.05;
  qcfg.lambda = p.lambda;
  qcfg.variant = p.variant;
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
    Sweep, VariantAgreementTest,
    ::testing::Values(
        VariantParam{ScoreVariant::kInfluence, FeatureIndexKind::kSrt, 1, 10,
                     0.5},
        VariantParam{ScoreVariant::kInfluence, FeatureIndexKind::kSrt, 2, 10,
                     0.5},
        VariantParam{ScoreVariant::kInfluence, FeatureIndexKind::kSrt, 3, 5,
                     0.3},
        VariantParam{ScoreVariant::kInfluence, FeatureIndexKind::kIr2, 2, 10,
                     0.5},
        VariantParam{ScoreVariant::kInfluence, FeatureIndexKind::kSrt, 2, 40,
                     0.9},
        VariantParam{ScoreVariant::kNearestNeighbor, FeatureIndexKind::kSrt,
                     1, 10, 0.5},
        VariantParam{ScoreVariant::kNearestNeighbor, FeatureIndexKind::kSrt,
                     2, 10, 0.5},
        VariantParam{ScoreVariant::kNearestNeighbor, FeatureIndexKind::kSrt,
                     2, 5, 0.0},
        VariantParam{ScoreVariant::kNearestNeighbor, FeatureIndexKind::kIr2,
                     2, 10, 0.5},
        VariantParam{ScoreVariant::kNearestNeighbor, FeatureIndexKind::kSrt,
                     3, 5, 0.7}),
    [](const ::testing::TestParamInfo<VariantParam>& param_info) {
      const VariantParam& p = param_info.param;
      return std::string(VariantName(p.variant)) + "_" +
             (p.kind == FeatureIndexKind::kSrt ? "srt" : "ir2") + "_c" +
             std::to_string(p.c) + "_k" + std::to_string(p.k) + "_i" +
             std::to_string(param_info.index);
    });

// ------------------------------------------------------- paper example

TEST(VariantPaperExample, InfluenceRanksSameTopHotelsHigh) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 3);
  q.variant = ScoreVariant::kInfluence;
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  std::vector<ResultEntry> expected = brute.TopK(q);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, expected, "influence");
  // Influence scores are below the range scores (distance decay).
  for (const ResultEntry& e : expected) {
    EXPECT_LT(e.score, ex::kTopHotelScore);
    EXPECT_GT(e.score, 0.0);
  }
}

TEST(VariantPaperExample, NearestNeighborAgreesWithBruteForce) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 10);
  q.variant = ScoreVariant::kNearestNeighbor;
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  std::vector<ResultEntry> expected = brute.TopK(q);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  ExpectSameScores(engine.Execute(q, Algorithm::kStds).TakeValue().entries, expected, "STDS nn");
  ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, expected, "STPS nn");
}

// ----------------------------------------------------------- edge cases

TEST(InfluenceModesTest, AnchoredAndCombinationModesAgree) {
  // The anchored strategy must return exactly the same top-k scores as the
  // paper's Algorithm 5 (both are exact; ties may reorder objects).
  SyntheticConfig cfg;
  cfg.num_objects = 300;
  cfg.num_features_per_set = 250;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 40;
  cfg.cluster_stddev = 0.02;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 5;
  qcfg.variant = ScoreVariant::kInfluence;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  EngineOptions anchored;
  anchored.influence_mode = InfluenceMode::kAnchored;
  EngineOptions combos;
  combos.influence_mode = InfluenceMode::kCombinations;
  Engine a = Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables),
           anchored).TakeValue();
  Engine b = Engine::Build(ds.objects, std::move(ds.feature_tables), combos).TakeValue();
  for (const Query& q : queries) {
    ExpectSameScores(a.Execute(q, Algorithm::kStps).TakeValue().entries, b.Execute(q, Algorithm::kStps).TakeValue().entries,
                     "influence modes");
  }
}

TEST(InfluenceModesTest, AnchoredAvoidsCombinationEnumeration) {
  SyntheticConfig cfg;
  cfg.num_objects = 2000;
  cfg.num_features_per_set = 2000;
  cfg.num_feature_sets = 3;
  cfg.vocabulary_size = 64;
  cfg.num_clusters = 200;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 2;
  qcfg.variant = ScoreVariant::kInfluence;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  for (const Query& q : queries) {
    QueryResult r = engine.Execute(q, Algorithm::kStps).TakeValue();
    EXPECT_EQ(r.stats.combinations_emitted, 0u);
    EXPECT_GT(r.stats.objects_scored, 0u);
  }
}

TEST(VariantEdgeCases, InfluenceWithNoRelevantFeatures) {
  Dataset ds = ex::ExampleDataset();
  Query q;
  q.k = 3;
  q.radius = 3.5;
  q.variant = ScoreVariant::kInfluence;
  q.keywords.push_back(KeywordSet(ds.feature_tables[0].universe_size()));
  q.keywords.push_back(KeywordSet(ds.feature_tables[1].universe_size()));
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  QueryResult r = engine.Execute(q, Algorithm::kStps).TakeValue();
  ASSERT_EQ(r.entries.size(), 3u);
  for (const auto& e : r.entries) EXPECT_EQ(e.score, 0.0);
}

TEST(VariantEdgeCases, NnWithOneEmptyFeatureSet) {
  // Second feature set has no relevant features: tau_2 = 0 for everyone,
  // ranking degenerates to the restaurant component only.
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1], 5);
  q.variant = ScoreVariant::kNearestNeighbor;
  q.keywords[1] = KeywordSet(ds.feature_tables[1].universe_size());
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  std::vector<ResultEntry> expected = brute.TopK(q);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, expected, "nn empty set");
}

TEST(VariantEdgeCases, NnNearTieGoesToTheNearerFeature) {
  // Object 0 at (0.5, 0.5) is 0.01 from B and 0.01 + 1e-9 from A, in
  // opposite directions.  That is inside the slack of ConvexPolygon's
  // Contains test on the A/B bisector, so A's polygon admits object 0;
  // but its nearest relevant feature is B, so tau = s(B) = 0.55, not
  // s(A) = 1.0.
  const double da = 0.01 + 1e-9;
  std::vector<FeatureObject> f;
  f.push_back({0, {0.5 + 0.6 * da, 0.5 + 0.8 * da}, 1.0, KeywordSet(4, {1}),
               "A"});
  f.push_back({0, {0.494, 0.492}, 0.1, KeywordSet(4, {1}), "B"});
  std::vector<FeatureTable> tables;
  tables.emplace_back(std::move(f), 4);
  std::vector<DataObject> objects = {
      {0, {0.5, 0.5}, ""}, {0, {0.0, 0.0}, ""}, {0, {1.0, 1.0}, ""}};
  Query q;
  q.k = 3;
  q.lambda = 0.5;
  q.variant = ScoreVariant::kNearestNeighbor;
  q.keywords.push_back(KeywordSet(4, {1}));
  BruteForceEvaluator brute(&objects, {&tables[0]});
  ASSERT_NEAR(brute.Tau(objects[0].pos, q), 0.55, 1e-12);

  Engine engine = Engine::Build(objects, tables, {}).TakeValue();
  for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
    QueryResult r = engine.Execute(q, algo).TakeValue();
    ASSERT_EQ(r.entries.size(), 3u);
    for (const ResultEntry& e : r.entries) {
      EXPECT_NEAR(e.score, brute.Tau(objects[e.object].pos, q), 1e-12)
          << "object " << e.object << " algorithm "
          << static_cast<int>(algo);
    }
  }
}

TEST(VariantEdgeCases, NnVoronoiStatsPopulated) {
  SyntheticConfig cfg;
  cfg.num_objects = 300;
  cfg.num_features_per_set = 200;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 30;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 1;
  qcfg.variant = ScoreVariant::kNearestNeighbor;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  QueryResult r = engine.Execute(queries[0], Algorithm::kStps).TakeValue();
  EXPECT_GT(r.stats.voronoi_cells, 0u);
  EXPECT_GT(r.stats.PhaseMillis(QueryPhase::kVoronoi), 0.0);
}

}  // namespace
}  // namespace stpq
