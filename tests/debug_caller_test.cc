// A caller built without NDEBUG against the library in any build type.
//
// CMake compiles this file with -UNDEBUG whatever the build type, so in a
// Release build it sees the library's headers as a debug embedder does
// while the library itself was compiled with NDEBUG.  Every type the two
// share must then have one layout: the test constructs an
// ExecutionSession here and hands its TraversalScratch to the library's
// component-score searches and sorted feature streams, which would read
// and write past (or into) its members if the relevant-children memo were
// laid out differently on either side, and queries through the engine,
// whose sessions the library creates and destroys with the inline
// functions either side may have emitted.  Each result is checked against
// the brute-force evaluator.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/combination.h"
#include "core/compute_score.h"
#include "core/engine.h"
#include "core/exec_session.h"
#include "core/score.h"
#include "gen/synthetic.h"
#include "util/rng.h"

#ifdef NDEBUG
#error "debug_caller_test must be compiled without NDEBUG"
#endif

namespace stpq {
namespace {

constexpr uint32_t kVocabulary = 24;

Dataset SmallDataset() {
  SyntheticConfig cfg;
  cfg.seed = 5;
  cfg.num_objects = 300;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = kVocabulary;
  cfg.num_clusters = 20;
  return GenerateSynthetic(cfg);
}

Query MakeQuery(Rng* rng, ScoreVariant variant) {
  Query q;
  q.k = 5;
  q.radius = 0.05;
  q.lambda = 0.5;
  q.variant = variant;
  for (int s = 0; s < 2; ++s) {
    KeywordSet kw(kVocabulary);
    kw.Insert(static_cast<TermId>(rng->UniformInt(0, kVocabulary - 1)));
    kw.Insert(static_cast<TermId>(rng->UniformInt(0, kVocabulary - 1)));
    q.keywords.push_back(std::move(kw));
  }
  return q;
}

class DebugCallerTest : public ::testing::TestWithParam<FeatureIndexKind> {
 protected:
  void SetUp() override {
    ds_ = SmallDataset();
    EngineOptions opts;
    opts.build.index_kind = GetParam();
    opts.build.page_size_bytes = 512;  // trees with real depth
    Result<Engine> built = Engine::Build(
        ds_.objects, std::vector<FeatureTable>(ds_.feature_tables), opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    engine_.emplace(built.TakeValue());
  }

  Dataset ds_;
  std::optional<Engine> engine_;
};

TEST_P(DebugCallerTest, ComponentScoresMatchBruteForce) {
  const Engine& engine = *engine_;
  const BruteForceEvaluator brute(
      &engine.objects(), {&engine.feature_table(0), &engine.feature_table(1)});
  ExecutionSession session(&engine.page_store());
  TraversalScratch& scratch = session.scratch();
  Rng rng(17);
  for (ScoreVariant variant :
       {ScoreVariant::kRange, ScoreVariant::kInfluence,
        ScoreVariant::kNearestNeighbor}) {
    for (int qi = 0; qi < 4; ++qi) {
      const Query q = MakeQuery(&rng, variant);
      // One query per scratch reset, as an executor runs it.
      scratch.Reset();
      QueryStats stats;
      for (size_t o = 0; o < engine.objects().size(); o += 7) {
        const Point& p = engine.objects()[o].pos;
        for (size_t s = 0; s < 2; ++s) {
          const FeatureIndex& index = engine.feature_index(s);
          BestFeature best;
          switch (variant) {
            case ScoreVariant::kRange:
              best = ComputeBestRange(index, p, q.keywords[s], q.lambda,
                                      q.radius, stats, scratch);
              break;
            case ScoreVariant::kInfluence:
              best = ComputeBestInfluence(index, p, q.keywords[s], q.lambda,
                                          q.radius, stats, scratch);
              break;
            case ScoreVariant::kNearestNeighbor:
              best = ComputeBestNearestNeighbor(index, p, q.keywords[s],
                                                q.lambda, stats, scratch);
              break;
          }
          EXPECT_NEAR(best.score, brute.ComponentScore(p, s, q), 1e-12)
              << "object " << o << " set " << s;
        }
      }
      ASSERT_TRUE(session.status().ok()) << session.status().ToString();
    }
  }
}

TEST_P(DebugCallerTest, BatchedRangeScoresMatchBruteForce) {
  const Engine& engine = *engine_;
  const BruteForceEvaluator brute(
      &engine.objects(), {&engine.feature_table(0), &engine.feature_table(1)});
  ExecutionSession session(&engine.page_store());
  TraversalScratch& scratch = session.scratch();
  Rng rng(23);
  const Query q = MakeQuery(&rng, ScoreVariant::kRange);
  scratch.Reset();
  std::vector<BatchObject> batch;
  Rect2 mbr = Rect2::Empty();
  for (size_t o = 0; o < engine.objects().size(); o += 3) {
    batch.push_back({static_cast<ObjectId>(o), engine.objects()[o].pos});
    mbr.Enlarge(PointRect(engine.objects()[o].pos));
  }
  std::vector<double> scores(batch.size());
  QueryStats stats;
  for (size_t s = 0; s < 2; ++s) {
    ComputeScoresRangeBatch(engine.feature_index(s), batch, mbr,
                            q.keywords[s], q.lambda, q.radius, scores, stats,
                            scratch);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_NEAR(scores[i], brute.ComponentScore(batch[i].pos, s, q), 1e-12)
          << "object " << batch[i].id << " set " << s;
    }
  }
}

TEST_P(DebugCallerTest, SortedStreamYieldsEveryRelevantFeatureInOrder) {
  const Engine& engine = *engine_;
  ExecutionSession session(&engine.page_store());
  TraversalScratch& scratch = session.scratch();
  Rng rng(29);
  for (int qi = 0; qi < 4; ++qi) {
    const Query q = MakeQuery(&rng, ScoreVariant::kRange);
    scratch.Reset();
    for (size_t s = 0; s < 2; ++s) {
      const FeatureTable& table = engine.feature_table(s);
      QueryStats stats;
      SortedFeatureStream stream(engine.feature_index(s), q.keywords[s],
                                 q.lambda, stats, scratch, scratch.heap);
      double prev = std::numeric_limits<double>::infinity();
      size_t pulled = 0;
      while (auto item = stream.Next()) {
        if (item->id == kVirtualFeature) break;
        const FeatureObject& t = table.Get(item->id);
        EXPECT_NEAR(item->score, PreferenceScore(t, q.keywords[s], q.lambda),
                    1e-12);
        EXPECT_LE(item->score, prev);
        prev = item->score;
        ++pulled;
      }
      size_t relevant = 0;
      for (const FeatureObject& t : table.All()) {
        if (t.keywords.Intersects(q.keywords[s])) ++relevant;
      }
      EXPECT_EQ(pulled, relevant) << "set " << s;
    }
  }
  EXPECT_TRUE(session.status().ok()) << session.status().ToString();
}

TEST_P(DebugCallerTest, EngineQueriesMatchBruteForce) {
  // The engine leases sessions of its own, which the library creates and
  // destroys; an ExecutionSession above lives beside them.
  const Engine& engine = *engine_;
  const BruteForceEvaluator brute(
      &engine.objects(), {&engine.feature_table(0), &engine.feature_table(1)});
  Rng rng(31);
  for (ScoreVariant variant :
       {ScoreVariant::kRange, ScoreVariant::kInfluence,
        ScoreVariant::kNearestNeighbor}) {
    const Query q = MakeQuery(&rng, variant);
    const std::vector<ResultEntry> expected = brute.TopK(q);
    for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
      Result<QueryResult> r = engine.Execute(q, algo);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r.value().entries.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(r.value().entries[i].score, expected[i].score, 1e-9)
            << "rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, DebugCallerTest,
                         ::testing::Values(FeatureIndexKind::kSrt,
                                           FeatureIndexKind::kIr2),
                         [](const auto& param_info) {
                           return std::string(param_info.param ==
                                                      FeatureIndexKind::kSrt
                                                  ? "Srt"
                                                  : "Ir2");
                         });

}  // namespace
}  // namespace stpq
