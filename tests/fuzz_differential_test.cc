// Seeded differential fuzzing: STDS and STPS, over both feature indexes and
// every score variant, must agree with the brute-force evaluator on random
// datasets and random queries.  Any structural or pruning bug that survives
// the unit tests tends to surface here as a score mismatch.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/exec_session.h"
#include "core/score.h"
#include "core/stds.h"
#include "core/stps.h"
#include "gen/synthetic.h"
#include "util/rng.h"

namespace stpq {
namespace {

struct FuzzCase {
  const char* name;
  uint32_t feature_sets;
  FeatureIndexKind index_kind;
  uint32_t page_size = kDefaultPageSizeBytes;
  double fill = 1.0;
};

Dataset MakeDataset(uint32_t feature_sets, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_objects = 80;
  cfg.num_features_per_set = 250;
  cfg.num_feature_sets = feature_sets;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 30;
  return GenerateSynthetic(cfg);
}

/// Random query over `c` feature sets: 1-3 keywords per set, lambda and
/// radius across their whole domains, k in [1, 15].
Query RandomQuery(Rng* rng, uint32_t c, uint32_t vocab, ScoreVariant variant) {
  Query q;
  q.variant = variant;
  q.k = static_cast<uint32_t>(rng->UniformInt(1, 15));
  q.radius = rng->Uniform(0.01, 0.3);
  q.lambda = rng->Uniform(0.0, 1.0);
  if (rng->Bernoulli(0.1)) q.lambda = rng->Bernoulli(0.5) ? 0.0 : 1.0;
  for (uint32_t i = 0; i < c; ++i) {
    KeywordSet kw(vocab);
    uint32_t terms = static_cast<uint32_t>(rng->UniformInt(1, 3));
    for (uint32_t t = 0; t < terms; ++t) {
      kw.Insert(static_cast<TermId>(rng->UniformInt(0, vocab - 1)));
    }
    q.keywords.push_back(std::move(kw));
  }
  return q;
}

void ExpectSameScores(const std::vector<ResultEntry>& got,
                      const std::vector<ResultEntry>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, want[i].score, 1e-9)
        << label << " rank " << i;
  }
}

TEST(FuzzDifferentialTest, AlgorithmsAgreeWithBruteForce) {
  const FuzzCase cases[] = {
      {"srt_c1", 1, FeatureIndexKind::kSrt},
      {"ir2_c1", 1, FeatureIndexKind::kIr2},
      {"srt_c2", 2, FeatureIndexKind::kSrt},
      {"ir2_c2", 2, FeatureIndexKind::kIr2},
      // Small pages at fill 0.7: deep trees of partly filled nodes.
      {"srt_c1_deep", 1, FeatureIndexKind::kSrt, 512, 0.7},
      {"ir2_c2_deep", 2, FeatureIndexKind::kIr2, 512, 0.7},
  };
  const ScoreVariant variants[] = {ScoreVariant::kRange,
                                   ScoreVariant::kInfluence,
                                   ScoreVariant::kNearestNeighbor};
  Rng rng(20150323);  // deterministic: every run fuzzes the same queries

  for (const FuzzCase& fc : cases) {
    Dataset ds = MakeDataset(fc.feature_sets, /*seed=*/777 + fc.feature_sets);
    std::vector<const FeatureTable*> tables;
    for (const FeatureTable& t : ds.feature_tables) tables.push_back(&t);
    BruteForceEvaluator brute(&ds.objects, tables);

    EngineOptions opts;
    opts.build.index_kind = fc.index_kind;
    opts.build.page_size_bytes = fc.page_size;
    opts.build.fill = fc.fill;
    // Copy the dataset into the engine; `ds` stays alive for brute force.
    Engine engine = Engine::Build(ds.objects, ds.feature_tables, opts).TakeValue();

    for (ScoreVariant variant : variants) {
      for (int trial = 0; trial < 8; ++trial) {
        Query q = RandomQuery(&rng, fc.feature_sets, 32, variant);
        std::vector<ResultEntry> want = brute.TopK(q);
        std::string label = std::string(fc.name) + "/" + VariantName(variant) +
                            "/trial" + std::to_string(trial);
        ExpectSameScores(engine.Execute(q, Algorithm::kStds).TakeValue().entries, want,
                         label + "/stds");
        ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries, want,
                         label + "/stps");
      }
    }
  }
}

TEST(FuzzDifferentialTest, PullingStrategiesAgree) {
  Dataset ds = MakeDataset(2, /*seed=*/31);
  std::vector<const FeatureTable*> tables;
  for (const FeatureTable& t : ds.feature_tables) tables.push_back(&t);
  BruteForceEvaluator brute(&ds.objects, tables);

  EngineOptions round_robin;
  round_robin.pulling = PullingStrategy::kRoundRobin;
  Engine engine = Engine::Build(ds.objects, ds.feature_tables, round_robin).TakeValue();

  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    Query q = RandomQuery(&rng, 2, 32, ScoreVariant::kRange);
    ExpectSameScores(engine.Execute(q, Algorithm::kStps).TakeValue().entries,
                     brute.TopK(q), "round_robin/trial" +
                     std::to_string(trial));
  }
}

// STDS scores a range query one object-R-tree leaf block at a time
// (Section 5): each set's feature index is traversed once per block, and
// the block's objects are pruned against the k-th score between sets.
// Small pages make many blocks, so the threshold moves between them.
TEST(FuzzDifferentialTest, BatchedStdsRangeMatchesBruteForce) {
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    Dataset ds = MakeDataset(2, /*seed=*/32);
    std::vector<const FeatureTable*> tables;
    for (const FeatureTable& t : ds.feature_tables) tables.push_back(&t);
    BruteForceEvaluator brute(&ds.objects, tables);

    EngineOptions opts;
    opts.build.index_kind = kind;
    opts.build.page_size_bytes = 256;
    Engine engine =
        Engine::Build(ds.objects, ds.feature_tables, opts).TakeValue();

    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
      Query q = RandomQuery(&rng, 2, 32, ScoreVariant::kRange);
      ExpectSameScores(engine.Execute(q, Algorithm::kStds).TakeValue().entries,
                       brute.TopK(q),
                       std::string(engine.IndexName()) + "/trial" +
                           std::to_string(trial));
    }
  }
}

// One session carried across a random mix of variants, keyword sets,
// lambdas and executors: each query's start resets its pool and the
// relevant-children memo with it, and every answer must equal both a
// fresh session's (entry for entry) and brute force's.
TEST(FuzzDifferentialTest, SharedScratchAcrossQueriesMatchesFreshScratch) {
  const ScoreVariant variants[] = {ScoreVariant::kRange,
                                   ScoreVariant::kInfluence,
                                   ScoreVariant::kNearestNeighbor};
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    Dataset ds = MakeDataset(2, /*seed=*/41);
    std::vector<const FeatureTable*> tables;
    for (const FeatureTable& t : ds.feature_tables) tables.push_back(&t);
    BruteForceEvaluator brute(&ds.objects, tables);
    EngineOptions opts;
    opts.build.index_kind = kind;
    Engine engine =
        Engine::Build(ds.objects, ds.feature_tables, opts).TakeValue();
    const std::vector<const FeatureIndex*> indexes = {
        &engine.feature_index(0), &engine.feature_index(1)};
    const Stds stds(&engine.object_index(), indexes);
    const Stps stps(&engine.object_index(), indexes);
    const Stps stps_combos(&engine.object_index(), indexes,
                           InfluenceMode::kCombinations);

    Rng rng(kind == FeatureIndexKind::kSrt ? 4141 : 4242);
    ExecutionSession shared(&engine.page_store());
    Query prev;
    for (int trial = 0; trial < 40; ++trial) {
      const ScoreVariant variant = variants[rng.UniformInt(0, 2)];
      Query q = RandomQuery(&rng, 2, 32, variant);
      // Now and then keep the previous keyword sets (same values, so only
      // lambda or nothing changes the binding) or the previous lambda.
      if (trial > 0 && rng.Bernoulli(0.3)) q.keywords = prev.keywords;
      if (trial > 0 && rng.Bernoulli(0.3)) q.lambda = prev.lambda;
      const int executor = static_cast<int>(rng.UniformInt(0, 2));
      auto execute = [&](ExecutionSession& session) {
        TraversalScratch& scratch = session.scratch();
        switch (executor) {
          case 0:
            return stds.Execute(q, scratch);
          case 1:
            return stps.Execute(q, PullingStrategy::kPrioritized, scratch);
          default:
            return stps_combos.Execute(q, PullingStrategy::kPrioritized,
                                       scratch);
        }
      };
      const std::string label = std::string(VariantName(variant)) +
                                "/trial" + std::to_string(trial) +
                                "/executor" + std::to_string(executor);
      const QueryResult got = execute(shared);
      ExecutionSession fresh(&engine.page_store());
      const QueryResult want = execute(fresh);
      ASSERT_EQ(got.entries.size(), want.entries.size()) << label;
      for (size_t i = 0; i < want.entries.size(); ++i) {
        EXPECT_EQ(got.entries[i].object, want.entries[i].object) << label;
        EXPECT_EQ(got.entries[i].score, want.entries[i].score) << label;
      }
      ExpectSameScores(got.entries, brute.TopK(q), label + "/brute");
      prev = q;
    }
  }
}

// Deserializer fuzz: single-byte mutations of a valid .stpqx image must
// either load successfully (a flip in slack/padding the checksums do not
// cover does not exist — every payload byte is checksummed, so in practice
// only flips in the zero-fill between segments survive) or fail with a
// typed error.  Crashing, hanging, or returning a half-restored index is
// the bug this guards against.
TEST(FuzzDifferentialTest, IndexDeserializerSurvivesByteFlips) {
  SyntheticConfig cfg;
  cfg.seed = 5150;
  cfg.num_objects = 120;
  cfg.num_features_per_set = 120;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 8;
  Dataset ds = GenerateSynthetic(cfg);
  EngineOptions opts;
  opts.build.page_size_bytes = 256;
  Engine engine =
      Engine::Build(std::move(ds.objects), std::move(ds.feature_tables), opts)
          .TakeValue();

  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("stpq_fuzz_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::string pristine = (dir / "pristine.stpqx").string();
  ASSERT_TRUE(engine.Save(pristine).ok());
  std::string bytes;
  {
    std::ifstream in(pristine, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 256u);

  Rng rng(424242);
  std::string mutated = (dir / "mutated.stpqx").string();
  int loaded_ok = 0, rejected = 0;
  for (int trial = 0; trial < 64; ++trial) {
    size_t offset = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(bytes.size()) - 1));
    char flip =
        static_cast<char>(1 + rng.UniformInt(0, 254));  // never a no-op
    std::string copy = bytes;
    copy[offset] = static_cast<char>(copy[offset] ^ flip);
    {
      std::ofstream out(mutated, std::ios::binary | std::ios::trunc);
      out.write(copy.data(), static_cast<std::streamsize>(copy.size()));
    }
    Result<Engine> r = Engine::Open(mutated);
    if (r.ok()) {
      ++loaded_ok;
    } else {
      ++rejected;
      StatusCode code = r.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kIoError ||
                  code == StatusCode::kCorruption)
          << "offset " << offset << ": " << r.status().ToString();
    }
  }
  // Every payload byte is covered by a segment checksum, so the vast
  // majority of flips must be rejected (only inter-segment padding flips
  // can load).
  EXPECT_GT(rejected, loaded_ok);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stpq
