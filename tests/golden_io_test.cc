// Golden I/O regression test: page-read counts, traversal totals of both
// trees and the leaf counters (features retrieved, objects scored) for the
// paper-example workloads, a synthetic matrix at the default page size and
// a mixed 40-query workload are checked against constants captured before
// the buffer-pool rewrite, the keyword-signature fast paths, the
// relevant-children memo and the shared best-first and region walks.  The
// hot-path optimizations must change no query result, no I/O accounting
// and no pruning verdict, so these counts are byte-identical by design.
//
// To re-capture after an *intentional* I/O-behavior change, run with
// STPQ_GOLDEN_PRINT=1 and paste the printed tables over the constants.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "gen/synthetic.h"
#include "paper_example.h"
#include "util/rng.h"

namespace stpq {
namespace {

struct GoldenRow {
  const char* index;    // "SRT" / "IR2"
  const char* algo;     // "STDS" / "STPS"
  const char* variant;  // "range" / "influence" / "nn"
  uint64_t object_reads;
  uint64_t feature_reads;
  uint64_t buffer_hits;
  // Feature-tree traversal profile totals (child entries pruned / pushed
  // over every feature-index node visit).
  uint64_t feature_pruned;
  uint64_t feature_descended;
  // The same totals over every object-tree node visit.
  uint64_t object_pruned;
  uint64_t object_descended;
  uint64_t features_retrieved;
  uint64_t objects_scored;

  std::array<uint64_t, 9> counts() const {
    return {object_reads,     feature_reads,      buffer_hits,
            feature_pruned,   feature_descended,  object_pruned,
            object_descended, features_retrieved, objects_scored};
  }
  bool operator==(const GoldenRow& other) const {
    return counts() == other.counts();
  }
};

GoldenRow MakeRow(const char* index, const char* algo, const char* variant,
                  const QueryStats& stats) {
  return {index,
          algo,
          variant,
          stats.object_index_reads,
          stats.feature_index_reads,
          stats.buffer_hits,
          stats.traversal.FeaturePruned(),
          stats.traversal.FeatureDescended(),
          stats.traversal.object_tree.TotalPruned(),
          stats.traversal.object_tree.TotalDescended(),
          stats.features_retrieved,
          stats.objects_scored};
}

/// The row's counts, in declaration order, separated by `sep`.
std::string RowCounts(const GoldenRow& r, const char* sep) {
  std::string out;
  for (uint64_t v : r.counts()) {
    if (!out.empty()) out += sep;
    out += std::to_string(v);
  }
  return out;
}

const char* VariantName(ScoreVariant v) {
  switch (v) {
    case ScoreVariant::kRange:
      return "range";
    case ScoreVariant::kInfluence:
      return "influence";
    case ScoreVariant::kNearestNeighbor:
      return "nn";
  }
  return "?";
}

void PrintRows(const char* label, const std::vector<GoldenRow>& rows) {
  std::fprintf(stderr, "// %s\n", label);
  for (const GoldenRow& r : rows) {
    std::fprintf(stderr, "    {\"%s\", \"%s\", \"%s\", %s},\n", r.index,
                 r.algo, r.variant, RowCounts(r, ", ").c_str());
  }
}

bool GoldenPrintMode() {
  return std::getenv("STPQ_GOLDEN_PRINT") != nullptr;
}

/// Paper-example matrix: every (index, algorithm, variant) combination on
/// the Section 3 tourist query, cold pools per query, small pages so the
/// trees have real depth.
std::vector<GoldenRow> RunPaperMatrix() {
  std::vector<GoldenRow> rows;
  Vocabulary rv = testing_example::RestaurantVocab();
  Vocabulary cv = testing_example::CafeVocab();
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    Dataset ds = testing_example::ExampleDataset();
    EngineOptions opts;
    opts.build.index_kind = kind;
    opts.build.page_size_bytes = 128;
    Engine engine = Engine::Build(std::move(ds.objects), std::move(ds.feature_tables), opts).TakeValue();
    for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
      for (ScoreVariant variant :
           {ScoreVariant::kRange, ScoreVariant::kInfluence,
            ScoreVariant::kNearestNeighbor}) {
        Query q = testing_example::TouristQuery(rv, cv);
        q.variant = variant;
        Result<QueryResult> result = engine.Execute(q, algo);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (!result.ok()) return rows;
        rows.push_back(MakeRow(kind == FeatureIndexKind::kSrt ? "SRT" : "IR2",
                               algo == Algorithm::kStds ? "STDS" : "STPS",
                               VariantName(variant), result.value().stats));
      }
    }
  }
  return rows;
}

/// Mixed workload: a stream of 40 queries over both algorithms and all
/// three variants, each on cold pools, at 256-byte pages.
std::vector<GoldenRow> RunMixedWorkload() {
  std::vector<GoldenRow> rows;
  SyntheticConfig cfg;
  cfg.seed = 77;
  cfg.num_objects = 1000;
  cfg.num_features_per_set = 1000;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 64;
  cfg.num_clusters = 64;
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    Dataset ds = GenerateSynthetic(cfg);
    EngineOptions opts;
    opts.build.index_kind = kind;
    opts.build.page_size_bytes = 256;
    Engine engine = Engine::Build(std::move(ds.objects), std::move(ds.feature_tables), opts).TakeValue();
    Rng rng(99);
    QueryStats total;
    for (int i = 0; i < 40; ++i) {
      Query q;
      q.k = 5;
      q.radius = 0.05;
      q.lambda = 0.5;
      for (uint32_t s = 0; s < cfg.num_feature_sets; ++s) {
        KeywordSet kw(cfg.vocabulary_size);
        kw.Insert(
            static_cast<TermId>(rng.UniformInt(0, cfg.vocabulary_size - 1)));
        kw.Insert(
            static_cast<TermId>(rng.UniformInt(0, cfg.vocabulary_size - 1)));
        q.keywords.push_back(std::move(kw));
      }
      q.variant = (i % 8 == 5)   ? ScoreVariant::kInfluence
                  : (i % 8 == 7) ? ScoreVariant::kNearestNeighbor
                                 : ScoreVariant::kRange;
      Algorithm algo = (i % 4 == 3) ? Algorithm::kStds : Algorithm::kStps;
      Result<QueryResult> result = engine.Execute(q, algo);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) return rows;
      total += result.value().stats;
    }
    rows.push_back(MakeRow(kind == FeatureIndexKind::kSrt ? "SRT" : "IR2",
                           "mixed", "cold40", total));
  }
  return rows;
}

/// Default-page matrix: every (index, algorithm, variant) combination on a
/// synthetic dataset at the default 4096-byte page, cold pools per query,
/// each row summed over the same four queries.  The other matrices use
/// 128- and 256-byte pages, where every fan-out floors at 4, so only this
/// one sees how many entries a page holds.
std::vector<GoldenRow> RunDefaultPageMatrix() {
  std::vector<GoldenRow> rows;
  SyntheticConfig cfg;
  cfg.seed = 4096;
  cfg.num_objects = 2000;
  cfg.num_features_per_set = 6000;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 128;
  cfg.num_clusters = 200;
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    Dataset ds = GenerateSynthetic(cfg);
    EngineOptions opts;
    opts.build.index_kind = kind;
    Engine engine = Engine::Build(std::move(ds.objects),
                                  std::move(ds.feature_tables), opts)
                        .TakeValue();
    for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
      for (ScoreVariant variant :
           {ScoreVariant::kRange, ScoreVariant::kInfluence,
            ScoreVariant::kNearestNeighbor}) {
        Rng rng(31);
        QueryStats total;
        for (int i = 0; i < 4; ++i) {
          Query q;
          q.k = 10;
          q.radius = 0.02;
          q.lambda = 0.5;
          q.variant = variant;
          for (uint32_t s = 0; s < cfg.num_feature_sets; ++s) {
            KeywordSet kw(cfg.vocabulary_size);
            kw.Insert(static_cast<TermId>(
                rng.UniformInt(0, cfg.vocabulary_size - 1)));
            q.keywords.push_back(std::move(kw));
          }
          Result<QueryResult> result = engine.Execute(q, algo);
          EXPECT_TRUE(result.ok()) << result.status().ToString();
          if (!result.ok()) return rows;
          total += result.value().stats;
        }
        rows.push_back(MakeRow(kind == FeatureIndexKind::kSrt ? "SRT" : "IR2",
                               algo == Algorithm::kStds ? "STDS" : "STPS",
                               VariantName(variant), total));
      }
    }
  }
  return rows;
}

void ExpectRowsMatch(const std::vector<GoldenRow>& expected,
                     const std::vector<GoldenRow>& actual, const char* label) {
  ASSERT_EQ(expected.size(), actual.size());
  bool all_match = true;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i] == actual[i], true)
        << label << " row " << i << " (" << actual[i].index << "/"
        << actual[i].algo << "/" << actual[i].variant << "): expected "
        << RowCounts(expected[i], "/") << " (object reads / feature reads "
        << "/ hits / feature pruned / feature descended / object pruned / "
        << "object descended / features retrieved / objects scored), got "
        << RowCounts(actual[i], "/");
    all_match = all_match && expected[i] == actual[i];
  }
  if (!all_match) PrintRows(label, actual);
}

// Read/hit columns captured on the pre-rewrite seed (std::list LRU pool,
// no keyword signatures); the feature-tree pruned/descended columns
// captured before the relevant-children memo moved the text filter out of
// the traversal kernels; the object-tree pruned/descended, features
// retrieved and objects scored columns (in every table) captured before
// the hand-written index searches became the two shared walks.  The
// optimizations must reproduce them exactly.
const std::vector<GoldenRow>& ExpectedPaperMatrix() {
  static const std::vector<GoldenRow> kRows = {
      {"SRT", "STDS", "range", 4, 5, 6, 21, 13, 0, 13, 7, 6},
      {"SRT", "STDS", "influence", 4, 5, 33, 50, 70, 0, 13, 16, 6},
      {"SRT", "STDS", "nn", 4, 5, 35, 52, 74, 0, 13, 18, 7},
      {"SRT", "STPS", "range", 2, 5, 0, 7, 9, 2, 4, 2, 3},
      {"SRT", "STPS", "influence", 3, 5, 24, 28, 36, 24, 15, 12, 3},
      {"SRT", "STPS", "nn", 2, 5, 10, 21, 27, 1, 5, 4, 3},
      {"IR2", "STDS", "range", 4, 5, 6, 21, 13, 0, 13, 7, 6},
      {"IR2", "STDS", "influence", 4, 5, 33, 50, 70, 0, 13, 16, 6},
      {"IR2", "STDS", "nn", 4, 5, 33, 46, 72, 0, 13, 18, 7},
      {"IR2", "STPS", "range", 2, 5, 0, 7, 9, 2, 4, 2, 3},
      {"IR2", "STPS", "influence", 3, 5, 24, 28, 36, 24, 15, 12, 3},
      {"IR2", "STPS", "nn", 2, 5, 10, 21, 27, 1, 5, 4, 3},
  };
  return kRows;
}

// Captured before the pool capacity, LRU eviction and page pins were
// deleted, with that code's unbounded cold pools (capacity 0); both rows
// re-captured when anchored influence retrieval began dismissing
// candidates that cannot beat the k-th score (fewer component-score
// searches: feature reads, hits and the leaf counters fall).
const std::vector<GoldenRow>& ExpectedMixedWorkload() {
  static const std::vector<GoldenRow> kRows = {
      {"SRT", "mixed", "cold40", 3006, 7708, 194790, 428980, 371114,
       11454, 17604, 12900, 7145},
      {"IR2", "mixed", "cold40", 3006, 10165, 107355, 238328, 222469,
       11454, 17604, 12979, 7145},
  };
  return kRows;
}

// IR2 rows captured before SRT pages dropped their score and H(W)
// extents, SRT rows after (fan-out 44 -> 68 at 128 keywords); the two
// STPS influence rows re-captured when anchored influence retrieval began
// dismissing candidates that cannot beat the k-th score.
const std::vector<GoldenRow>& ExpectedDefaultPageMatrix() {
  static const std::vector<GoldenRow> kRows = {
    {"SRT", "STDS", "range", 76, 553, 1720, 139724, 2977, 0, 8072, 845, 3069},
    {"SRT", "STDS", "influence", 76, 557, 144486, 7754683, 1004939,
     0, 8072, 13656, 5656},
    {"SRT", "STDS", "nn", 76, 557, 108538, 5715110, 803428,
     0, 8072, 11204, 3204},
    {"SRT", "STPS", "range", 16, 529, 11, 33610, 1458, 1677, 58, 267, 40},
    {"SRT", "STPS", "influence", 76, 557, 31125, 1709510, 40926,
     143315, 4611, 2486, 116},
    {"SRT", "STPS", "nn", 22, 555, 4427, 300151, 19998, 3042, 69, 193, 40},
    {"IR2", "STDS", "range", 76, 640, 831, 67277, 2197, 0, 8072, 867, 3069},
    {"IR2", "STDS", "influence", 76, 706, 80637, 2703916, 830266,
     0, 8072, 13656, 5656},
    {"IR2", "STDS", "nn", 76, 663, 55470, 1695244, 646120,
     0, 8072, 11204, 3204},
    {"IR2", "STPS", "range", 16, 709, 11, 35061, 1672, 1677, 58, 267, 40},
    {"IR2", "STPS", "influence", 76, 709, 17305, 640237, 26124,
     143315, 4611, 2486, 116},
    {"IR2", "STPS", "nn", 22, 709, 3789, 204909, 20046, 3042, 69, 193, 40},
  };
  return kRows;
}

TEST(GoldenIoTest, PaperExampleMatrix) {
  std::vector<GoldenRow> actual = RunPaperMatrix();
  if (GoldenPrintMode()) {
    PrintRows("PaperExampleMatrix", actual);
    GTEST_SKIP() << "golden print mode";
  }
  ExpectRowsMatch(ExpectedPaperMatrix(), actual, "PaperExampleMatrix");
}

/// The paper-example matrix re-run on file-backed engines: each engine is
/// built, saved to a .stpqx file, reopened through Engine::Open (so every
/// buffer-pool miss is a real FilePageStore fetch), and the same golden
/// constants must hold byte-for-byte.  This is the cross-backend contract:
/// switching the storage backend changes where pages come from, never how
/// many are read.
std::vector<GoldenRow> RunPaperMatrixFileBacked() {
  std::vector<GoldenRow> rows;
  Vocabulary rv = testing_example::RestaurantVocab();
  Vocabulary cv = testing_example::CafeVocab();
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("stpq_golden_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    Dataset ds = testing_example::ExampleDataset();
    EngineOptions opts;
    opts.build.index_kind = kind;
    opts.build.page_size_bytes = 128;
    Engine built = Engine::Build(std::move(ds.objects),
                                 std::move(ds.feature_tables), opts)
                       .TakeValue();
    std::string path = (dir / "golden.stpqx").string();
    Status saved = built.Save(path);
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    Result<Engine> reopened = Engine::Open(path);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    if (!saved.ok() || !reopened.ok()) break;
    const Engine& engine = reopened.value();
    EXPECT_EQ(engine.page_store().backend(), StorageBackend::kFile);
    for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
      for (ScoreVariant variant :
           {ScoreVariant::kRange, ScoreVariant::kInfluence,
            ScoreVariant::kNearestNeighbor}) {
        Query q = testing_example::TouristQuery(rv, cv);
        q.variant = variant;
        Result<QueryResult> result = engine.Execute(q, algo);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        if (!result.ok()) return rows;
        rows.push_back(MakeRow(kind == FeatureIndexKind::kSrt ? "SRT" : "IR2",
                               algo == Algorithm::kStds ? "STDS" : "STPS",
                               VariantName(variant), result.value().stats));
      }
    }
    // A reopened engine really serves misses from the file.
    EXPECT_GT(engine.page_store().stats().fetches, 0u);
  }
  std::filesystem::remove_all(dir);
  return rows;
}

TEST(GoldenIoTest, PaperExampleMatrixFileBacked) {
  std::vector<GoldenRow> actual = RunPaperMatrixFileBacked();
  if (GoldenPrintMode()) {
    PrintRows("PaperExampleMatrixFileBacked", actual);
    GTEST_SKIP() << "golden print mode";
  }
  // Same constants as the simulated backend: the storage backend must not
  // change a single page-read count.
  ExpectRowsMatch(ExpectedPaperMatrix(), actual,
                  "PaperExampleMatrixFileBacked");
}

TEST(GoldenIoTest, DefaultPageMatrix) {
  std::vector<GoldenRow> actual = RunDefaultPageMatrix();
  if (GoldenPrintMode()) {
    PrintRows("DefaultPageMatrix", actual);
    GTEST_SKIP() << "golden print mode";
  }
  ExpectRowsMatch(ExpectedDefaultPageMatrix(), actual, "DefaultPageMatrix");
}

TEST(GoldenIoTest, MixedWorkload) {
  std::vector<GoldenRow> actual = RunMixedWorkload();
  if (GoldenPrintMode()) {
    PrintRows("MixedWorkload", actual);
    GTEST_SKIP() << "golden print mode";
  }
  ExpectRowsMatch(ExpectedMixedWorkload(), actual, "MixedWorkload");
}

}  // namespace
}  // namespace stpq
