// Tests for io/bulk_load: the external-memory Hilbert bulk loader.
//
// The central contract is byte-identity: BuildIndexFileExternal over a
// dataset must produce the exact bytes Engine::Build + Engine::Save does
// for the same parameters.  Everything else (golden I/O counts, query
// equivalence, crash safety) follows from that, but we pin the derived
// properties too so a regression points at the layer that broke.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/synthetic.h"
#include "index/object_index.h"
#include "index/srt_index.h"
#include "io/bulk_load.h"
#include "io/dataset_io.h"
#include "io/index_file.h"
#include "util/rng.h"

namespace stpq {
namespace {

class BulkLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("stpq_bulk_load_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const char* name) { return (dir_ / name).string(); }

  static Dataset SmallDataset() {
    SyntheticConfig cfg;
    cfg.seed = 7;
    cfg.num_objects = 400;
    cfg.num_features_per_set = 400;
    cfg.num_feature_sets = 2;
    cfg.vocabulary_size = 48;
    cfg.num_clusters = 32;
    return GenerateSynthetic(cfg);
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  /// Saves the in-memory build of `ds` and returns the output path.
  std::string SaveInMemory(const Dataset& ds, const IndexBuildParams& params,
                           const char* name) {
    EngineOptions opts;
    opts.build = params;
    Result<Engine> engine =
        Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables),
                      opts);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    std::string path = Path(name);
    Status s = engine.value().Save(path, ds.vocabularies);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return path;
  }

  /// Writes `ds` as .stpq, bulk-loads it externally, and returns the
  /// stats; `*out_path` receives the index path.
  Result<ExternalBuildStats> BuildExternal(const Dataset& ds,
                                           const ExternalBuildOptions& opts,
                                           const char* name,
                                           std::string* out_path) {
    std::string data = Path("data.stpq");
    Status s = WriteDatasetBinary(data, ds);
    EXPECT_TRUE(s.ok()) << s.ToString();
    *out_path = Path(name);
    return BuildIndexFileExternal(data, *out_path, opts);
  }

  void ExpectByteIdentical(const Dataset& ds, const IndexBuildParams& params,
                           uint64_t memory_budget) {
    std::string mem = SaveInMemory(ds, params, "mem.stpqx");
    ExternalBuildOptions opts;
    opts.params = params;
    opts.memory_budget_bytes = memory_budget;
    std::string ext;
    Result<ExternalBuildStats> stats = BuildExternal(ds, opts, "ext.stpqx", &ext);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    std::string a = ReadAll(mem);
    std::string b = ReadAll(ext);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(a == b) << "external build bytes differ from Engine::Save";
    EXPECT_EQ(stats.value().objects, ds.objects.size());
    EXPECT_EQ(stats.value().tables, ds.feature_tables.size());
    EXPECT_EQ(stats.value().output_bytes, b.size());
  }

  std::filesystem::path dir_;
};

TEST_F(BulkLoadTest, ByteIdenticalSrt) {
  IndexBuildParams params;
  params.index_kind = FeatureIndexKind::kSrt;
  params.page_size_bytes = 256;  // small pages -> trees with real depth
  ExpectByteIdentical(SmallDataset(), params, uint64_t{64} << 20);
}

TEST_F(BulkLoadTest, ByteIdenticalIr2) {
  IndexBuildParams params;
  params.index_kind = FeatureIndexKind::kIr2;
  params.page_size_bytes = 256;
  ExpectByteIdentical(SmallDataset(), params, uint64_t{64} << 20);
}

TEST_F(BulkLoadTest, ByteIdenticalWithFillAndSignatureParams) {
  IndexBuildParams params;
  params.index_kind = FeatureIndexKind::kIr2;
  params.page_size_bytes = 512;
  params.fill = 0.7;
  params.signature_bits = 128;
  params.signature_hashes = 4;
  ExpectByteIdentical(SmallDataset(), params, uint64_t{64} << 20);
}

TEST_F(BulkLoadTest, TinyBudgetSpillsAndStaysIdentical) {
  // A 4 KiB budget cannot hold the sort buffer, so every tree spills runs
  // and the merge goes multi-pass — and the bytes still match.
  Dataset ds = SmallDataset();
  IndexBuildParams params;
  params.index_kind = FeatureIndexKind::kSrt;
  params.page_size_bytes = 256;
  std::string mem = SaveInMemory(ds, params, "mem.stpqx");
  ExternalBuildOptions opts;
  opts.params = params;
  opts.memory_budget_bytes = 4096;
  std::string ext;
  Result<ExternalBuildStats> stats = BuildExternal(ds, opts, "ext.stpqx", &ext);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats.value().runs_written, 0u);
  EXPECT_GT(stats.value().merge_passes, 1u);
  EXPECT_GT(stats.value().spilled_bytes, 0u);
  EXPECT_TRUE(ReadAll(mem) == ReadAll(ext));
  // The run files were cleaned up.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << "leftover temp file: " << entry.path();
  }
}

TEST_F(BulkLoadTest, TempDirRedirectsSpills) {
  Dataset ds = SmallDataset();
  std::filesystem::path spill_dir = dir_ / "spill";
  std::filesystem::create_directories(spill_dir);
  ExternalBuildOptions opts;
  opts.params.page_size_bytes = 256;
  opts.memory_budget_bytes = 4096;
  opts.temp_dir = spill_dir.string();
  std::string ext;
  Result<ExternalBuildStats> stats = BuildExternal(ds, opts, "ext.stpqx", &ext);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats.value().runs_written, 0u);
  // Runs are transient; the redirected directory is empty again.
  EXPECT_TRUE(std::filesystem::is_empty(spill_dir));
}

TEST_F(BulkLoadTest, EmptyTablesRoundTrip) {
  // Zero objects and zero features per table: every tree is empty (invalid
  // root, height 0) and the external build must still match Engine::Save.
  Dataset ds;
  ds.feature_tables.emplace_back(std::vector<FeatureObject>{}, 8);
  ds.feature_tables.emplace_back(std::vector<FeatureObject>{}, 8);
  ds.vocabularies.resize(2);
  IndexBuildParams params;
  params.page_size_bytes = 256;
  ExpectByteIdentical(ds, params, uint64_t{1} << 20);
}

TEST_F(BulkLoadTest, OpenedExternalIndexMatchesInMemoryEngine) {
  // The file-backed engine over an externally built index answers queries
  // identically — entries and golden page-read counts — to the in-memory
  // engine it is byte-for-byte equivalent to.
  Dataset ds = SmallDataset();
  IndexBuildParams params;
  params.index_kind = FeatureIndexKind::kSrt;
  params.page_size_bytes = 256;
  EngineOptions eopts;
  eopts.build = params;
  Result<Engine> built = Engine::Build(
      ds.objects, std::vector<FeatureTable>(ds.feature_tables), eopts);
  ASSERT_TRUE(built.ok());

  ExternalBuildOptions opts;
  opts.params = params;
  std::string ext;
  Result<ExternalBuildStats> stats = BuildExternal(ds, opts, "ext.stpqx", &ext);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  Result<Engine> reopened = Engine::Open(ext);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().page_store().backend(), StorageBackend::kFile);

  Rng rng(123);
  for (int i = 0; i < 12; ++i) {
    Query q;
    q.k = 5;
    q.radius = 0.05;
    q.lambda = 0.5;
    for (uint32_t s = 0; s < 2; ++s) {
      KeywordSet kw(48);
      kw.Insert(static_cast<TermId>(rng.UniformInt(0, 47)));
      kw.Insert(static_cast<TermId>(rng.UniformInt(0, 47)));
      q.keywords.push_back(std::move(kw));
    }
    q.variant = (i % 4 == 1)   ? ScoreVariant::kInfluence
                : (i % 4 == 3) ? ScoreVariant::kNearestNeighbor
                               : ScoreVariant::kRange;
    for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
      Result<QueryResult> a = built.value().Execute(q, algo);
      Result<QueryResult> b = reopened.value().Execute(q, algo);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(a.value().entries, b.value().entries);
      EXPECT_EQ(a.value().stats.object_index_reads,
                b.value().stats.object_index_reads);
      EXPECT_EQ(a.value().stats.feature_index_reads,
                b.value().stats.feature_index_reads);
    }
  }
}

TEST_F(BulkLoadTest, RejectsUnsupportedParameters) {
  Dataset ds = SmallDataset();
  std::string data = Path("data.stpq");
  ASSERT_TRUE(WriteDatasetBinary(data, ds).ok());

  // Build parameters: BuildersAndWriterRefuseTheSameParameters.
  {
    ExternalBuildOptions opts;
    opts.memory_budget_bytes = 1024;  // below the floor
    Result<ExternalBuildStats> r =
        BuildIndexFileExternal(data, Path("x.stpqx"), opts);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Result<ExternalBuildStats> r = BuildIndexFileExternal(
        Path("missing.stpq"), Path("x.stpqx"), ExternalBuildOptions{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
}

TEST_F(BulkLoadTest, RefusesMoreTablesThanEngineOpenAccepts) {
  // A .stpq may hold any number of tables, but Engine::Open refuses more
  // than kMaxFeatureSets; the loader refuses to write such an index.
  SyntheticConfig cfg;
  cfg.num_objects = 50;
  cfg.num_features_per_set = 15;
  cfg.num_feature_sets = kMaxFeatureSets + 1;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 10;
  const std::string data = Path("wide.stpq");
  ASSERT_TRUE(WriteDatasetBinary(data, GenerateSynthetic(cfg)).ok());
  const std::string out = Path("wide.stpqx");
  Result<ExternalBuildStats> r =
      BuildIndexFileExternal(data, out, ExternalBuildOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("feature sets"), std::string::npos)
      << r.status().ToString();
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string(), data) << "left behind";
  }
}

TEST_F(BulkLoadTest, BuildersAndWriterRefuseTheSameParameters) {
  // One check (CheckBuildParams) guards Engine::Build, WriteIndexFile and
  // the external loader, so each refuses exactly these parameters, with
  // the same message, and none leaves a file behind.
  Dataset ds = SmallDataset();
  const std::string data = Path("data.stpq");
  ASSERT_TRUE(WriteDatasetBinary(data, ds).ok());
  const IndexBuildParams good;
  const ObjectIndex objects(&ds.objects, good);
  const SrtIndex srt0(&ds.feature_tables[0], good, 0);
  const SrtIndex srt1(&ds.feature_tables[1], good, 1);

  const FeatureIndexKind ir2 = FeatureIndexKind::kIr2;
  const struct Case {
    const char* name;
    IndexBuildParams params;
  } cases[] = {
      {"page_size_bytes", {.page_size_bytes = 32}},
      {"page_size_bytes", {.page_size_bytes = kMaxPageSizeBytes + 1}},
      {"fill", {.fill = 0.0}},
      {"fill", {.fill = 1.5}},
      {"signature_hashes",
       {.index_kind = ir2, .signature_bits = 2, .signature_hashes = 3}},
      {"signature_hashes", {.index_kind = ir2, .signature_hashes = 0}},
      // The automatic width is at least 64 bits, so at most 64 hashes.
      {"signature_hashes", {.index_kind = ir2, .signature_hashes = 65}},
      {"signature_bits",
       {.index_kind = ir2, .signature_bits = kMaxSignatureBits + 1}},
  };

  for (const Case& c : cases) {
    EngineOptions opts;
    opts.build = c.params;
    Result<Engine> built = Engine::Build(
        ds.objects, std::vector<FeatureTable>(ds.feature_tables), opts);
    ASSERT_FALSE(built.ok()) << c.name;
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(built.status().message().find(c.name), std::string::npos)
        << built.status().ToString();

    const std::string out = Path("out.stpqx");
    ExternalBuildOptions external_opts;
    external_opts.params = c.params;
    Result<ExternalBuildStats> external =
        BuildIndexFileExternal(data, out, external_opts);
    ASSERT_FALSE(external.ok()) << c.name;
    EXPECT_EQ(external.status().ToString(), built.status().ToString());

    IndexFileWriteRequest request;
    request.params = c.params;
    request.objects = &ds.objects;
    request.feature_tables = &ds.feature_tables;
    request.vocabularies = &ds.vocabularies;
    request.object_index = &objects;
    request.feature_indexes = {&srt0, &srt1};
    EXPECT_EQ(WriteIndexFile(out, request).ToString(),
              built.status().ToString());

    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      EXPECT_EQ(entry.path().string(), data) << c.name << ": left behind";
    }
  }
}

TEST_F(BulkLoadTest, FailedBuildLeavesNoOutput) {
  Dataset ds = SmallDataset();
  std::string data = Path("data.stpq");
  ASSERT_TRUE(WriteDatasetBinary(data, ds).ok());
  // Truncating the dataset guarantees a typed failure; no output file —
  // final or temp — may remain behind.
  std::filesystem::resize_file(data, std::filesystem::file_size(data) / 2);
  std::string out = Path("out.stpqx");
  Result<ExternalBuildStats> r =
      BuildIndexFileExternal(data, out, ExternalBuildOptions{});
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(std::filesystem::exists(out));
  EXPECT_FALSE(std::filesystem::exists(out + ".tmp"));
}

}  // namespace
}  // namespace stpq
