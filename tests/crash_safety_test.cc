// Crash-safety suite for the .stpqx write path (DESIGN.md §17).
//
// The durability contract: writing an index over an existing one can fail
// at any point — write, file fsync, rename, directory fsync — and the
// destination must afterwards hold either the complete old file or the
// complete new file, never a torn mix, and never nothing.  The suite
// drives every AtomicFile failure point through both writers (Engine::Save
// and BuildIndexFileExternal) and sweeps truncations across every segment
// boundary to check the reader's side of the bargain.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/synthetic.h"
#include "io/atomic_file.h"
#include "io/bulk_load.h"
#include "io/dataset_io.h"
#include "io/index_file.h"
#include "io/index_format.h"

namespace stpq {
namespace {

class CrashSafetyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("stpq_crash_safety_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    AtomicFile::SetFailurePointForTest(AtomicFile::FailurePoint::kNone);
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const char* name) { return (dir_ / name).string(); }

  static Dataset SmallDataset(uint64_t seed) {
    SyntheticConfig cfg;
    cfg.seed = seed;
    cfg.num_objects = 200;
    cfg.num_features_per_set = 200;
    cfg.num_feature_sets = 2;
    cfg.vocabulary_size = 48;
    cfg.num_clusters = 16;
    return GenerateSynthetic(cfg);
  }

  static Engine BuildEngine(const Dataset& ds) {
    EngineOptions opts;
    opts.build.page_size_bytes = 256;
    return Engine::Build(ds.objects,
                         std::vector<FeatureTable>(ds.feature_tables), opts)
        .TakeValue();
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  /// Saves a known-good index at `name` and returns (path, bytes).
  std::pair<std::string, std::string> SaveGoodIndex(const char* name) {
    Engine engine = BuildEngine(SmallDataset(7));
    std::string path = Path(name);
    EXPECT_TRUE(engine.Save(path).ok());
    return {path, ReadAll(path)};
  }

  std::filesystem::path dir_;
};

TEST_F(CrashSafetyTest, SaveFailureNeverCorruptsPreviousIndex) {
  auto [path, good_bytes] = SaveGoodIndex("idx.stpqx");
  Engine replacement = BuildEngine(SmallDataset(99));

  // Failures at or before the rename leave the old file byte-identical.
  for (AtomicFile::FailurePoint fp : {AtomicFile::FailurePoint::kWrite,
                                      AtomicFile::FailurePoint::kSyncFile,
                                      AtomicFile::FailurePoint::kRename}) {
    AtomicFile::SetFailurePointForTest(fp);
    Status s = replacement.Save(path);
    AtomicFile::SetFailurePointForTest(AtomicFile::FailurePoint::kNone);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kIoError);
    EXPECT_TRUE(ReadAll(path) == good_bytes)
        << "previous index damaged by failure point "
        << static_cast<int>(fp);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
        << "uncommitted temp file left behind";
    EXPECT_TRUE(Engine::Open(path).ok());
  }
}

TEST_F(CrashSafetyTest, DirSyncFailureStillExposesCompleteNewIndex) {
  // kSyncDir fires after the rename: the write is reported failed (its
  // durability is not guaranteed) but the visible file is the complete new
  // index — never a torn mix.
  auto [path, good_bytes] = SaveGoodIndex("idx.stpqx");
  Engine replacement = BuildEngine(SmallDataset(99));
  AtomicFile::SetFailurePointForTest(AtomicFile::FailurePoint::kSyncDir);
  Status s = replacement.Save(path);
  AtomicFile::SetFailurePointForTest(AtomicFile::FailurePoint::kNone);
  ASSERT_FALSE(s.ok());
  std::string after = ReadAll(path);
  EXPECT_FALSE(after == good_bytes) << "rename should have happened";
  Result<Engine> reopened = Engine::Open(path);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
}

TEST_F(CrashSafetyTest, ExternalBuildFailureNeverCorruptsPreviousIndex) {
  auto [path, good_bytes] = SaveGoodIndex("idx.stpqx");
  Dataset ds = SmallDataset(99);
  std::string data = Path("data.stpq");
  ASSERT_TRUE(WriteDatasetBinary(data, ds).ok());
  ExternalBuildOptions opts;
  opts.params.page_size_bytes = 256;

  for (AtomicFile::FailurePoint fp : {AtomicFile::FailurePoint::kWrite,
                                      AtomicFile::FailurePoint::kSyncFile,
                                      AtomicFile::FailurePoint::kRename}) {
    AtomicFile::SetFailurePointForTest(fp);
    Result<ExternalBuildStats> r = BuildIndexFileExternal(data, path, opts);
    AtomicFile::SetFailurePointForTest(AtomicFile::FailurePoint::kNone);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(ReadAll(path) == good_bytes)
        << "previous index damaged by failure point "
        << static_cast<int>(fp);
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    EXPECT_TRUE(Engine::Open(path).ok());
  }
}

TEST_F(CrashSafetyTest, StaleTempFileIsReplacedByNextSave) {
  // A crash can leave `<path>.tmp` behind (the process died before the
  // destructor ran).  The next writer truncates and reuses it; after a
  // successful commit no temp file remains.
  auto [path, good_bytes] = SaveGoodIndex("idx.stpqx");
  {
    std::ofstream junk(path + ".tmp", std::ios::binary);
    junk << "stale partial write from a crashed process";
  }
  Engine replacement = BuildEngine(SmallDataset(99));
  ASSERT_TRUE(replacement.Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_TRUE(Engine::Open(path).ok());
}

TEST_F(CrashSafetyTest, TruncationAtEverySegmentBoundaryIsTypedError) {
  // Simulates the torn outcomes a non-atomic writer could produce: the
  // file cut at every segment boundary (and just inside each segment).
  // Every cut must fail with a typed error — never succeed, never crash —
  // and the original stays readable.
  auto [path, good_bytes] = SaveGoodIndex("idx.stpqx");
  Result<IndexFileInfo> info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_FALSE(info.value().segments.empty());

  std::vector<uint64_t> cuts = {0, 1, index_format::kSuperblockBytes - 1};
  for (const IndexSegmentInfo& seg : info.value().segments) {
    cuts.push_back(seg.offset);
    if (seg.bytes > 0) cuts.push_back(seg.offset + seg.bytes / 2);
  }
  std::string cut_path = Path("cut.stpqx");
  for (uint64_t cut : cuts) {
    if (cut >= good_bytes.size()) continue;
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(good_bytes.data(), static_cast<std::streamsize>(cut));
    }
    Result<LoadedIndex> r = LoadIndexFile(cut_path);
    ASSERT_FALSE(r.ok()) << "cut at " << cut << " loaded successfully";
    EXPECT_TRUE(r.status().code() == StatusCode::kIoError ||
                r.status().code() == StatusCode::kCorruption ||
                r.status().code() == StatusCode::kInvalidArgument)
        << "cut at " << cut << ": " << r.status().ToString();
  }
  // The original is untouched by the sweep.
  EXPECT_TRUE(Engine::Open(path).ok());
}

TEST_F(CrashSafetyTest, AbandonedAtomicFileLeavesNoTrace) {
  std::string path = Path("a.bin");
  {
    Result<AtomicFile> f = AtomicFile::Create(path);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value().WriteAt(0, "xyz", 3).ok());
    // Dropped without Commit: destructor unlinks the temp file.
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

}  // namespace
}  // namespace stpq
