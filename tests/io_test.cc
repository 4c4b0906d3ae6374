// Tests for io/: CSV and binary dataset round trips plus error paths.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include "core/engine.h"
#include "core/workload.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "io/dataset_io.h"
#include "io/index_file.h"
#include "io/index_format.h"
#include "obs/query_metrics.h"
#include "util/rng.h"

namespace stpq {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("stpq_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const char* name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IoTest, ObjectsCsvRoundTrip) {
  std::vector<DataObject> objects = {
      {0, {0.25, 0.75}, "Grand Hotel"},
      {1, {0.5, 0.5}, "B&B"},
      {2, {1.0, 0.0}, ""},
  };
  ASSERT_TRUE(WriteObjectsCsv(Path("o.csv"), objects).ok());
  Result<std::vector<DataObject>> back = ReadObjectsCsv(Path("o.csv"));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 3u);
  EXPECT_EQ(back.value()[0].pos, (Point{0.25, 0.75}));
  EXPECT_EQ(back.value()[0].name, "Grand Hotel");
  EXPECT_EQ(back.value()[2].name, "");
}

TEST_F(IoTest, ObjectsCsvSanitizesCommas) {
  std::vector<DataObject> objects = {{0, {0, 0}, "Hotel, with commas"}};
  ASSERT_TRUE(WriteObjectsCsv(Path("o.csv"), objects).ok());
  Result<std::vector<DataObject>> back = ReadObjectsCsv(Path("o.csv"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()[0].name, "Hotel  with commas");
}

TEST_F(IoTest, ObjectsCsvErrors) {
  EXPECT_FALSE(ReadObjectsCsv(Path("missing.csv")).ok());
  {
    std::ofstream out(Path("bad.csv"));
    out << "id,x,y,name\n1,notanumber,2,x\n";
  }
  Result<std::vector<DataObject>> r = ReadObjectsCsv(Path("bad.csv"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  {
    std::ofstream out(Path("short.csv"));
    out << "1,2\n";
  }
  EXPECT_FALSE(ReadObjectsCsv(Path("short.csv")).ok());
}

TEST_F(IoTest, FeaturesCsvRoundTrip) {
  Vocabulary vocab;
  TermId pizza = vocab.Intern("pizza");
  TermId sushi = vocab.Intern("sushi");
  std::vector<FeatureObject> features;
  features.push_back(
      {0, {0.1, 0.2}, 0.9, KeywordSet(2, {pizza, sushi}), "Both"});
  features.push_back({1, {0.3, 0.4}, 0.5, KeywordSet(2, {sushi}), "Sushi"});
  FeatureTable table(std::move(features), 2);
  ASSERT_TRUE(WriteFeaturesCsv(Path("f.csv"), table, vocab).ok());

  Vocabulary vocab2;
  Result<FeatureTable> back = ReadFeaturesCsv(Path("f.csv"), &vocab2);
  ASSERT_TRUE(back.ok());
  const FeatureTable& t = back.value();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.Get(0).score, 0.9);
  EXPECT_EQ(t.Get(0).keywords.Count(), 2u);
  EXPECT_EQ(t.Get(1).name, "Sushi");
  EXPECT_TRUE(vocab2.Lookup("pizza").ok());
}

TEST_F(IoTest, FeaturesCsvUniverseOverride) {
  Vocabulary vocab;
  std::vector<FeatureObject> features;
  features.push_back(
      {0, {0, 0}, 0.5, KeywordSet(1, {vocab.Intern("a")}), ""});
  FeatureTable table(std::move(features), 1);
  ASSERT_TRUE(WriteFeaturesCsv(Path("f.csv"), table, vocab).ok());
  Vocabulary vocab2;
  Result<FeatureTable> wide = ReadFeaturesCsv(Path("f.csv"), &vocab2, 64);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide.value().universe_size(), 64u);
  // Universe smaller than the keyword count is rejected.
  Vocabulary vocab3;
  vocab3.Intern("x");
  vocab3.Intern("y");
  std::ofstream(Path("two.csv")) << "id,x,y,score,keywords\n"
                                 << "0,0,0,0.5,x|y|z\n";
  Result<FeatureTable> narrow = ReadFeaturesCsv(Path("two.csv"), &vocab3, 2);
  EXPECT_FALSE(narrow.ok());
}

TEST_F(IoTest, FeaturesCsvScoreRangeChecked) {
  std::ofstream(Path("f.csv")) << "id,x,y,score,keywords\n0,0,0,1.5,a\n";
  Vocabulary vocab;
  Result<FeatureTable> r = ReadFeaturesCsv(Path("f.csv"), &vocab);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST_F(IoTest, BinaryRoundTripSynthetic) {
  SyntheticConfig cfg;
  cfg.num_objects = 200;
  cfg.num_features_per_set = 150;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 20;
  Dataset ds = GenerateSynthetic(cfg);
  ASSERT_TRUE(WriteDatasetBinary(Path("d.stpq"), ds).ok());
  Result<Dataset> back = ReadDatasetBinary(Path("d.stpq"));
  ASSERT_TRUE(back.ok());
  const Dataset& b = back.value();
  ASSERT_EQ(b.objects.size(), ds.objects.size());
  ASSERT_EQ(b.feature_tables.size(), 2u);
  for (size_t i = 0; i < ds.objects.size(); ++i) {
    EXPECT_EQ(b.objects[i].pos, ds.objects[i].pos);
  }
  for (size_t s = 0; s < 2; ++s) {
    ASSERT_EQ(b.feature_tables[s].size(), ds.feature_tables[s].size());
    EXPECT_EQ(b.vocabularies[s].size(), ds.vocabularies[s].size());
    for (size_t i = 0; i < ds.feature_tables[s].size(); ++i) {
      const FeatureObject& x = ds.feature_tables[s].Get(i);
      const FeatureObject& y = b.feature_tables[s].Get(i);
      EXPECT_EQ(x.pos, y.pos);
      EXPECT_EQ(x.score, y.score);
      EXPECT_EQ(x.keywords, y.keywords);
    }
  }
}

TEST_F(IoTest, BinaryRoundTripRealLikePreservesNames) {
  RealLikeConfig cfg;
  cfg.scale = 0.01;
  Dataset ds = GenerateRealLike(cfg);
  ASSERT_TRUE(WriteDatasetBinary(Path("r.stpq"), ds).ok());
  Result<Dataset> back = ReadDatasetBinary(Path("r.stpq"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().objects[0].name, ds.objects[0].name);
  EXPECT_EQ(back.value().feature_tables[0].Get(0).name,
            ds.feature_tables[0].Get(0).name);
  EXPECT_EQ(back.value().vocabularies[0].Term(0), ds.vocabularies[0].Term(0));
}

TEST_F(IoTest, BinaryRejectsGarbage) {
  std::ofstream(Path("junk.stpq"), std::ios::binary) << "not an stpq file";
  Result<Dataset> r = ReadDatasetBinary(Path("junk.stpq"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IoTest, BinaryRejectsTruncation) {
  SyntheticConfig cfg;
  cfg.num_objects = 50;
  cfg.num_features_per_set = 50;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 16;
  Dataset ds = GenerateSynthetic(cfg);
  ASSERT_TRUE(WriteDatasetBinary(Path("full.stpq"), ds).ok());
  // Truncate the file in the middle.
  auto size = std::filesystem::file_size(Path("full.stpq"));
  std::filesystem::resize_file(Path("full.stpq"), size / 2);
  Result<Dataset> r = ReadDatasetBinary(Path("full.stpq"));
  EXPECT_FALSE(r.ok());
}

TEST_F(IoTest, BinaryRejectsHugeObjectCount) {
  // A 16-byte header claiming ~2^60 objects: the reader must run into the
  // end of the file and report it, not size a container from the count.
  {
    std::ofstream out(Path("huge.stpq"), std::ios::binary);
    const uint32_t magic = 0x53545051;  // "STPQ"
    const uint32_t version = 1;
    const uint64_t objects = uint64_t{1} << 60;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&objects), sizeof(objects));
  }
  Result<Dataset> r = ReadDatasetBinary(Path("huge.stpq"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError) << r.status().ToString();
}

TEST_F(IoTest, BinaryRejectsHugeUniverse) {
  // A 72-byte .stpq: no objects, one table with an empty vocabulary and a
  // universe of 0xFFFFFFFF terms, one feature with no terms.  Each keyword
  // set would be a 512 MiB bitmap, so the header is rejected before any
  // set is sized.
  {
    std::ofstream out(Path("universe.stpq"), std::ios::binary);
    auto put = [&out](const auto& v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(uint32_t{0x53545051});  // "STPQ"
    put(uint32_t{1});           // version
    put(uint64_t{0});           // objects
    put(uint32_t{1});           // tables
    put(uint32_t{0});           // vocabulary terms
    put(uint32_t{0xFFFFFFFFu});  // universe
    put(uint64_t{1});           // features
    put(uint32_t{0});           // id
    put(0.5);                   // x
    put(0.5);                   // y
    put(0.5);                   // score
    put(uint32_t{0});           // terms
    put(uint32_t{0});           // name length
  }
  ASSERT_EQ(std::filesystem::file_size(Path("universe.stpq")), 72u);
  Result<Dataset> r = ReadDatasetBinary(Path("universe.stpq"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

TEST_F(IoTest, BinaryRejectsMissingVocabulary) {
  Dataset ds;
  ds.objects.push_back({0, {0, 0}, ""});
  ds.feature_tables.emplace_back(std::vector<FeatureObject>{}, 4);
  // No vocabulary for the table.
  Status s = WriteDatasetBinary(Path("x.stpq"), ds);
  EXPECT_FALSE(s.ok());
}

// ---------------------------------------------------------------------------
// .stpqx index files: build -> Save -> Open round trips and typed corruption
// errors (DESIGN.md §16).  The round-trip contract is strict: a reopened
// engine must return identical result entries AND identical per-query
// page-read counters, because the restored trees are verbatim images of the
// built ones.
// ---------------------------------------------------------------------------

class IndexFileTest : public IoTest {
 protected:
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

  static Engine BuildEngine(const Dataset& ds, FeatureIndexKind kind) {
    EngineOptions opts;
    opts.build.index_kind = kind;
    opts.build.page_size_bytes = 256;  // small pages -> trees with real depth
    return Engine::Build(ds.objects,
                         std::vector<FeatureTable>(ds.feature_tables), opts)
        .TakeValue();
  }

  static std::vector<Query> SomeQueries(uint32_t vocab, uint32_t sets) {
    Rng rng(123);
    std::vector<Query> queries;
    for (int i = 0; i < 12; ++i) {
      Query q;
      q.k = 5;
      q.radius = 0.05;
      q.lambda = 0.5;
      for (uint32_t s = 0; s < sets; ++s) {
        KeywordSet kw(vocab);
        kw.Insert(static_cast<TermId>(rng.UniformInt(0, vocab - 1)));
        kw.Insert(static_cast<TermId>(rng.UniformInt(0, vocab - 1)));
        q.keywords.push_back(std::move(kw));
      }
      q.variant = (i % 4 == 1)   ? ScoreVariant::kInfluence
                  : (i % 4 == 3) ? ScoreVariant::kNearestNeighbor
                                 : ScoreVariant::kRange;
      queries.push_back(std::move(q));
    }
    return queries;
  }

  /// Saves a small valid SRT index to `name` and returns its path.
  std::string SaveSmallIndex(const char* name) {
    Dataset ds = SmallDataset();
    Engine engine = BuildEngine(ds, FeatureIndexKind::kSrt);
    std::string path = Path(name);
    EXPECT_TRUE(engine.Save(path).ok());
    return path;
  }

  static std::string ReadAll(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  /// A segment of an index file and its row in the catalog.
  struct Segment {
    size_t row = 0;
    IndexSegmentInfo info;
  };

  /// Segment (`name`, `ordinal`) of the index file at `path`.
  static std::optional<Segment> FindSegment(const std::string& path,
                                            const std::string& name,
                                            uint32_t ordinal) {
    Result<IndexFileInfo> info = ReadIndexFileInfo(path);
    if (!info.ok()) return std::nullopt;
    const std::vector<IndexSegmentInfo>& segments = info.value().segments;
    for (size_t row = 0; row < segments.size(); ++row) {
      if (segments[row].name == name && segments[row].ordinal == ordinal) {
        return Segment{row, segments[row]};
      }
    }
    return std::nullopt;
  }

  /// Writes the file image `bytes` to `path` with `seg`'s catalog checksum
  /// recomputed over its edited payload, so the damage gets past the
  /// checksum check.
  static void WriteResealed(const std::string& path, std::string bytes,
                            const Segment& seg) {
    const uint64_t checksum =
        index_format::Fnv1a64(bytes.data() + seg.info.offset, seg.info.bytes);
    // The checksum closes the 56-byte catalog row.
    std::memcpy(bytes.data() + index_format::kSuperblockBytes +
                    seg.row * index_format::kCatalogEntryBytes + 48,
                &checksum, sizeof(checksum));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Build -> Save -> Open.
  void RoundTrip(FeatureIndexKind kind) {
    Dataset ds = SmallDataset();
    Engine built = BuildEngine(ds, kind);
    std::string path = Path("rt.stpqx");
    ASSERT_TRUE(built.Save(path).ok());

    Result<Engine> reopened = Engine::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ(reopened.value().page_store().backend(),
              StorageBackend::kFile);
    EXPECT_EQ(reopened.value().options().build.index_kind, kind);

    for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
      for (const Query& q : SomeQueries(48, 2)) {
        Result<QueryResult> a = built.Execute(q, algo);
        Result<QueryResult> b = reopened.value().Execute(q, algo);
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(a.value().entries, b.value().entries);
        // Golden I/O contract: identical page-read accounting per query.
        EXPECT_EQ(a.value().stats.object_index_reads,
                  b.value().stats.object_index_reads);
        EXPECT_EQ(a.value().stats.feature_index_reads,
                  b.value().stats.feature_index_reads);
        EXPECT_EQ(a.value().stats.buffer_hits, b.value().stats.buffer_hits);
      }
    }
    // The reopened engine really read pages from the file.
    EXPECT_GT(reopened.value().page_store().stats().fetches, 0u);

    // Saving the reopened engine, whose nodes are restored lazily from
    // the file, reproduces the file byte for byte.
    std::string again = Path("rt_again.stpqx");
    ASSERT_TRUE(reopened.value().Save(again).ok());
    EXPECT_TRUE(ReadAll(path) == ReadAll(again))
        << "re-saving a reopened engine changed the index bytes";
  }
};

TEST_F(IndexFileTest, RoundTripSrt) { RoundTrip(FeatureIndexKind::kSrt); }

TEST_F(IndexFileTest, RoundTripIr2) { RoundTrip(FeatureIndexKind::kIr2); }

TEST_F(IndexFileTest, VocabulariesRoundTrip) {
  Dataset ds = SmallDataset();
  Engine engine = BuildEngine(ds, FeatureIndexKind::kSrt);
  std::string path = Path("vocab.stpqx");
  ASSERT_TRUE(engine.Save(path, ds.vocabularies).ok());
  Result<std::vector<Vocabulary>> back = ReadIndexVocabularies(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back.value().size(), ds.vocabularies.size());
  for (size_t i = 0; i < back.value().size(); ++i) {
    ASSERT_EQ(back.value()[i].size(), ds.vocabularies[i].size());
    for (TermId t = 0; t < ds.vocabularies[i].size(); ++t) {
      EXPECT_EQ(back.value()[i].Term(t), ds.vocabularies[i].Term(t));
    }
  }
}

TEST_F(IndexFileTest, InfoReportsSuperblockAndCatalog) {
  std::string path = SaveSmallIndex("info.stpqx");
  Result<IndexFileInfo> info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().params.index_kind, FeatureIndexKind::kSrt);
  EXPECT_EQ(info.value().table_count, 2u);
  // 3 fixed segments + 4 per table (vocab, table, tree meta, tree nodes).
  EXPECT_EQ(info.value().segments.size(), 3u + 4u * 2u);
}

TEST_F(IndexFileTest, RejectsBadMagic) {
  std::string path = Path("junk.stpqx");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is definitely not a stpq index file, padded well past the "
           "superblock size so only the magic check can reject it";
  }
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IndexFileTest, RejectsVersionMismatch) {
  std::string path = SaveSmallIndex("ver.stpqx");
  {
    // The version is the u32 at byte offset 4, right after the magic.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    char future = 99;
    f.write(&future, 1);
  }
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST_F(IndexFileTest, RejectsTruncatedSuperblock) {
  std::string path = SaveSmallIndex("shortsb.stpqx");
  std::filesystem::resize_file(path, 20);
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(IndexFileTest, RejectsTruncatedSegments) {
  std::string path = SaveSmallIndex("shortseg.stpqx");
  uint64_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size * 2 / 3);
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(IndexFileTest, RejectsChecksumDamage) {
  std::string path = SaveSmallIndex("flip.stpqx");
  uint64_t size = std::filesystem::file_size(path);
  {
    // Flip one byte near the end of the file: inside the last node
    // segment's payload, far from the header, so only the segment
    // checksum can catch it.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size - 100));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5c);
    f.seekp(static_cast<std::streamoff>(size - 100));
    f.write(&b, 1);
  }
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCorruption);
}

TEST_F(IndexFileTest, RejectsWrongObjectTreePageBase) {
  // The catalog has no checksum, so a damaged page-id base is caught only
  // by the base check: the object tree's node segment starts at page 0.
  std::string path = SaveSmallIndex("base.stpqx");
  Result<IndexFileInfo> info = ReadIndexFileInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const std::vector<IndexSegmentInfo>& segments = info.value().segments;
  size_t row = 0;
  while (row < segments.size() && segments[row].name != "object_tree_nodes") {
    ++row;
  }
  ASSERT_LT(row, segments.size());
  {
    // first_page follows the row's type, ordinal, offset and length.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(index_format::kSuperblockBytes +
                                        row * index_format::kCatalogEntryBytes +
                                        24));
    const uint64_t bad_first_page = 12345;
    f.write(reinterpret_cast<const char*>(&bad_first_page),
            sizeof(bad_first_page));
  }
  Result<LoadedIndex> r = LoadIndexFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCorruption);
}

TEST_F(IndexFileTest, RejectsVersionOneWithRebuildHint) {
  // Versions 1 and 2 are the older layouts: each is named, with a request
  // to rebuild.
  for (const uint32_t version : {1u, 2u}) {
    std::string path = SaveSmallIndex("old.stpqx");
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(4);
      f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    }
    Result<Engine> e = Engine::Open(path);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
    std::string named = "version ";
    named += std::to_string(version);
    EXPECT_NE(e.status().message().find(named), std::string::npos)
        << e.status().ToString();
    EXPECT_NE(e.status().message().find("rebuild"), std::string::npos)
        << e.status().ToString();
  }
}

TEST_F(IndexFileTest, RejectsStrOrInsertionBuiltFiles) {
  // The superblock's bulk-load field (the u32 after the index kind) once
  // recorded STR (1) or insertion (2) packing.  Every tree is now
  // Hilbert-packed and the field is written as 0, so a file recording
  // either is refused by name, with a request to rebuild.
  for (const uint32_t packing : {1u, 2u}) {
    std::string path = SaveSmallIndex("packing.stpqx");
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(16);
      f.write(reinterpret_cast<const char*>(&packing), sizeof(packing));
    }
    Result<Engine> e = Engine::Open(path);
    ASSERT_FALSE(e.ok());
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
    std::string named = "bulk-load order ";
    named += std::to_string(packing);
    EXPECT_NE(e.status().message().find(named), std::string::npos)
        << e.status().ToString();
    EXPECT_NE(e.status().message().find("rebuild"), std::string::npos)
        << e.status().ToString();
  }
}

TEST_F(IndexFileTest, RejectsOutOfRangeBuildParameters) {
  // The superblock carries no checksum, so Engine::Open puts its build
  // parameters and table count through CheckBuildParams, the check both
  // writers use, before it derives any layout from them.  Each value out
  // of range is refused as InvalidArgument naming the parameter.
  struct Patch {
    size_t offset;  // into the superblock (io/index_format.h)
    std::string bytes;
    const char* name;
  };
  const auto u32 = [](uint32_t v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto f64 = [](double v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const Patch patches[] = {
      {8, u32(kMinPageSizeBytes - 1), "page_size_bytes"},
      {8, u32(kMaxPageSizeBytes + 1), "page_size_bytes"},
      {28, f64(0.0), "fill"},
      {28, f64(1.5), "fill"},
      {20, u32(kMaxSignatureBits + 1), "signature_bits"},
      {24, u32(0), "signature_hashes"},
      {24, u32(65), "signature_hashes"},  // automatic width: at most 64
      {44, u32(kMaxFeatureSets + 1), "feature sets"},
  };
  for (const Patch& patch : patches) {
    std::string path = SaveSmallIndex("params.stpqx");
    {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(patch.offset));
      f.write(patch.bytes.data(),
              static_cast<std::streamsize>(patch.bytes.size()));
    }
    Result<Engine> e = Engine::Open(path);
    ASSERT_FALSE(e.ok()) << patch.name;
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument)
        << e.status().ToString();
    EXPECT_NE(e.status().message().find(patch.name), std::string::npos)
        << e.status().ToString();
  }
}

TEST_F(IndexFileTest, RejectsFeatureCountPastSegmentBytes) {
  // Feature table 0 claims 2^33 records (the largest count the header
  // check allows), checksum recomputed: the parser must reject the count
  // against the segment's bytes before it sizes anything from it.
  std::string path = SaveSmallIndex("count.stpqx");
  const std::optional<Segment> seg = FindSegment(path, "feature_table", 0);
  ASSERT_TRUE(seg.has_value());
  std::string bytes = ReadAll(path);
  const uint64_t count = uint64_t{1} << 33;
  // The segment starts with the universe (u32), then the count (u64).
  std::memcpy(bytes.data() + seg->info.offset + 4, &count, sizeof(count));
  WriteResealed(path, std::move(bytes), *seg);

  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCorruption)
      << e.status().ToString();
}

TEST_F(IndexFileTest, RejectsFeatureUniversePastCap) {
  // Feature table 0 declares a universe of 0xFFFFFFFF.  Its first record's
  // keyword block count is set to 0, the count 32-bit arithmetic derives
  // from that universe ((0xFFFFFFFF + 63) / 64 wraps to 0), so a parser
  // that trusts the universe passes its block-count check and then sizes
  // a keyword set by it.  The checksum is recomputed.
  std::string path = SaveSmallIndex("universe.stpqx");
  const std::optional<Segment> seg = FindSegment(path, "feature_table", 0);
  ASSERT_TRUE(seg.has_value());
  std::string bytes = ReadAll(path);
  const uint32_t universe = 0xFFFFFFFFu;
  const uint32_t blocks = 0;
  std::memcpy(bytes.data() + seg->info.offset, &universe, sizeof(universe));
  // Header (12 bytes), then the record: id, x, y, score, block count.
  std::memcpy(bytes.data() + seg->info.offset + 12 + 4 + 8 + 8 + 8, &blocks,
              sizeof(blocks));
  WriteResealed(path, std::move(bytes), *seg);

  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCorruption)
      << e.status().ToString();
}

TEST_F(IndexFileTest, ChildPastTheNodeSegmentFailsQueriesWithCorruption) {
  // Every entry of feature tree 0's root is pointed past the node segment,
  // and the segment checksum is recomputed, so the file opens: only the
  // page fetch can notice.  Queries must fail with Corruption, never read
  // outside the file or answer from a partial tree.
  std::string path = SaveSmallIndex("child.stpqx");
  NodeId root = kInvalidNodeId;
  PageLayout layout;
  uint32_t universe = 0;
  {
    Result<Engine> good = Engine::Open(path);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    const auto& srt =
        dynamic_cast<const SrtIndex&>(good.value().feature_index(0));
    root = srt.tree().root_id();
    layout = srt.tree().layout();
    universe = good.value().feature_table(0).universe_size();
    ASSERT_GE(srt.tree().height(), 2u);
  }
  const std::optional<Segment> seg =
      FindSegment(path, "feature_tree_nodes", 0);
  ASSERT_TRUE(seg.has_value());
  std::string bytes = ReadAll(path);
  uint8_t* slot = reinterpret_cast<uint8_t*>(bytes.data()) +
                  seg->info.offset + uint64_t{root} * seg->info.slot_bytes;
  NodePageWriter editor(slot, layout);
  uint32_t count = 0;
  std::memcpy(&count, slot + 4, sizeof(count));
  ASSERT_GT(count, 0u);
  for (uint32_t i = 0; i < count; ++i) {
    editor.SetId(i, static_cast<uint32_t>(seg->info.slots) + 7 + i);
  }
  WriteResealed(path, std::move(bytes), *seg);

  Result<Engine> opened = Engine::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Query q;
  q.k = 5;
  q.radius = 1.0;
  q.lambda = 0.5;
  for (size_t s = 0; s < opened.value().num_feature_sets(); ++s) {
    KeywordSet all(universe);
    for (TermId t = 0; t < universe; ++t) all.Insert(t);
    q.keywords.push_back(std::move(all));
  }
  const QueryMetrics& metrics = QueryMetrics::Global();
  const uint64_t completed_before = metrics.queries_total.value();
  const uint64_t io_failed_before = metrics.io_failed_total.value();
  for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
    Result<QueryResult> r = opened.value().Execute(q, algo);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
        << r.status().ToString();
  }
  EXPECT_EQ(metrics.io_failed_total.value(), io_failed_before + 2);
  EXPECT_EQ(metrics.queries_total.value(), completed_before);
  // The batch runner fails the batch with the same typed error, naming the
  // lowest failing query, on one worker and on several.
  const std::vector<Query> batch(8, q);
  for (size_t threads : {1u, 4u}) {
    WorkloadOptions options;
    options.threads = threads;
    Result<WorkloadReport> run = RunWorkload(opened.value(), batch, options);
    ASSERT_FALSE(run.ok()) << threads;
    EXPECT_EQ(run.status().code(), StatusCode::kCorruption)
        << run.status().ToString();
    EXPECT_EQ(run.status().message().rfind("query 0: ", 0), 0u)
        << run.status().message();
  }
  Result<std::unique_ptr<StpsCursor>> cursor = opened.value().OpenCursor(q);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_FALSE(cursor.value()->Next().has_value());
  EXPECT_EQ(cursor.value()->status().code(), StatusCode::kCorruption)
      << cursor.value()->status().ToString();
  EXPECT_FALSE(cursor.value()->Next().has_value());
}

TEST_F(IndexFileTest, RejectsEmptyNodeSlot) {
  // Feature tree 0's root slot claims no entries, checksum recomputed.
  // Every slot of a packed tree holds a node, so an empty one is damage:
  // served as a node, it would hide the whole tree from queries.
  std::string path = SaveSmallIndex("empty_slot.stpqx");
  NodeId root = kInvalidNodeId;
  {
    Result<Engine> good = Engine::Open(path);
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    root = good.value().feature_index(0).RootId();
  }
  const std::optional<Segment> seg =
      FindSegment(path, "feature_tree_nodes", 0);
  ASSERT_TRUE(seg.has_value());
  std::string bytes = ReadAll(path);
  const uint32_t zero = 0;
  std::memcpy(bytes.data() + seg->info.offset +
                  uint64_t{root} * seg->info.slot_bytes + 4,
              &zero, sizeof(zero));
  WriteResealed(path, std::move(bytes), *seg);

  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCorruption);
  EXPECT_NE(e.status().message().find("no entries"), std::string::npos)
      << e.status().ToString();
}

TEST_F(IndexFileTest, RejectsNonzeroFreeNodeCount) {
  // The object tree's metadata lists one free node (a valid id appended
  // in the padding before the page-aligned node segment, the catalog
  // length and checksum updated to match).  The count is always written
  // as 0, so any other value is damage.
  std::string path = SaveSmallIndex("free_count.stpqx");
  std::optional<Segment> seg = FindSegment(path, "object_tree_meta", 0);
  ASSERT_TRUE(seg.has_value());
  const std::optional<Segment> nodes =
      FindSegment(path, "object_tree_nodes", 0);
  ASSERT_TRUE(nodes.has_value());
  // Root, height, size (u64), node count, fan-out, keyword bits, keyword
  // words, free count: the count is the last field.
  ASSERT_EQ(seg->info.bytes, 36u);
  ASSERT_GE(nodes->info.offset, seg->info.offset + seg->info.bytes + 4);
  std::string bytes = ReadAll(path);
  const uint32_t free_count = 1;
  const uint32_t free_id = 0;
  std::memcpy(bytes.data() + seg->info.offset + 32, &free_count,
              sizeof(free_count));
  std::memcpy(bytes.data() + seg->info.offset + 36, &free_id,
              sizeof(free_id));
  seg->info.bytes += 4;
  // The payload length follows the row's type, ordinal and offset.
  std::memcpy(bytes.data() + index_format::kSuperblockBytes +
                  seg->row * index_format::kCatalogEntryBytes + 16,
              &seg->info.bytes, sizeof(seg->info.bytes));
  WriteResealed(path, std::move(bytes), *seg);

  Result<Engine> e = Engine::Open(path);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCorruption);
  EXPECT_NE(e.status().message().find("free nodes"), std::string::npos)
      << e.status().ToString();
}

TEST_F(IndexFileTest, RejectsMissingFile) {
  Result<LoadedIndex> r = LoadIndexFile(Path("nope.stpqx"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace stpq
