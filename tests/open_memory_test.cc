// Memory-profile tests for Engine::Open and LoadIndexFile.
//
// A node has one representation: its page.  Opening a .stpqx file parses
// the superblock and catalog, verifies every segment, and keeps each
// tree's shape (TreeMeta) and the extents of its node segment — never a
// node.  Queries and tools then read each node in place from the mapped
// file.  These tests pin that contract: LoadIndexFile returns no nodes,
// the opened engine's pages are the built engine's pages byte for byte,
// and reading any node — before or after queries — allocates nothing, so
// no decoded copy of a node is ever made on the heap.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/synthetic.h"
#include "io/index_file.h"
#include "rtree/node_page.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Counting global allocator (allocation entry points only).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace stpq {
namespace {

class OpenMemoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("stpq_open_memory_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Builds an SRT engine with enough nodes that a per-node copy would
  /// show, and saves it.
  Engine BuildEngine() {
    SyntheticConfig cfg;
    cfg.seed = 7;
    cfg.num_objects = 2000;
    cfg.num_features_per_set = 2000;
    cfg.num_feature_sets = 2;
    cfg.vocabulary_size = 48;
    cfg.num_clusters = 32;
    Dataset ds = GenerateSynthetic(cfg);
    EngineOptions opts;
    opts.build.page_size_bytes = 256;
    return Engine::Build(ds.objects,
                         std::vector<FeatureTable>(ds.feature_tables), opts)
        .TakeValue();
  }

  std::string SaveIndex(const Engine& engine) {
    std::string path = (dir_ / "idx.stpqx").string();
    EXPECT_TRUE(engine.Save(path).ok());
    return path;
  }

  /// The trees of `engine`, in tree order.
  static std::vector<const PagedTree*> Trees(const Engine& engine) {
    std::vector<const PagedTree*> trees{&engine.object_index().tree()};
    for (size_t i = 0; i < engine.num_feature_sets(); ++i) {
      trees.push_back(
          &dynamic_cast<const SrtIndex&>(engine.feature_index(i)).tree());
    }
    return trees;
  }

  /// Reads every node of every tree of `engine` outside the pools and
  /// returns the allocations that took.
  static uint64_t AllocationsToReadEveryNode(const Engine& engine) {
    const std::vector<const PagedTree*> trees = Trees(engine);
    const uint64_t before = g_allocations.load();
    uint64_t entries = 0;
    for (const PagedTree* tree : trees) {
      for (NodeId id = 0; id < tree->node_count(); ++id) {
        const NodeView node = tree->PeekNode(id);
        entries += node.size();
      }
    }
    const uint64_t allocations = g_allocations.load() - before;
    EXPECT_GT(entries, 0u);
    return allocations;
  }

  static Query SampleQuery() {
    Query q;
    q.k = 5;
    q.radius = 0.05;
    q.lambda = 0.5;
    for (int s = 0; s < 2; ++s) {
      KeywordSet kw(48);
      kw.Insert(static_cast<TermId>(3 + s));
      q.keywords.push_back(std::move(kw));
    }
    return q;
  }

  std::filesystem::path dir_;
};

TEST_F(OpenMemoryTest, LoadIndexFileKeepsNoNodes) {
  // The loader returns each tree's shape and the extents of its node
  // segment; the pages themselves stay in the file.
  Engine built = BuildEngine();
  const std::string path = SaveIndex(built);
  Result<LoadedIndex> loaded = LoadIndexFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedIndex& idx = loaded.value();
  const std::vector<const PagedTree*> trees = Trees(built);
  ASSERT_EQ(idx.trees.size(), trees.size());
  ASSERT_EQ(idx.extents.size(), trees.size());
  for (size_t t = 0; t < trees.size(); ++t) {
    EXPECT_EQ(idx.trees[t].node_count, trees[t]->node_count());
    EXPECT_EQ(idx.trees[t].root, trees[t]->root_id());
    EXPECT_EQ(idx.trees[t].height, trees[t]->height());
    EXPECT_EQ(idx.extents[t].first_page, TreePageBase(t));
    EXPECT_EQ(idx.extents[t].page_count, trees[t]->node_count());
  }
}

TEST_F(OpenMemoryTest, OpenedPagesAreTheBuiltPages) {
  // Every node of the opened engine is read in place, and its page is the
  // built engine's page byte for byte: one representation end to end.
  Engine built = BuildEngine();
  Result<Engine> opened = Engine::Open(SaveIndex(built));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().page_store().backend(), StorageBackend::kFile);
  const std::vector<const PagedTree*> want = Trees(built);
  const std::vector<const PagedTree*> got = Trees(opened.value());
  ASSERT_EQ(want.size(), got.size());
  for (size_t t = 0; t < want.size(); ++t) {
    ASSERT_EQ(got[t]->node_count(), want[t]->node_count());
    EXPECT_EQ(&got[t]->pages(), &opened.value().page_store());
    for (NodeId id = 0; id < want[t]->node_count(); ++id) {
      const PageView a = want[t]->PeekPage(id);
      const PageView b = got[t]->PeekPage(id);
      ASSERT_EQ(a.bytes().size(), b.bytes().size());
      EXPECT_TRUE(std::equal(a.bytes().begin(), a.bytes().end(),
                             b.bytes().begin()))
          << "tree " << t << " node " << id;
    }
  }
}

TEST_F(OpenMemoryTest, NodeReadsAllocateNothingBeforeOrAfterQueries) {
  // No node is decoded into the heap: reading every node of every tree
  // allocates nothing, on the opened (mapped) engine and on the built one,
  // before queries run and after.
  Engine built = BuildEngine();
  Result<Engine> opened = Engine::Open(SaveIndex(built));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  for (const Engine* engine : {&built, &opened.value()}) {
    EXPECT_EQ(AllocationsToReadEveryNode(*engine), 0u);
    const Query q = SampleQuery();
    for (int i = 0; i < 3; ++i) {
      Result<QueryResult> r = engine->Execute(q, Algorithm::kStps);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_TRUE(engine->Execute(q, Algorithm::kStds).ok());
    }
    EXPECT_EQ(AllocationsToReadEveryNode(*engine), 0u);
  }
}

}  // namespace
}  // namespace stpq
