// Allocation-count checks for the query path (DESIGN.md §13).
//
// Replaces the global allocator with a counting shim.  Kernel level: a
// *warm* session executes the range-variant component-score kernel with
// zero heap allocations — after one warm-up pass has grown the scratch
// vectors and the pool to their steady-state capacity, repeating the same
// queries (each reset as a query start resets it) must not allocate.  Query level: a warm Engine::Execute
// allocates only the entries it returns.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/compute_score.h"
#include "core/engine.h"
#include "core/exec_session.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "index/srt_index.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Counting global allocator.  Only the allocation entry points count;
// deallocation stays untracked (frees are irrelevant to the invariant).
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

// Tracing variant of the invariant: with the tracer recording into an
// already-allocated ring, the warm kernel still performs zero heap
// allocations — TryEmit writes into preallocated ring slots, and a full
// ring drops events instead of growing.
TEST(AllocationTest, WarmTracedRangeTraversalAllocatesNothing) {
  SyntheticConfig cfg;
  cfg.seed = 31;
  cfg.num_objects = 32;
  cfg.num_features_per_set = 5000;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 64;
  cfg.num_clusters = 128;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;
  SrtIndex index(&ds.feature_tables[0], opts);

  Rng rng(32);
  std::vector<Point> points;
  std::vector<KeywordSet> queries;
  for (int i = 0; i < 16; ++i) {
    points.push_back({rng.Uniform(), rng.Uniform()});
    KeywordSet kw(cfg.vocabulary_size);
    kw.Insert(static_cast<TermId>(rng.UniformInt(0, 63)));
    kw.Insert(static_cast<TermId>(rng.UniformInt(0, 63)));
    queries.push_back(std::move(kw));
  }

  QueryStats stats;
  ExecutionSession session(&index.tree().pages());
  TraversalScratch& scratch = session.scratch();
  auto run_all = [&] {
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      scratch.Reset();  // each (point, keywords) pair is a query of its own
      total += ComputeBestRange(index, points[i], queries[i], 0.5, 0.08,
                                stats, scratch)
                   .score;
    }
    return total;
  };

  Tracer::Global().Start();
  // Warm-up: grows the scratch vectors *and* allocates this thread's
  // trace ring (its single allocation happens here, once per thread).
  const double warm_total = run_all();

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const double steady_total = run_all();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);

  Tracer::Global().Stop();
  Tracer::Global().Discard();

  EXPECT_EQ(after - before, 0u)
      << "warm traced range traversal performed " << (after - before)
      << " heap allocations";
  EXPECT_DOUBLE_EQ(steady_total, warm_total);
  // The traced run really recorded node visits (same counters either way).
  EXPECT_GT(stats.traversal.FeatureVisited(), 0u);
}

TEST(AllocationTest, WarmScratchRangeTraversalAllocatesNothing) {
  SyntheticConfig cfg;
  cfg.seed = 31;
  cfg.num_objects = 32;
  cfg.num_features_per_set = 5000;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 64;
  cfg.num_clusters = 128;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;  // in-memory pages, read through a session's pool
  SrtIndex index(&ds.feature_tables[0], opts);

  Rng rng(32);
  std::vector<Point> points;
  std::vector<KeywordSet> queries;
  for (int i = 0; i < 16; ++i) {
    points.push_back({rng.Uniform(), rng.Uniform()});
    KeywordSet kw(cfg.vocabulary_size);
    kw.Insert(static_cast<TermId>(rng.UniformInt(0, 63)));
    kw.Insert(static_cast<TermId>(rng.UniformInt(0, 63)));
    queries.push_back(std::move(kw));
  }

  QueryStats stats;
  ExecutionSession session(&index.tree().pages());
  TraversalScratch& scratch = session.scratch();
  auto run_all = [&] {
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      scratch.Reset();  // each (point, keywords) pair is a query of its own
      total += ComputeBestRange(index, points[i], queries[i], 0.5, 0.08,
                                stats, scratch)
                   .score;
    }
    return total;
  };

  // Warm-up: grows scratch.heap, the memo and the pool's frames and page
  // table to steady state.
  const double warm_total = run_all();

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const double steady_total = run_all();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "warm range traversal performed " << (after - before)
      << " heap allocations";
  EXPECT_DOUBLE_EQ(steady_total, warm_total);
}

// End-to-end form of the contract.  A query pool runs twice through
// Engine::Execute; in the second pass every query reuses a pooled session
// whose buffers already have their steady-state capacity, so the only
// allocation left is the returned entries vector (reserved to k up front).
// `reopened` runs the pool on the Save + Open (file-backed) engine.
void ExpectWarmExecuteAllocatesOnlyEntries(Algorithm algorithm,
                                           ScoreVariant variant,
                                           bool reopened) {
  SyntheticConfig cfg;
  cfg.seed = 41;
  cfg.num_objects = 1500;
  cfg.num_features_per_set = 1500;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 48;
  cfg.num_clusters = 60;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 24;
  qcfg.k = 10;
  qcfg.radius = 0.04;
  qcfg.keywords_per_set = 2;
  qcfg.variant = variant;
  const std::vector<Query> queries = GenerateQueries(ds, qcfg);

  Engine built = Engine::Build(std::move(ds.objects),
                               std::move(ds.feature_tables))
                     .TakeValue();
  std::filesystem::path dir;
  std::optional<Engine> file_backed;
  if (reopened) {
    dir = std::filesystem::temp_directory_path() /
          ("stpq_alloc_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "alloc.stpqx").string();
    ASSERT_TRUE(built.Save(path).ok());
    Result<Engine> opened = Engine::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    file_backed.emplace(opened.TakeValue());
  }
  const Engine& engine = reopened ? *file_backed : built;

  // Pass 1 warms the session pool, decodes the nodes the pool touches and
  // records the answers.
  std::vector<std::vector<ResultEntry>> first;
  for (const Query& q : queries) {
    first.push_back(engine.Execute(q, algorithm).TakeValue().entries);
  }
  std::vector<uint64_t> allocations(queries.size(), 0);
  std::vector<bool> same(queries.size(), false);
  size_t answered = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    Result<QueryResult> r = engine.Execute(queries[i], algorithm);
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    allocations[i] = after - before;
    same[i] = r.ok() && r.value().entries == first[i];
    if (r.ok() && !r.value().entries.empty()) ++answered;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_LE(allocations[i], 1u) << "query " << i << ": a warm Execute "
                                  << "performed " << allocations[i]
                                  << " heap allocations";
    EXPECT_TRUE(same[i]) << "query " << i << " answered differently";
  }
  EXPECT_GT(answered, 0u) << "the pool must exercise result assembly";
  if (!dir.empty()) std::filesystem::remove_all(dir);
}

TEST(EngineAllocationTest, WarmStpsRangeAllocatesOnlyTheEntries) {
  ExpectWarmExecuteAllocatesOnlyEntries(Algorithm::kStps,
                                        ScoreVariant::kRange, false);
}

TEST(EngineAllocationTest, WarmStpsInfluenceAllocatesOnlyTheEntries) {
  ExpectWarmExecuteAllocatesOnlyEntries(Algorithm::kStps,
                                        ScoreVariant::kInfluence, false);
}

TEST(EngineAllocationTest, WarmStpsNearestNeighborAllocatesOnlyTheEntries) {
  ExpectWarmExecuteAllocatesOnlyEntries(
      Algorithm::kStps, ScoreVariant::kNearestNeighbor, false);
}

TEST(EngineAllocationTest, WarmReopenedStpsRangeAllocatesOnlyTheEntries) {
  ExpectWarmExecuteAllocatesOnlyEntries(Algorithm::kStps,
                                        ScoreVariant::kRange, true);
}

TEST(EngineAllocationTest, WarmStdsBatchedRangeAllocatesOnlyTheEntries) {
  ExpectWarmExecuteAllocatesOnlyEntries(Algorithm::kStds,
                                        ScoreVariant::kRange, false);
}

}  // namespace
}  // namespace stpq
