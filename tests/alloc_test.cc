// Allocation-count spot check for the query hot path (DESIGN.md §13).
//
// Replaces the global allocator with a counting shim and asserts that a
// *warm* traversal scratch executes the range-variant component-score
// kernel with zero heap allocations: after one warm-up pass has grown the
// scratch vectors to their steady-state capacity, repeating the same
// queries must not allocate at all.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/compute_score.h"
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
// already-registered ring, the warm kernel still performs zero heap
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
  FeatureIndexOptions opts;
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
  TraversalScratch scratch;
  auto run_all = [&] {
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      total += ComputeBestRange(index, points[i], queries[i], 0.5, 0.08,
                                stats, scratch)
                   .score;
    }
    return total;
  };

  Tracer::Global().Start();
  // Warm-up: grows the scratch vectors *and* registers this thread's
  // trace ring (its single allocation happens here, once per process).
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
  FeatureIndexOptions opts;  // no buffer pool: pure in-memory traversal
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
  TraversalScratch scratch;
  auto run_all = [&] {
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      total += ComputeBestRange(index, points[i], queries[i], 0.5, 0.08,
                                stats, scratch)
                   .score;
    }
    return total;
  };

  // Warm-up: grows scratch.heap / scratch.children to steady state.
  const double warm_total = run_all();

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const double steady_total = run_all();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "warm range traversal performed " << (after - before)
      << " heap allocations";
  EXPECT_DOUBLE_EQ(steady_total, warm_total);
}

}  // namespace
}  // namespace stpq
