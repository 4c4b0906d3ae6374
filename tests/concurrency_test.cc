// Concurrency tests for the engine's thread-safe read path (DESIGN.md §11).
//
// The load-bearing guarantee: every query reads through cold pools of its
// own, so a parallel run over N threads produces byte-identical
// ResultEntry lists AND identical per-query page-read counters to a
// sequential run — concurrency must not perturb either the answers or the
// simulated-I/O cost model.  These tests are the ones the CI thread-
// sanitizer job runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/cursor.h"
#include "core/engine.h"
#include "core/workload.h"
#include "gen/queries.h"
#include "gen/synthetic.h"

namespace stpq {
namespace {

Dataset MakeDataset(uint32_t objects = 2'000, uint32_t features = 1'500) {
  SyntheticConfig cfg;
  cfg.seed = 7;
  cfg.num_objects = objects;
  cfg.num_features_per_set = features;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 50;
  return GenerateSynthetic(cfg);
}

/// ~`count` queries cycling through all three score variants.
std::vector<Query> MixedWorkload(const Dataset& ds, uint32_t count) {
  std::vector<Query> out;
  QueryWorkloadConfig qcfg;
  qcfg.count = (count + 2) / 3;
  qcfg.radius = 0.03;
  uint64_t seed = 99;
  for (ScoreVariant v : {ScoreVariant::kRange, ScoreVariant::kInfluence,
                         ScoreVariant::kNearestNeighbor}) {
    qcfg.variant = v;
    qcfg.seed = seed++;  // distinct query centers per variant
    std::vector<Query> qs = GenerateQueries(ds, qcfg);
    out.insert(out.end(), qs.begin(), qs.end());
  }
  return out;
}

void ExpectIdentical(const QueryResult& seq, const QueryResult& par,
                     size_t query_index) {
  ASSERT_EQ(seq.entries.size(), par.entries.size()) << "query " << query_index;
  for (size_t r = 0; r < seq.entries.size(); ++r) {
    EXPECT_EQ(seq.entries[r].object, par.entries[r].object)
        << "query " << query_index << " rank " << r;
    // Exact bit equality, not EXPECT_NEAR: the parallel run executes the
    // same code over the same immutable indexes.
    EXPECT_EQ(seq.entries[r].score, par.entries[r].score)
        << "query " << query_index << " rank " << r;
  }
  EXPECT_EQ(seq.stats.object_index_reads, par.stats.object_index_reads)
      << "query " << query_index;
  EXPECT_EQ(seq.stats.feature_index_reads, par.stats.feature_index_reads)
      << "query " << query_index;
  EXPECT_EQ(seq.stats.buffer_hits, par.stats.buffer_hits)
      << "query " << query_index;
}

// The acceptance test: 200 mixed-variant queries, sequential vs 8 threads.
TEST(ConcurrencyTest, ParallelRunMatchesSequentialExactly) {
  Dataset ds = MakeDataset();
  std::vector<Query> queries = MixedWorkload(ds, 200);
  ASSERT_GE(queries.size(), 200u);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();

  std::vector<QueryResult> sequential;
  sequential.reserve(queries.size());
  for (const Query& q : queries) {
    sequential.push_back(engine.Execute(q, Algorithm::kStps).TakeValue());
  }

  WorkloadOptions opts;
  opts.threads = 8;
  Result<WorkloadReport> report = RunWorkload(engine, queries, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const WorkloadReport& r = report.value();

  ASSERT_EQ(r.per_query.size(), sequential.size());
  for (size_t i = 0; i < sequential.size(); ++i) {
    ExpectIdentical(sequential[i], r.per_query[i], i);
  }
  EXPECT_GT(r.queries_per_sec, 0.0);
  // The aggregated counters equal the per-query sum.
  uint64_t reads = 0;
  for (const QueryResult& q : r.per_query) reads += q.stats.TotalReads();
  EXPECT_EQ(r.summary.aggregate.TotalReads(), reads);
}

// Both algorithms interleaved on raw threads: each thread owns a disjoint
// slice and checks against the sequential reference in place.
TEST(ConcurrencyTest, MixedAlgorithmsOnRawThreads) {
  Dataset ds = MakeDataset(1'000, 800);
  std::vector<Query> queries = MixedWorkload(ds, 48);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();

  std::vector<QueryResult> seq_stds, seq_stps;
  for (const Query& q : queries) {
    seq_stds.push_back(engine.Execute(q, Algorithm::kStds).TakeValue());
    seq_stps.push_back(engine.Execute(q, Algorithm::kStps).TakeValue());
  }

  std::atomic<size_t> next{0};
  auto worker = [&](Algorithm alg, const std::vector<QueryResult>& expect) {
    while (true) {
      size_t i = next.fetch_add(1);
      if (i >= queries.size()) return;
      QueryResult r = engine.Execute(queries[i], alg).TakeValue();
      ExpectIdentical(expect[i], r, i);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back(worker, Algorithm::kStds, std::cref(seq_stds));
    pool.emplace_back(worker, Algorithm::kStps, std::cref(seq_stps));
  }
  // Both algorithm flavors drain the same claim counter, so some queries
  // run under STDS and some under STPS — the point is the interleaving,
  // not full coverage of either; the first loop already verified both.
  for (std::thread& t : pool) t.join();
}

// A cursor owns its execution session: it stays valid after the opening
// query's scope is gone, can be drained from a different thread, and can
// be drained while other queries execute concurrently.
TEST(ConcurrencyTest, CursorOutlivesQueryAndMovesThreads) {
  Dataset ds = MakeDataset(1'000, 800);
  QueryWorkloadConfig qcfg;
  qcfg.count = 4;
  qcfg.radius = 0.05;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();

  // Sequential reference stream per query.
  std::vector<std::vector<ResultEntry>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    std::unique_ptr<StpsCursor> c = engine.OpenCursor(queries[i]).TakeValue();
    while (auto e = c->Next()) expected[i].push_back(*e);
  }

  // Open all cursors on this thread, then hand each to its own thread and
  // drain them concurrently with a background Execute load.
  std::vector<std::unique_ptr<StpsCursor>> cursors;
  for (const Query& q : queries) {
    cursors.push_back(engine.OpenCursor(q).TakeValue());
  }
  std::atomic<bool> stop{false};
  std::thread load([&]() {
    while (!stop.load()) {
      QueryResult r = engine.Execute(queries[0], Algorithm::kStps).TakeValue();
      (void)r;
    }
  });
  std::vector<std::thread> drainers;
  for (size_t i = 0; i < cursors.size(); ++i) {
    drainers.emplace_back([&, i]() {
      size_t rank = 0;
      while (auto e = cursors[i]->Next()) {
        ASSERT_LT(rank, expected[i].size()) << "cursor " << i;
        EXPECT_EQ(e->object, expected[i][rank].object)
            << "cursor " << i << " rank " << rank;
        EXPECT_EQ(e->score, expected[i][rank].score)
            << "cursor " << i << " rank " << rank;
        ++rank;
      }
      EXPECT_EQ(rank, expected[i].size()) << "cursor " << i;
      // I/O was charged to the cursor's own session.
      EXPECT_GT(cursors[i]->stats().TotalReads(), 0u) << "cursor " << i;
    });
  }
  for (std::thread& t : drainers) t.join();
  stop.store(true);
  load.join();
}

// Execute leases pooled sessions: threads lease and return them
// concurrently, and a session that served other threads' queries answers
// the next one exactly like a fresh session.
TEST(ConcurrencyTest, PooledSessionsReturnCleanAfterConcurrentUse) {
  const Dataset ds = MakeDataset(1'000, 800);
  const std::vector<Query> queries = MixedWorkload(ds, 48);
  Dataset d = MakeDataset(1'000, 800);
  Engine engine =
      Engine::Build(d.objects, std::move(d.feature_tables), {}).TakeValue();
  std::vector<QueryResult> stps;
  std::vector<std::vector<ResultEntry>> stds;
  for (const Query& q : queries) {
    stps.push_back(engine.Execute(q, Algorithm::kStps).TakeValue());
    stds.push_back(engine.Execute(q, Algorithm::kStds).TakeValue().entries);
  }

  constexpr size_t kThreads = 6;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (size_t round = 0; round < 2; ++round) {
        for (size_t i = t; i < queries.size(); i += kThreads) {
          const bool use_stds = (i + round) % 2 == 0;
          QueryResult r =
              engine
                  .Execute(queries[i], use_stds ? Algorithm::kStds
                                                : Algorithm::kStps)
                  .TakeValue();
          EXPECT_EQ(r.entries, use_stds ? stds[i] : stps[i].entries)
              << "query " << i;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResult r = engine.Execute(queries[i], Algorithm::kStps).TakeValue();
    ExpectIdentical(stps[i], r, i);
    EXPECT_EQ(r.stats.buffer_hits, stps[i].stats.buffer_hits)
        << "query " << i;
  }
}

// Thread-count sweep: every N yields the same per-query counters (the
// invariant bench_paper's thread sweep relies on).
TEST(ConcurrencyTest, CountersIndependentOfThreadCount) {
  Dataset ds = MakeDataset(1'000, 800);
  std::vector<Query> queries = MixedWorkload(ds, 30);
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  WorkloadOptions opts;
  opts.threads = 1;
  WorkloadReport base = RunWorkload(engine, queries, opts).TakeValue();
  for (size_t threads : {2u, 4u, 8u}) {
    opts.threads = threads;
    WorkloadReport r = RunWorkload(engine, queries, opts).TakeValue();
    ASSERT_EQ(r.per_query.size(), base.per_query.size());
    for (size_t i = 0; i < base.per_query.size(); ++i) {
      ExpectIdentical(base.per_query[i], r.per_query[i], i);
    }
  }
}

// The report says how many workers ran: the requested threads, capped at
// the batch size, with 0 asking for the hardware's concurrency.
TEST(ConcurrencyTest, ReportNamesTheWorkersThatRan) {
  Dataset ds = MakeDataset(500, 400);
  std::vector<Query> queries = MixedWorkload(ds, 3);
  queries.resize(2);
  Engine engine =
      Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  WorkloadOptions opts;
  for (size_t threads : {1u, 2u, 8u}) {
    opts.threads = threads;
    Result<WorkloadReport> r = RunWorkload(engine, queries, opts);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().workers, std::min<size_t>(threads, 2)) << threads;
  }
  opts.threads = 0;
  const size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(RunWorkload(engine, queries, opts).value().workers,
            std::min<size_t>(hardware, 2));
}

// Validation short-circuits the whole batch: nothing executes.
TEST(ConcurrencyTest, RunnerRejectsMalformedBatch) {
  Dataset ds = MakeDataset(500, 400);
  std::vector<Query> queries = MixedWorkload(ds, 10);
  queries[3].k = 0;
  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  Result<WorkloadReport> r = RunWorkload(engine, queries, {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("query 3"), std::string::npos)
      << r.status().message();
}

}  // namespace
}  // namespace stpq
