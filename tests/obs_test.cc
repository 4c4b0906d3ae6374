// Tests for src/obs/: phase spans, latency histograms, the metrics
// registry with Prometheus exposition, and the engine's metric feeding —
// including QueryStats merging under the parallel workload runner.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/query_metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace stpq {
namespace {

// -------------------------------------------------------------- phase Span

/// Burns a little CPU so a span has measurable (nonzero-ish) duration
/// without sleeping; returns a value to keep the loop alive.
double Spin(int iters) {
  volatile double x = 1.0;
  for (int i = 0; i < iters * 1000; ++i) x = x + 1.0 / (x + 1.0);
  return x;
}

TEST(PhaseSpanTest, AttributesToNamedPhase) {
  QueryStats stats;
  {
    Span t(stats, QueryPhase::kCombination);
    Spin(10);
  }
  EXPECT_GT(stats.PhaseMillis(QueryPhase::kCombination), 0.0);
  EXPECT_EQ(stats.PhaseMillis(QueryPhase::kComponentScore), 0.0);
  EXPECT_EQ(stats.PhaseMillis(QueryPhase::kObjectRetrieval), 0.0);
  EXPECT_EQ(stats.PhaseMillis(QueryPhase::kVoronoi), 0.0);
}

TEST(PhaseSpanTest, NestedSpansAttributeSelfTimeOnly) {
  QueryStats stats;
  const auto wall_start = std::chrono::steady_clock::now();
  {
    Span outer(stats, QueryPhase::kObjectRetrieval);
    Spin(2);
    {
      Span inner(stats, QueryPhase::kComponentScore);
      Spin(50);  // much more work than the outer span's own
    }
    Spin(2);
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  const double outer_ms = stats.PhaseMillis(QueryPhase::kObjectRetrieval);
  const double inner_ms = stats.PhaseMillis(QueryPhase::kComponentScore);
  EXPECT_GT(outer_ms, 0.0);
  EXPECT_GT(inner_ms, 0.0);
  // Self-time: the outer span excludes the inner span's elapsed time.  The
  // inner span spins 25x more than the outer does, so if the outer span
  // double-counted the nested time it would dominate instead.
  EXPECT_LT(outer_ms, inner_ms);
  // The self-times partition the outer span's elapsed wall time, so their
  // sum can never exceed the enclosing wall-clock measurement.
  EXPECT_LE(stats.TracedMillis(), wall_ms + 1e-6);
}

TEST(PhaseSpanTest, ReentrantSamePhaseAccumulates) {
  QueryStats stats;
  for (int i = 0; i < 3; ++i) {
    Span t(stats, QueryPhase::kCombination);
    Spin(2);
  }
  EXPECT_GT(stats.PhaseMillis(QueryPhase::kCombination), 0.0);
}

TEST(PhaseSpanTest, OneLinePhaseSiteRecords) {
  QueryStats stats;
  {
    Span span(stats, QueryPhase::kVoronoi, /*arg_c=*/3, /*arg_d=*/7);
    Spin(5);
  }
  EXPECT_GT(stats.PhaseMillis(QueryPhase::kVoronoi), 0.0);
}

TEST(PhaseSpanTest, NestedSpansMayTargetDifferentStats) {
  // A cursor drained inside another query's span writes to its own stats;
  // the parent still excludes the nested time from its self-time.
  QueryStats parent_stats, child_stats;
  {
    Span parent(parent_stats, QueryPhase::kCombination);
    {
      Span child(child_stats, QueryPhase::kObjectRetrieval);
      Spin(10);
    }
  }
  EXPECT_GT(child_stats.PhaseMillis(QueryPhase::kObjectRetrieval), 0.0);
  EXPECT_EQ(child_stats.PhaseMillis(QueryPhase::kCombination), 0.0);
  // The parent's self time is tiny compared to the child's span.
  EXPECT_LT(parent_stats.PhaseMillis(QueryPhase::kCombination),
            child_stats.PhaseMillis(QueryPhase::kObjectRetrieval));
}

TEST(PhaseSpanTest, UntracedMillisCoversCrossStatsNesting) {
  // A nested span that writes to a *different* stats object (cursor inside
  // a query) is invisible to the parent's phase breakdown: its time shows
  // up as the parent's untraced remainder, never as negative slack.
  QueryStats parent_stats, child_stats;
  const auto wall_start = std::chrono::steady_clock::now();
  {
    Span parent(parent_stats, QueryPhase::kCombination);
    Spin(2);
    {
      Span child(child_stats, QueryPhase::kObjectRetrieval);
      Spin(50);
    }
    Spin(2);
  }
  parent_stats.cpu_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  const double child_ms =
      child_stats.PhaseMillis(QueryPhase::kObjectRetrieval);
  EXPECT_GT(child_ms, 0.0);
  // The child's work dominates the wall time but is untraced from the
  // parent's perspective (loose factor: scheduling noise).
  EXPECT_GE(parent_stats.UntracedMillis(), child_ms * 0.5);
  EXPECT_LE(parent_stats.TracedMillis(), parent_stats.cpu_ms + 1e-6);
}

TEST(QueryStatsTest, UntracedMillisClampsAtZero) {
  QueryStats s;
  s.phase_ms[static_cast<size_t>(QueryPhase::kCombination)] = 5.0;
  EXPECT_DOUBLE_EQ(s.TracedMillis(), 5.0);
  // Phase time recorded outside a query span (or stats filled by hand) can
  // exceed cpu_ms; the remainder clamps.
  s.cpu_ms = 1.0;
  EXPECT_DOUBLE_EQ(s.UntracedMillis(), 0.0);
  s.cpu_ms = 8.0;
  EXPECT_DOUBLE_EQ(s.UntracedMillis(), 3.0);
}

// ---------------------------------------------------------- LatencyBuckets

TEST(LatencyBucketsTest, BoundsGrowMonotonically) {
  for (size_t i = 0; i + 2 < LatencyBuckets::kNumBuckets; ++i) {
    EXPECT_LT(LatencyBuckets::UpperBoundMs(i),
              LatencyBuckets::UpperBoundMs(i + 1))
        << "bucket " << i;
  }
  EXPECT_DOUBLE_EQ(LatencyBuckets::UpperBoundMs(0),
                   LatencyBuckets::kMinUpperMs);
  EXPECT_TRUE(
      std::isinf(LatencyBuckets::UpperBoundMs(LatencyBuckets::kNumBuckets - 1)));
}

TEST(LatencyBucketsTest, IndexForMatchesBounds) {
  EXPECT_EQ(LatencyBuckets::IndexFor(0.0), 0u);
  EXPECT_EQ(LatencyBuckets::IndexFor(-1.0), 0u);
  for (size_t i = 0; i + 1 < LatencyBuckets::kNumBuckets; ++i) {
    const double bound = LatencyBuckets::UpperBoundMs(i);
    // A value just under the bound lands in bucket i; just over in i+1.
    EXPECT_EQ(LatencyBuckets::IndexFor(bound * 0.999), i) << "bucket " << i;
    EXPECT_EQ(LatencyBuckets::IndexFor(bound * 1.001), i + 1)
        << "bucket " << i;
  }
  // Far past the largest finite bound: the overflow bucket absorbs it.
  EXPECT_EQ(LatencyBuckets::IndexFor(1e18),
            LatencyBuckets::kNumBuckets - 1);
}

// -------------------------------------------------------- LatencyHistogram

TEST(LatencyHistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum_ms(), 0.0);
  EXPECT_EQ(h.max_ms(), 0.0);
  EXPECT_EQ(h.mean_ms(), 0.0);
  EXPECT_EQ(h.PercentileMs(0.5), 0.0);
}

TEST(LatencyHistogramTest, RecordsAndSummarizes) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));  // 1..100ms
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum_ms(), 5050.0);
  EXPECT_DOUBLE_EQ(h.max_ms(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean_ms(), 50.5);
  // Log-scale buckets are ~41% wide, so percentiles are coarse but must be
  // ordered, within a bucket of the true value, and capped at the max.
  const double p50 = h.PercentileMs(0.50);
  const double p90 = h.PercentileMs(0.90);
  const double p99 = h.PercentileMs(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max_ms());
  EXPECT_GT(p50, 50.0 * 0.5);
  EXPECT_LT(p50, 50.0 * 1.5);
  EXPECT_GT(p99, 99.0 * 0.5);
  EXPECT_EQ(h.PercentileMs(1.0), h.max_ms());
}

// --------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("test_total", "help");
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name -> same instrument.
  EXPECT_EQ(&reg.GetCounter("test_total", "help"), &c);

  Gauge& g = reg.GetGauge("test_gauge", "help");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  HistogramMetric& h = reg.GetHistogram("test_ms", "help");
  h.Record(1.0);
  h.Record(10.0);
  LatencyHistogram snap = h.Snapshot();
  EXPECT_EQ(snap.count(), 2u);
  // Snapshot carries the exact sum (the buckets are what stay coarse).
  EXPECT_GE(snap.sum_ms(), 11.0);
  EXPECT_LE(snap.sum_ms(), 11.0 * 1.45);
}

TEST(MetricsRegistryTest, SnapshotSumIsExact) {
  // Bucket 0 is [0, 1 us): replaying its samples at the bucket bound would
  // report each 0.1 us sample as 1 us.  The snapshot keeps the exact sum,
  // the one the Prometheus exposition renders as _sum.
  MetricsRegistry reg;
  HistogramMetric& h = reg.GetHistogram("tiny_ms", "help");
  for (int i = 0; i < 1000; ++i) h.Record(0.0001);
  const LatencyHistogram snap = h.Snapshot();
  EXPECT_EQ(snap.count(), 1000u);
  EXPECT_NEAR(snap.sum_ms(), 0.1, 1e-9);
  EXPECT_EQ(snap.bucket_count(0), 1000u);
  const std::string text = reg.RenderPrometheusText();
  const std::string key = "tiny_ms_sum ";
  const size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_NEAR(std::stod(text.substr(at + key.size())), snap.sum_ms(), 1e-9);
  // Deltas of exact snapshots stay exact.
  for (int i = 0; i < 500; ++i) h.Record(0.0001);
  EXPECT_NEAR(h.Snapshot().Delta(snap).sum_ms(), 0.05, 1e-9);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("race_total", "help");
  HistogramMetric& h = reg.GetHistogram("race_ms", "help");
  constexpr int kThreads = 8, kPerThread = 10'000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&]() {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Record(1.0);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.Snapshot().count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, PrometheusTextExposition) {
  MetricsRegistry reg;
  reg.GetCounter("stpq_test_total", "A test counter").Increment(7);
  reg.GetGauge("stpq_test_gauge", "A test gauge").Set(3.5);
  HistogramMetric& h = reg.GetHistogram("stpq_test_ms", "A test histogram");
  h.Record(0.5);
  h.Record(5.0);
  const std::string text = reg.RenderPrometheusText();

  EXPECT_NE(text.find("# HELP stpq_test_total A test counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE stpq_test_total counter"), std::string::npos);
  EXPECT_NE(text.find("stpq_test_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE stpq_test_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("stpq_test_gauge 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE stpq_test_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("stpq_test_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("stpq_test_ms_count 2"), std::string::npos);
  EXPECT_NE(text.find("stpq_test_ms_sum"), std::string::npos);

  // Cumulative bucket counts must be non-decreasing in le order.
  size_t pos = 0;
  uint64_t prev = 0;
  int buckets_seen = 0;
  while ((pos = text.find("stpq_test_ms_bucket{le=", pos)) !=
         std::string::npos) {
    size_t brace = text.find("} ", pos);
    ASSERT_NE(brace, std::string::npos);
    uint64_t count = std::stoull(text.substr(brace + 2));
    EXPECT_GE(count, prev);
    prev = count;
    ++buckets_seen;
    pos = brace;
  }
  EXPECT_EQ(buckets_seen,
            static_cast<int>(LatencyBuckets::kNumBuckets));  // incl. +Inf
  EXPECT_EQ(prev, 2u);  // the +Inf bucket equals _count
}

TEST(MetricsRegistryTest, PrometheusHelpEscapesBackslashAndNewline) {
  MetricsRegistry reg;
  reg.GetCounter("stpq_escape_total", "line one\nback\\slash").Increment();
  const std::string text = reg.RenderPrometheusText();
  // Text format 0.0.4: '\\' -> '\\\\' and a raw newline -> the two
  // characters '\\n', so every HELP line stays a single line.
  EXPECT_NE(text.find("# HELP stpq_escape_total line one\\nback\\\\slash"),
            std::string::npos);
}

TEST(MetricsRegistryTest, ExpositionEverySampleHasHelpAndType) {
  MetricsRegistry reg;
  reg.GetCounter("stpq_conf_total", "counter help").Increment(3);
  reg.GetGauge("stpq_conf_gauge", "gauge help").Set(1.0);
  reg.GetHistogram("stpq_conf_ms", "histogram help").Record(2.0);
  const std::string text = reg.RenderPrometheusText();
  ASSERT_FALSE(text.empty());
  // The exposition must end with a newline (text format requirement).
  EXPECT_EQ(text.back(), '\n');

  // Every sample line's metric family must have been announced by a
  // "# HELP" and a "# TYPE" line earlier in the stream.
  std::set<std::string> helped, typed;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0) {
      helped.insert(line.substr(7, line.find(' ', 7) - 7));
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      typed.insert(line.substr(7, line.find(' ', 7) - 7));
      continue;
    }
    ASSERT_NE(line.front(), '#') << line;
    std::string name = line.substr(0, line.find_first_of("{ "));
    // Histogram samples belong to the family without the suffix.
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t len = std::string(suffix).size();
      if (name.size() > len &&
          name.compare(name.size() - len, len, suffix) == 0 &&
          typed.count(name.substr(0, name.size() - len)) > 0) {
        name = name.substr(0, name.size() - len);
        break;
      }
    }
    EXPECT_EQ(helped.count(name), 1u) << "sample without HELP: " << line;
    EXPECT_EQ(typed.count(name), 1u) << "sample without TYPE: " << line;
  }
}

TEST(MetricsRegistryTest, ResetForTestKeepsHandlesValid) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("reset_total", "help");
  c.Increment(5);
  reg.ResetForTest();
  EXPECT_EQ(c.value(), 0u);
  c.Increment();  // the old handle still points at the live instrument
  EXPECT_EQ(reg.GetCounter("reset_total", "help").value(), 1u);
}

// ------------------------------------------------------------ QueryMetrics

TEST(QueryMetricsTest, RecordQueryFoldsCounters) {
  MetricsRegistry reg;
  QueryMetrics qm(reg);
  QueryStats stats;
  stats.object_index_reads = 3;
  stats.feature_index_reads = 4;
  stats.buffer_hits = 5;
  stats.heap_pushes = 6;
  stats.objects_scored = 7;
  stats.cpu_ms = 1.25;
  stats.phase_ms[static_cast<size_t>(QueryPhase::kCombination)] = 2.0;
  qm.RecordQuery(stats);
  qm.RecordQuery(stats);
  qm.RecordRejected();
  EXPECT_EQ(qm.queries_total.value(), 2u);
  EXPECT_EQ(qm.rejected_total.value(), 1u);
  EXPECT_EQ(qm.pages_read_total.value(), 14u);
  EXPECT_EQ(qm.buffer_hits_total.value(), 10u);
  EXPECT_EQ(qm.heap_pushes_total.value(), 12u);
  EXPECT_EQ(qm.objects_scored_total.value(), 14u);
  EXPECT_EQ(qm.query_cpu_ms.Snapshot().count(), 2u);
  EXPECT_EQ(
      qm.phase_us_total[static_cast<size_t>(QueryPhase::kCombination)]
          ->value(),
      4000u);
}

TEST(QueryMetricsTest, RecordQueryFoldsTraversalCounters) {
  MetricsRegistry reg;
  QueryMetrics qm(reg);
  QueryStats stats;
  stats.traversal.object_tree.RecordVisit(/*level=*/0, /*pruned_n=*/2,
                                          /*descended_n=*/3);
  stats.traversal.object_tree.RecordVisit(1, 4, 5);
  stats.traversal.FeatureTree(0).RecordVisit(0, 6, 7);
  stats.traversal.FeatureTree(1).RecordVisit(2, 8, 9);
  qm.RecordQuery(stats);
  EXPECT_EQ(qm.object_tree_nodes_visited_total.value(), 2u);
  EXPECT_EQ(qm.object_tree_entries_pruned_total.value(), 6u);
  EXPECT_EQ(qm.object_tree_entries_descended_total.value(), 8u);
  EXPECT_EQ(qm.feature_tree_nodes_visited_total.value(), 2u);
  EXPECT_EQ(qm.feature_tree_entries_pruned_total.value(), 14u);
  EXPECT_EQ(qm.feature_tree_entries_descended_total.value(), 16u);
  const std::string text = reg.RenderPrometheusText();
  EXPECT_NE(text.find("stpq_object_tree_nodes_visited_total 2"),
            std::string::npos);
  EXPECT_NE(text.find("stpq_feature_tree_entries_pruned_total 14"),
            std::string::npos);
}

// --------------------------------------------- engine + workload wiring

Dataset SmallDataset() {
  SyntheticConfig cfg;
  cfg.num_objects = 400;
  cfg.num_features_per_set = 400;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 40;
  cfg.seed = 11;
  return GenerateSynthetic(cfg);
}

TEST(EngineObservabilityTest, ExecuteFillsPhaseBreakdown) {
  Dataset ds = SmallDataset();
  QueryWorkloadConfig qcfg;
  qcfg.count = 5;
  qcfg.k = 5;
  qcfg.radius = 0.05;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(std::move(ds.objects), std::move(ds.feature_tables), {}).TakeValue();
  for (const Query& q : queries) {
    Result<QueryResult> r = engine.Execute(q, Algorithm::kStps);
    ASSERT_TRUE(r.ok());
    const QueryStats& stats = r.value().stats;
    // Phase self-times never exceed the query's total CPU time.
    EXPECT_LE(stats.TracedMillis(), stats.cpu_ms + 0.5);
    EXPECT_GE(stats.UntracedMillis(), 0.0);
    // STPS range queries run combination enumeration; its phase (or the
    // nested component-score phase) must have been traced.
    EXPECT_GT(stats.PhaseMillis(QueryPhase::kCombination) +
                  stats.PhaseMillis(QueryPhase::kComponentScore),
              0.0);
    EXPECT_EQ(stats.PhaseMillis(QueryPhase::kVoronoi), 0.0);
  }
}

TEST(EngineObservabilityTest, GlobalRegistryAdvancesPerQuery) {
  Dataset ds = SmallDataset();
  QueryWorkloadConfig qcfg;
  qcfg.count = 3;
  qcfg.k = 5;
  qcfg.radius = 0.05;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(std::move(ds.objects), std::move(ds.feature_tables), {}).TakeValue();
  const uint64_t before = QueryMetrics::Global().queries_total.value();
  const uint64_t rejected_before =
      QueryMetrics::Global().rejected_total.value();
  for (const Query& q : queries) {
    ASSERT_TRUE(engine.Execute(q, Algorithm::kStps).ok());
  }
  Query bad = queries[0];
  bad.k = 0;
  EXPECT_FALSE(engine.Execute(bad, Algorithm::kStps).ok());
  EXPECT_EQ(QueryMetrics::Global().queries_total.value(), before + 3);
  EXPECT_EQ(QueryMetrics::Global().rejected_total.value(),
            rejected_before + 1);
  const std::string text =
      MetricsRegistry::Global().RenderPrometheusText();
  EXPECT_NE(text.find("stpq_queries_total"), std::string::npos);
  EXPECT_NE(text.find("stpq_query_cpu_ms_bucket"), std::string::npos);
}

TEST(ParallelWorkloadTest, MergedStatsEqualSumOfPerQueryStats) {
  Dataset ds = SmallDataset();
  QueryWorkloadConfig qcfg;
  qcfg.count = 32;
  qcfg.k = 5;
  qcfg.radius = 0.05;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Engine engine = Engine::Build(std::move(ds.objects), std::move(ds.feature_tables), {}).TakeValue();
  WorkloadOptions opts;
  opts.threads = 4;
  opts.io_unit_cost_ms = 0.1;
  Result<WorkloadReport> report = RunWorkload(engine, queries, opts);
  ASSERT_TRUE(report.ok());
  const WorkloadReport& r = report.value();

  // The aggregate must equal the field-wise sum of the per-query stats:
  // folding them after the join loses nothing.
  QueryStats manual;
  for (const QueryResult& q : r.per_query) manual += q.stats;
  const QueryStats& merged = r.summary.aggregate;
  EXPECT_EQ(merged.object_index_reads, manual.object_index_reads);
  EXPECT_EQ(merged.feature_index_reads, manual.feature_index_reads);
  EXPECT_EQ(merged.buffer_hits, manual.buffer_hits);
  EXPECT_EQ(merged.heap_pushes, manual.heap_pushes);
  EXPECT_EQ(merged.features_retrieved, manual.features_retrieved);
  EXPECT_EQ(merged.combinations_generated, manual.combinations_generated);
  EXPECT_EQ(merged.combinations_emitted, manual.combinations_emitted);
  EXPECT_EQ(merged.objects_scored, manual.objects_scored);
  EXPECT_EQ(merged.voronoi_cells, manual.voronoi_cells);
  // Doubles compare with a tolerance.
  EXPECT_NEAR(merged.cpu_ms, manual.cpu_ms, 1e-6);
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    EXPECT_NEAR(merged.phase_ms[i], manual.phase_ms[i], 1e-6) << i;
  }

  // The latency summary, computed after the join: one sample per query,
  // p50/p90/p95/p99 populated and ordered.
  EXPECT_EQ(r.summary.queries, queries.size());
  EXPECT_GT(r.summary.total_ms.max, 0.0);
  EXPECT_LE(r.summary.total_ms.p50, r.summary.total_ms.p90);
  EXPECT_LE(r.summary.total_ms.p90, r.summary.total_ms.p95);
  EXPECT_LE(r.summary.total_ms.p95, r.summary.total_ms.p99);
  EXPECT_LE(r.summary.total_ms.p99, r.summary.total_ms.max);
}

// ------------------------------------------------------- interval deltas

TEST(SaturatingCounterDeltaTest, SubtractsAndSaturates) {
  EXPECT_EQ(SaturatingCounterDelta(10, 3), 7u);
  EXPECT_EQ(SaturatingCounterDelta(5, 5), 0u);
  // Reversed operands (counter reset between snapshots) saturate to 0
  // instead of wrapping to ~2^64.
  EXPECT_EQ(SaturatingCounterDelta(3, 10), 0u);
  EXPECT_EQ(SaturatingCounterDelta(0, UINT64_MAX), 0u);
}

TEST(LatencyHistogramDeltaTest, IsolatesTheSecondPhase) {
  LatencyHistogram h;
  h.Record(1.0);
  h.Record(2.0);
  const LatencyHistogram before = h;  // snapshot after phase A
  h.Record(100.0);
  h.Record(200.0);
  h.Record(300.0);

  const LatencyHistogram delta = h.Delta(before);
  EXPECT_EQ(delta.count(), 3u);
  EXPECT_NEAR(delta.sum_ms(), 600.0, 1e-9);
  // Phase A's fast samples are gone: the delta's median sits in phase B.
  EXPECT_GT(delta.PercentileMs(0.50), 50.0);
  // Bucket-sum == count invariant holds on the delta.
  uint64_t bucket_sum = 0;
  for (size_t i = 0; i < LatencyBuckets::kNumBuckets; ++i) {
    bucket_sum += delta.bucket_count(i);
  }
  EXPECT_EQ(bucket_sum, delta.count());
}

TEST(LatencyHistogramDeltaTest, EmptyDeltaIsAllZero) {
  LatencyHistogram h;
  h.Record(5.0);
  const LatencyHistogram delta = h.Delta(h);
  EXPECT_EQ(delta.count(), 0u);
  EXPECT_EQ(delta.sum_ms(), 0.0);
  EXPECT_EQ(delta.max_ms(), 0.0);
  EXPECT_EQ(delta.PercentileMs(0.99), 0.0);
}

TEST(LatencyHistogramDeltaTest, MaxCarriesNewerUpperBound) {
  LatencyHistogram before;
  before.Record(10.0);
  LatencyHistogram after = before;
  after.Record(3.0);
  const LatencyHistogram delta = after.Delta(before);
  EXPECT_EQ(delta.count(), 1u);
  // The delta's true max (3.0) is unknowable from two maxima; the newer
  // snapshot's max is the documented upper bound.
  EXPECT_EQ(delta.max_ms(), 10.0);
}

TEST(MetricsSnapshotTest, CopiesEveryInstrumentKind) {
  MetricsRegistry reg;
  reg.GetCounter("c", "help").Increment(42);
  reg.GetGauge("g", "help").Set(2.5);
  reg.GetHistogram("h", "help").Record(7.0);

  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.count("c"), 1u);
  EXPECT_EQ(snap.counters.at("c"), 42u);
  ASSERT_EQ(snap.gauges.count("g"), 1u);
  EXPECT_EQ(snap.gauges.at("g"), 2.5);
  ASSERT_EQ(snap.histograms.count("h"), 1u);
  EXPECT_EQ(snap.histograms.at("h").count(), 1u);

  // The snapshot is a copy: later updates don't retroactively change it.
  reg.GetCounter("c", "help").Increment();
  EXPECT_EQ(snap.counters.at("c"), 42u);
}

TEST(MetricsRecorderTest, ManualSamplesCaptureIntervalDeltas) {
  MetricsRegistry reg;
  Counter& queries = reg.GetCounter("stpq_queries_total", "help");
  Counter& hits = reg.GetCounter("stpq_buffer_hits_total", "help");
  Counter& reads = reg.GetCounter("stpq_pages_read_total", "help");
  HistogramMetric& lat = reg.GetHistogram("stpq_query_cpu_ms", "help");

  MetricsRecorderOptions opts;
  opts.interval_ms = 60'000;  // the background thread never fires in-test
  opts.registry = &reg;
  MetricsRecorder recorder(opts);

  queries.Increment(5);  // pre-Start activity must not leak into interval 1
  recorder.Start();

  queries.Increment(10);
  hits.Increment(30);
  reads.Increment(10);
  lat.Record(1.0);
  lat.Record(2.0);
  recorder.SampleNow();

  queries.Increment(3);
  recorder.SampleNow();
  recorder.Stop();

  // Two manual samples plus Stop's final flush (an empty interval).
  const std::vector<IntervalSample> samples = recorder.Recent();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].CounterDelta("stpq_queries_total"), 10u);
  EXPECT_NEAR(samples[0].PoolHitRate(), 0.75, 1e-9);
  const LatencyHistogram* h = samples[0].Histogram("stpq_query_cpu_ms");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  // HistogramMetric::Snapshot carries the exact sum, so the delta's sum is
  // the interval's exact sum.
  EXPECT_GE(h->sum_ms(), 3.0);
  EXPECT_LE(h->sum_ms(), 3.0 * 1.45);

  EXPECT_EQ(samples[1].CounterDelta("stpq_queries_total"), 3u);
  EXPECT_EQ(samples[1].Histogram("stpq_query_cpu_ms")->count(), 0u);
  EXPECT_EQ(samples[2].CounterDelta("stpq_queries_total"), 0u);

  // Interval edges are monotone and QPS derives from the delta.
  EXPECT_LE(samples[0].start_ms, samples[0].end_ms);
  EXPECT_LE(samples[0].end_ms, samples[1].end_ms);
  if (samples[0].seconds() > 0.0) {
    EXPECT_GT(samples[0].QueriesPerSec(), 0.0);
  }
}

TEST(MetricsRecorderTest, RingDropsOldestBeyondCapacity) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("c", "help");
  MetricsRecorderOptions opts;
  opts.interval_ms = 60'000;
  opts.capacity = 4;
  opts.registry = &reg;
  MetricsRecorder recorder(opts);
  recorder.Start();
  for (uint64_t i = 1; i <= 10; ++i) {
    c.Increment(i);
    recorder.SampleNow();
  }
  EXPECT_EQ(recorder.sample_count(), 4u);
  // The survivors are the most recent intervals (deltas 7..10).
  const std::vector<IntervalSample> samples = recorder.Recent();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().CounterDelta("c"), 7u);
  EXPECT_EQ(samples.back().CounterDelta("c"), 10u);
  recorder.Stop();
}

TEST(MetricsRecorderTest, RecentWindowTrimsToTrailingSeconds) {
  MetricsRegistry reg;
  MetricsRecorderOptions opts;
  opts.interval_ms = 60'000;
  opts.registry = &reg;
  MetricsRecorder recorder(opts);
  recorder.Start();
  recorder.SampleNow();
  recorder.SampleNow();
  // All samples closed within microseconds: a generous window keeps all,
  // window 0 means "everything".
  EXPECT_EQ(recorder.Recent(3600.0).size(), 2u);
  EXPECT_EQ(recorder.Recent(0.0).size(), 2u);
  recorder.Stop();
}

TEST(MetricsRecorderTest, BackgroundSamplerProducesSamples) {
  MetricsRegistry reg;
  MetricsRecorderOptions opts;
  opts.interval_ms = 5;
  opts.registry = &reg;
  MetricsRecorder recorder(opts);
  recorder.Start();
  EXPECT_TRUE(recorder.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  recorder.Stop();
  EXPECT_FALSE(recorder.running());
  EXPECT_GE(recorder.sample_count(), 2u);
  // Stop() is idempotent and Start/Stop cycles are safe.
  recorder.Stop();
}

}  // namespace
}  // namespace stpq
