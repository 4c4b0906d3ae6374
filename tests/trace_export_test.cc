// Tests for src/obs/trace.h + trace_export.h: ring emission/drain/drop
// semantics, slow-query capture, Chrome trace JSON rendering (balanced
// B/E pairs, instants, drop counter), the reconciliation of trace events
// with QueryStats timing, and the TraversalProfile invariant that per-tree
// visited totals reconcile with the buffer-pool counters.
//
// The global Tracer is process-wide state; every test that arms it stops
// and discards before returning so suites stay order-independent.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "obs/trace.h"
#include "obs/trace_export.h"

namespace stpq {
namespace {

TraceEvent MakeEvent(TraceEventType type, TraceMark mark, uint64_t ts_ns,
                     uint32_t trace_id = 1) {
  TraceEvent e;
  e.ts_ns = ts_ns;
  e.trace_id = trace_id;
  e.type = type;
  e.mark = mark;
  return e;
}

size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

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

std::vector<Query> SmallWorkload(const Dataset& ds, uint32_t count) {
  QueryWorkloadConfig qcfg;
  qcfg.count = count;
  qcfg.k = 5;
  qcfg.radius = 0.05;
  return GenerateQueries(ds, qcfg);
}

// --------------------------------------------------------------- TraceRing

TEST(TraceRingTest, EmitAndDrainRoundTrip) {
  TraceRing ring(3, 16);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.TryEmit(MakeEvent(TraceEventType::kNodeVisit,
                                       TraceMark::kInstant, 100 + i)));
  }
  std::vector<TraceEvent> out;
  ring.Drain(/*keep_all=*/true, 0, &out);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].ts_ns, static_cast<uint64_t>(100 + i));
    EXPECT_EQ(out[i].type, TraceEventType::kNodeVisit);
  }
  // A second drain yields nothing: events are consumed.
  out.clear();
  ring.Drain(true, 0, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ring.thread_ordinal(), 3u);
}

TEST(TraceRingTest, DrainFiltersByTraceId) {
  TraceRing ring(0, 16);
  ring.TryEmit(MakeEvent(TraceEventType::kQuery, TraceMark::kBegin, 1, 7));
  ring.TryEmit(MakeEvent(TraceEventType::kQuery, TraceMark::kBegin, 2, 8));
  ring.TryEmit(MakeEvent(TraceEventType::kQuery, TraceMark::kEnd, 3, 7));
  std::vector<TraceEvent> out;
  ring.Drain(/*keep_all=*/false, /*filter_trace_id=*/7, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].trace_id, 7u);
  EXPECT_EQ(out[1].trace_id, 7u);
  // Filtering still consumes the mismatching events.
  out.clear();
  ring.Drain(true, 0, &out);
  EXPECT_TRUE(out.empty());
}

TEST(TraceRingTest, FullRingDropsAndCounts) {
  TraceRing ring(0, 8);  // capacity rounds to a power of two: 8 slots
  uint64_t accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (ring.TryEmit(
            MakeEvent(TraceEventType::kPoolHit, TraceMark::kInstant, i))) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(ring.TakeDropped(), 12u);
  EXPECT_EQ(ring.TakeDropped(), 0u);  // TakeDropped resets the counter
  std::vector<TraceEvent> out;
  ring.Drain(true, 0, &out);
  ASSERT_EQ(out.size(), 8u);
  // The *oldest* events survive; drops lose the newest.
  EXPECT_EQ(out.front().ts_ns, 0u);
  EXPECT_EQ(out.back().ts_ns, 7u);
  // Draining frees the slots for new events.
  EXPECT_TRUE(ring.TryEmit(
      MakeEvent(TraceEventType::kPoolHit, TraceMark::kInstant, 99)));
}

// ------------------------------------------------------------------ Tracer

TEST(TracerTest, IdleTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Stop();
  tracer.Discard();
  Tracer::Emit(TraceEventType::kPoolHit, TraceMark::kInstant, 0, 0, 0, 1);
  EXPECT_TRUE(tracer.Collect().Empty());
}

TEST(TracerTest, StartCollectStopRoundTrip) {
  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  Tracer::Emit(TraceEventType::kPoolMiss, TraceMark::kInstant, 0, 0, 0, 42);
  Tracer::Emit(TraceEventType::kPoolHit, TraceMark::kInstant, 0, 0, 0, 42);
  tracer.Stop();
  TraceCollection collection = tracer.Collect();
  ASSERT_EQ(collection.TotalEvents(), 2u);
  EXPECT_EQ(collection.dropped, 0u);
  const std::vector<TraceEvent>& events = collection.threads[0].events;
  EXPECT_EQ(events[0].type, TraceEventType::kPoolMiss);
  EXPECT_EQ(events[1].type, TraceEventType::kPoolHit);
  EXPECT_EQ(events[0].arg_d, 42u);
  // Timestamps are monotone within a thread's ring.
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  tracer.Discard();
}

TEST(TracerTest, QuerySpanBracketsAndRestoresId) {
  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  QueryStats stats;
  {
    Span scope(stats);
    EXPECT_NE(scope.trace_id(), 0u);
    EXPECT_EQ(Tracer::CurrentTraceId(), scope.trace_id());
  }
  EXPECT_EQ(Tracer::CurrentTraceId(), 0u);
  tracer.Stop();
  TraceCollection collection = tracer.Collect();
  ASSERT_EQ(collection.TotalEvents(), 2u);
  const std::vector<TraceEvent>& events = collection.threads[0].events;
  EXPECT_EQ(events[0].mark, TraceMark::kBegin);
  EXPECT_EQ(events[1].mark, TraceMark::kEnd);
  EXPECT_EQ(events[0].type, TraceEventType::kQuery);
  // cpu_ms comes from the same two clock readings as the events.
  EXPECT_DOUBLE_EQ(stats.cpu_ms,
                   static_cast<double>(events[1].ts_ns - events[0].ts_ns) /
                       1e6);
  tracer.Discard();
}

TEST(TracerTest, TraceOnlySpanIsSilentWhenIdle) {
  Tracer& tracer = Tracer::Global();
  tracer.Stop();
  tracer.Discard();
  QueryStats stats;
  {
    Span build(TraceEventType::kBuildPhase, 1, 2);
    Span phase(stats, QueryPhase::kCombination);
  }
  EXPECT_TRUE(tracer.Collect().Empty());
  EXPECT_EQ(stats.cpu_ms, 0.0);  // only the query span sets cpu_ms
}

// ----------------------------------------------------- Chrome trace render

TEST(ChromeTraceRenderTest, BalancesSpansAndMarksInstants) {
  TraceCollection collection;
  TraceThreadEvents thread;
  thread.thread_ordinal = 2;
  thread.events.push_back(
      MakeEvent(TraceEventType::kQuery, TraceMark::kBegin, 1000));
  thread.events.push_back(
      MakeEvent(TraceEventType::kNodeVisit, TraceMark::kInstant, 2000));
  thread.events.push_back(
      MakeEvent(TraceEventType::kQuery, TraceMark::kEnd, 3000));
  collection.threads.push_back(std::move(thread));
  collection.dropped = 7;

  const std::string json = RenderChromeTrace(collection);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"i\""), 1u);
  // Instants carry thread scope; the lane is labelled after the ring.
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node_visit\""), std::string::npos);
  EXPECT_NE(json.find("stpq-ring-2"), std::string::npos);
  // Microsecond timestamps: 2000 ns -> "2.000".
  EXPECT_NE(json.find("\"ts\":2.000"), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":7"), std::string::npos);
}

TEST(ChromeTraceRenderTest, SkipsOrphanEndsAndClosesDanglingBegins) {
  TraceCollection collection;
  TraceThreadEvents thread;
  thread.thread_ordinal = 0;
  // An end whose begin was consumed earlier, then a begin whose end was
  // dropped by ring truncation.
  thread.events.push_back(
      MakeEvent(TraceEventType::kComponentScore, TraceMark::kEnd, 500));
  thread.events.push_back(
      MakeEvent(TraceEventType::kQuery, TraceMark::kBegin, 1000));
  thread.events.push_back(
      MakeEvent(TraceEventType::kNodeVisit, TraceMark::kInstant, 1500));
  collection.threads.push_back(std::move(thread));

  const std::string json = RenderChromeTrace(collection);
  // The orphan end is skipped and the dangling begin is closed, so the
  // output balances exactly.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"E\""), 1u);
  EXPECT_EQ(CountOccurrences(json, "\"name\":\"component_score\""), 0u);
  // The synthetic end lands at the lane's last timestamp (1500 ns).
  EXPECT_NE(json.find("\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":1.500"),
            std::string::npos);
}

TEST(ChromeTraceRenderTest, NodeVisitArgsDecodeVerdicts) {
  TraceCollection collection;
  TraceThreadEvents thread;
  TraceEvent e =
      MakeEvent(TraceEventType::kNodeVisit, TraceMark::kInstant, 100);
  e.arg_a = kTraceObjectTree;
  e.arg_b = 3;
  e.arg_c = (5u << 16) | 9u;  // pruned=5, descended=9
  e.arg_d = 77;
  thread.events.push_back(e);
  collection.threads.push_back(std::move(thread));

  const std::string json = RenderChromeTrace(collection);
  EXPECT_NE(json.find("\"tree\":\"object\""), std::string::npos);
  EXPECT_NE(json.find("\"level\":3"), std::string::npos);
  EXPECT_NE(json.find("\"pruned\":5"), std::string::npos);
  EXPECT_NE(json.find("\"descended\":9"), std::string::npos);
  EXPECT_NE(json.find("\"node\":77"), std::string::npos);
}

TEST(ChromeTraceRenderTest, WriteChromeTraceFileRoundTrips) {
  TraceCollection collection;
  collection.dropped = 3;
  const std::string path =
      testing::TempDir() + "stpq_trace_export_test.json";
  ASSERT_TRUE(WriteChromeTraceFile(collection, path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), RenderChromeTrace(collection));
  std::remove(path.c_str());
}

// ------------------------------------------------------- slow-query capture

TEST(SlowQueryLogTest, RetainsOnlyQueriesAtOrAboveThreshold) {
  SlowQueryLog log(/*threshold_ms=*/5.0);
  QueryStats stats;
  stats.objects_scored = 4;
  log.Offer(/*trace_id=*/1, /*elapsed_ms=*/1.0, stats);
  log.Offer(/*trace_id=*/2, /*elapsed_ms=*/9.0, stats);
  log.Offer(/*trace_id=*/3, /*elapsed_ms=*/5.0, stats);
  EXPECT_EQ(log.size(), 2u);
  std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 2u);
  EXPECT_EQ(records[1].trace_id, 3u);
  EXPECT_DOUBLE_EQ(records[0].elapsed_ms, 9.0);
  EXPECT_EQ(records[0].stats.objects_scored, 4u);
}

TEST(SlowQueryLogTest, BoundedRetentionDropsOldest) {
  SlowQueryLog log(/*threshold_ms=*/0.0, /*max_records=*/2);
  QueryStats stats;
  log.Offer(1, 1.0, stats);
  log.Offer(2, 1.0, stats);
  log.Offer(3, 1.0, stats);
  std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, 2u);
  EXPECT_EQ(records[1].trace_id, 3u);
}

TEST(SlowQueryLogTest, CountsEvictedRecords) {
  SlowQueryLog log(/*threshold_ms=*/0.0);  // the default 32 records
  QueryStats stats;
  for (uint32_t i = 0; i < 40; ++i) log.Offer(i + 1, 1.0, stats);
  log.Offer(99, -1.0, stats);  // below the threshold: neither kept nor dropped
  EXPECT_EQ(log.size(), 32u);
  EXPECT_EQ(log.dropped(), 8u);
  EXPECT_EQ(log.Snapshot().front().trace_id, 9u);
}

TEST(CollectionFromSlowQueriesTest, GroupsRecordsByThreadOrdinal) {
  SlowQueryRecord a;
  a.trace_id = 1;
  a.thread_ordinal = 4;
  a.events.push_back(MakeEvent(TraceEventType::kQuery, TraceMark::kBegin,
                               100, 1));
  SlowQueryRecord b;
  b.trace_id = 2;
  b.thread_ordinal = 9;
  b.events.push_back(MakeEvent(TraceEventType::kQuery, TraceMark::kBegin,
                               200, 2));
  SlowQueryRecord c;
  c.trace_id = 3;
  c.thread_ordinal = 4;
  c.events.push_back(MakeEvent(TraceEventType::kQuery, TraceMark::kBegin,
                               300, 3));
  TraceCollection collection =
      CollectionFromSlowQueries({a, b, c}, /*dropped=*/11);
  EXPECT_EQ(collection.dropped, 11u);
  ASSERT_EQ(collection.threads.size(), 2u);
  EXPECT_EQ(collection.threads[0].thread_ordinal, 4u);
  EXPECT_EQ(collection.threads[0].events.size(), 2u);
  EXPECT_EQ(collection.threads[1].thread_ordinal, 9u);
  EXPECT_EQ(collection.threads[1].events.size(), 1u);
  // Per-lane order follows completion order (timestamp order here).
  EXPECT_EQ(collection.threads[0].events[0].trace_id, 1u);
  EXPECT_EQ(collection.threads[0].events[1].trace_id, 3u);
}

// ------------------------------------------------ engine integration tests

TEST(EngineTracingTest, WorkloadProducesBalancedChromeTrace) {
  Dataset ds = SmallDataset();
  std::vector<Query> queries = SmallWorkload(ds, 6);
  Engine engine = Engine::Build(std::move(ds.objects), std::move(ds.feature_tables), {}).TakeValue();

  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  for (const Query& q : queries) {
    ASSERT_TRUE(engine.Execute(q, Algorithm::kStps).ok());
  }
  tracer.Stop();
  TraceCollection collection = tracer.Collect();
  ASSERT_FALSE(collection.Empty());

  // Within each ring the timestamps are monotone and raw B/E marks of each
  // type balance (nothing dropped in this small run).
  EXPECT_EQ(collection.dropped, 0u);
  size_t node_visits = 0;
  size_t query_begins = 0;
  for (const TraceThreadEvents& thread : collection.threads) {
    uint64_t prev_ts = 0;
    int open = 0;
    for (const TraceEvent& e : thread.events) {
      EXPECT_GE(e.ts_ns, prev_ts);
      prev_ts = e.ts_ns;
      if (e.mark == TraceMark::kBegin) ++open;
      if (e.mark == TraceMark::kEnd) --open;
      EXPECT_GE(open, 0);
      if (e.type == TraceEventType::kNodeVisit) ++node_visits;
      if (e.type == TraceEventType::kQuery &&
          e.mark == TraceMark::kBegin) {
        ++query_begins;
        EXPECT_NE(e.trace_id, 0u);
      }
    }
    EXPECT_EQ(open, 0);
  }
  EXPECT_GT(node_visits, 0u);
  EXPECT_EQ(query_begins, queries.size());

  const std::string json = RenderChromeTrace(collection);
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));
  EXPECT_NE(json.find("\"name\":\"node_visit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"combination_round\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":0"), std::string::npos);
  tracer.Discard();
}

TEST(EngineTracingTest, SlowQueryLogCapturesPerQueryEvents) {
  Dataset ds = SmallDataset();
  std::vector<Query> queries = SmallWorkload(ds, 4);
  Engine engine = Engine::Build(std::move(ds.objects), std::move(ds.feature_tables), {}).TakeValue();

  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  SlowQueryLog log(/*threshold_ms=*/0.0);  // capture everything
  ExecuteOptions opts;
  opts.slow_log = &log;
  for (const Query& q : queries) {
    ASSERT_TRUE(engine.Execute(q, opts).ok());
  }
  tracer.Stop();

  std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), queries.size());
  for (const SlowQueryRecord& r : records) {
    EXPECT_NE(r.trace_id, 0u);
    ASSERT_FALSE(r.events.empty());
    // Every captured event belongs to the captured query, and the kQuery
    // end event made it into the capture (End() precedes the offer).
    bool saw_query_end = false;
    for (const TraceEvent& e : r.events) {
      EXPECT_EQ(e.trace_id, r.trace_id);
      if (e.type == TraceEventType::kQuery && e.mark == TraceMark::kEnd) {
        saw_query_end = true;
      }
    }
    EXPECT_TRUE(saw_query_end);
    EXPECT_GT(r.stats.TotalReads(), 0u);
  }
  // The offer drained the executing thread's ring query-by-query, so
  // nothing is left to collect.
  EXPECT_TRUE(tracer.Collect().Empty());
  tracer.Discard();
}

/// The QueryPhase whose spans emit `type`, or kNumQueryPhases.
size_t PhaseOfSpanEvent(TraceEventType type) {
  size_t phase = 0;
  while (phase < kNumQueryPhases && kPhaseSpanEvent[phase] != type) ++phase;
  return phase;
}

TEST(EngineTracingTest, SpanEventsReconcileWithQueryStats) {
  // Every span reads the clock once at open and once at close, and the
  // trace events carry those readings.  So for each query the `query`
  // span's duration is cpu_ms, and phase self-times rebuilt from the
  // begin/end events are phase_ms — to the nanosecond, on both algorithms
  // and all three score variants.
  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  SlowQueryLog log(/*threshold_ms=*/0.0);  // capture everything
  ExecuteOptions opts;
  opts.slow_log = &log;
  size_t executed = 0;
  for (ScoreVariant variant : {ScoreVariant::kRange, ScoreVariant::kInfluence,
                               ScoreVariant::kNearestNeighbor}) {
    Dataset ds = SmallDataset();
    QueryWorkloadConfig qcfg;
    qcfg.count = 2;
    qcfg.k = 5;
    qcfg.radius = 0.05;
    qcfg.variant = variant;
    std::vector<Query> queries = GenerateQueries(ds, qcfg);
    Engine engine = Engine::Build(std::move(ds.objects),
                                  std::move(ds.feature_tables), {})
                        .TakeValue();
    for (const Query& q : queries) {
      for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
        opts.algorithm = algo;
        ASSERT_TRUE(engine.Execute(q, opts).ok());
        ++executed;
      }
    }
  }
  tracer.Stop();
  EXPECT_EQ(tracer.Collect().dropped, 0u);

  std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), executed);
  for (const SlowQueryRecord& r : records) {
    struct OpenSpan {
      TraceEventType type;
      uint64_t begin_ns;
      uint64_t child_ns;
    };
    std::vector<OpenSpan> open;
    double query_ms = -1.0;
    double phase_ms[kNumQueryPhases] = {};
    for (const TraceEvent& e : r.events) {
      if (e.mark == TraceMark::kInstant) continue;
      if (e.mark == TraceMark::kBegin) {
        open.push_back({e.type, e.ts_ns, 0});
        continue;
      }
      ASSERT_FALSE(open.empty()) << "orphan end in query " << r.trace_id;
      const OpenSpan span = open.back();
      open.pop_back();
      ASSERT_EQ(span.type, e.type);
      const uint64_t elapsed_ns = e.ts_ns - span.begin_ns;
      if (!open.empty()) open.back().child_ns += elapsed_ns;
      if (e.type == TraceEventType::kQuery) {
        query_ms = static_cast<double>(elapsed_ns) / 1e6;
        continue;
      }
      const size_t phase = PhaseOfSpanEvent(e.type);
      ASSERT_LT(phase, kNumQueryPhases) << TraceEventTypeName(e.type);
      phase_ms[phase] += static_cast<double>(elapsed_ns - span.child_ns) / 1e6;
    }
    EXPECT_TRUE(open.empty());
    EXPECT_NEAR(query_ms, r.stats.cpu_ms, 1e-6) << "query " << r.trace_id;
    for (size_t p = 0; p < kNumQueryPhases; ++p) {
      EXPECT_NEAR(phase_ms[p], r.stats.phase_ms[p], 1e-6)
          << QueryPhaseName(static_cast<QueryPhase>(p)) << " in query "
          << r.trace_id;
    }
    EXPECT_GT(r.stats.TracedMillis(), 0.0);
    // Checked directly, not through UntracedMillis()'s clamp at zero.
    EXPECT_LE(r.stats.TracedMillis(), r.stats.cpu_ms + 1e-6);
  }
  tracer.Discard();
}

// --------------------------------------------- traversal profile invariant

TEST(TraversalProfileInvariantTest, VisitedTotalsMatchPageAccesses) {
  Dataset ds = SmallDataset();
  std::vector<Query> queries = SmallWorkload(ds, 8);
  Engine engine = Engine::Build(std::move(ds.objects), std::move(ds.feature_tables), {}).TakeValue();
  for (const Query& q : queries) {
    Result<QueryResult> r = engine.Execute(q, Algorithm::kStps);
    ASSERT_TRUE(r.ok());
    const QueryStats& stats = r.value().stats;
    // Every simulated page access in the query path (miss or hit) expands
    // exactly one node and records exactly one visit.
    EXPECT_EQ(stats.traversal.TotalVisited(),
              stats.TotalReads() + stats.buffer_hits);
    EXPECT_GT(stats.traversal.FeatureVisited(), 0u);
    // Expanding a node classifies each child entry exactly once, so the
    // per-level verdicts are bounded by the fan-out work the kernels did.
    EXPECT_GE(stats.traversal.TotalDescended(), stats.heap_pushes);
  }
}

TEST(TraversalProfileInvariantTest, HoldsForBothAlgorithms) {
  Dataset ds = SmallDataset();
  std::vector<Query> queries = SmallWorkload(ds, 4);
  Engine engine = Engine::Build(std::move(ds.objects), std::move(ds.feature_tables), {}).TakeValue();
  for (const Query& q : queries) {
    for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
      Result<QueryResult> r = engine.Execute(q, algo);
      ASSERT_TRUE(r.ok());
      const QueryStats& stats = r.value().stats;
      EXPECT_EQ(stats.traversal.TotalVisited(),
                stats.TotalReads() + stats.buffer_hits)
          << "algorithm=" << static_cast<int>(algo);
    }
  }
}

TEST(TraversalProfileInvariantTest, HoldsForAllVariants) {
  Dataset ds = SmallDataset();
  QueryWorkloadConfig qcfg;
  qcfg.count = 3;
  qcfg.k = 5;
  qcfg.radius = 0.05;
  for (ScoreVariant variant : {ScoreVariant::kRange, ScoreVariant::kInfluence,
                               ScoreVariant::kNearestNeighbor}) {
    Dataset copy = SmallDataset();
    qcfg.variant = variant;
    std::vector<Query> queries = GenerateQueries(copy, qcfg);
    Engine engine = Engine::Build(std::move(copy.objects), std::move(copy.feature_tables),
                  {}).TakeValue();
    for (const Query& q : queries) {
      Result<QueryResult> r = engine.Execute(q, Algorithm::kStps);
      ASSERT_TRUE(r.ok());
      const QueryStats& stats = r.value().stats;
      EXPECT_EQ(stats.traversal.TotalVisited(),
                stats.TotalReads() + stats.buffer_hits)
          << "variant=" << static_cast<int>(variant);
    }
  }
}

}  // namespace
}  // namespace stpq
