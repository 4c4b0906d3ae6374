// Tests for src/obs/trace.h + trace_export.h: ring emission and drop
// semantics, the hand-off of each thread's events into the tracer's one
// record, slow-query capture, Chrome trace JSON rendering (balanced B/E
// pairs, instants, drop counter), the reconciliation of trace events with
// QueryStats timing, and the TraversalProfile invariants that per-tree
// visited totals reconcile with the buffer-pool counters and heap pushes
// with the feature-tree descents.
//
// The global Tracer is process-wide state; every test that arms it stops
// and discards before returning so suites stay order-independent.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
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

TEST(TraceRingTest, EmitAndClearRoundTrip) {
  TraceRing ring(3);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.TryEmit(MakeEvent(TraceEventType::kNodeVisit,
                                       TraceMark::kInstant, 100 + i)));
  }
  ASSERT_EQ(ring.events().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ring.events()[i].ts_ns, static_cast<uint64_t>(100 + i));
    EXPECT_EQ(ring.events()[i].type, TraceEventType::kNodeVisit);
  }
  // Clearing empties the ring for the next batch.
  ring.Clear();
  EXPECT_TRUE(ring.events().empty());
  EXPECT_EQ(ring.thread_ordinal(), 3u);
}

TEST(TraceRingTest, FullRingDropsAndCounts) {
  TraceRing ring(0);
  uint64_t accepted = 0;
  for (size_t i = 0; i < TraceRing::kCapacity + 12; ++i) {
    if (ring.TryEmit(
            MakeEvent(TraceEventType::kPoolHit, TraceMark::kInstant, i))) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, TraceRing::kCapacity);
  EXPECT_EQ(ring.dropped(), 12u);
  ASSERT_EQ(ring.events().size(), TraceRing::kCapacity);
  // The *oldest* events survive; drops lose the newest.
  EXPECT_EQ(ring.events().front().ts_ns, 0u);
  EXPECT_EQ(ring.events().back().ts_ns, TraceRing::kCapacity - 1);
  // Clearing frees the slots for new events and resets the drop count.
  ring.Clear();
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.TryEmit(
      MakeEvent(TraceEventType::kPoolHit, TraceMark::kInstant, 99)));
}

// ------------------------------------------------------------------ Tracer

TEST(TracerTest, IdleTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Stop();
  tracer.Discard();
  Tracer::Emit(TraceEventType::kPoolHit, TraceMark::kInstant, 0, 0, 0, 1);
  Tracer::HandOff();
  EXPECT_TRUE(tracer.Lanes().Empty());
  EXPECT_EQ(tracer.Summary().events, 0u);
}

TEST(TracerTest, HandOffMovesEventsToTheRecord) {
  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  Tracer::Emit(TraceEventType::kPoolMiss, TraceMark::kInstant, 0, 0, 0, 42);
  Tracer::Emit(TraceEventType::kPoolHit, TraceMark::kInstant, 0, 0, 0, 42);
  tracer.Stop();
  // Nothing reaches the record before the thread hands its events off.
  EXPECT_TRUE(tracer.Lanes().Empty());
  Tracer::HandOff();
  const TraceCollection collection = tracer.Lanes();
  ASSERT_EQ(collection.TotalEvents(), 2u);
  EXPECT_EQ(collection.dropped, 0u);
  EXPECT_EQ(collection.threads[0].thread_ordinal,
            Tracer::CurrentThreadOrdinal());
  const std::vector<TraceEvent>& events = collection.threads[0].events;
  EXPECT_EQ(events[0].type, TraceEventType::kPoolMiss);
  EXPECT_EQ(events[1].type, TraceEventType::kPoolHit);
  EXPECT_EQ(events[0].arg_d, 42u);
  // Timestamps are monotone within a thread's lane.
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  // Reading the record consumes nothing; a second hand-off of the now
  // empty ring adds nothing.
  Tracer::HandOff();
  EXPECT_EQ(tracer.Lanes().TotalEvents(), 2u);
  const TraceSummary summary = tracer.Summary();
  EXPECT_EQ(summary.events, 2u);
  EXPECT_EQ(summary.types[static_cast<size_t>(TraceEventType::kPoolMiss)]
                .instants,
            1u);
  tracer.Discard();
  EXPECT_TRUE(tracer.Lanes().Empty());
}

TEST(TracerTest, HandOffPassesBackOnlyTheQuerysEvents) {
  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  Tracer::SetCurrentTraceId(7);
  Tracer::Emit(TraceEventType::kPoolMiss, TraceMark::kInstant, 0, 0, 0, 1);
  Tracer::SetCurrentTraceId(8);
  Tracer::Emit(TraceEventType::kPoolMiss, TraceMark::kInstant, 0, 0, 0, 2);
  Tracer::SetCurrentTraceId(7);
  Tracer::Emit(TraceEventType::kPoolHit, TraceMark::kInstant, 0, 0, 0, 3);
  Tracer::SetCurrentTraceId(0);
  tracer.Stop();
  std::vector<TraceEvent> query_events;
  Tracer::HandOff(7, &query_events);
  ASSERT_EQ(query_events.size(), 2u);
  EXPECT_EQ(query_events[0].arg_d, 1u);
  EXPECT_EQ(query_events[1].arg_d, 3u);
  // The record keeps the whole batch, whichever query asked for it.
  EXPECT_EQ(tracer.Lanes().TotalEvents(), 3u);
  tracer.Discard();
}

TEST(TracerTest, LaneKeepsTheFirstRingCapacityEvents) {
  // Two batches that together overflow the lane, the second also past its
  // ring: the lane keeps the first kCapacity events in emission order, and
  // the lanes' drop count adds the events the full lane turned away to
  // those the full ring refused, so the file holds what one never-emptied
  // ring would have held.
  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  const size_t first = TraceRing::kCapacity - 10;
  for (size_t i = 0; i < first; ++i) {
    Tracer::Emit(TraceEventType::kPoolHit, TraceMark::kInstant, 0, 0, 0, i);
  }
  Tracer::HandOff();
  for (size_t i = 0; i < TraceRing::kCapacity + 5; ++i) {
    Tracer::Emit(TraceEventType::kPoolHit, TraceMark::kInstant, 0, 0, 0,
                 first + i);
  }
  tracer.Stop();
  Tracer::HandOff();
  const TraceCollection collection = tracer.Lanes();
  ASSERT_EQ(collection.threads.size(), 1u);
  const std::vector<TraceEvent>& lane = collection.threads[0].events;
  ASSERT_EQ(lane.size(), TraceRing::kCapacity);
  for (size_t i = 0; i < lane.size(); ++i) ASSERT_EQ(lane[i].arg_d, i);
  EXPECT_EQ(collection.dropped, 5 + (TraceRing::kCapacity - 10));
  // The summary folds every handed-off event, kept in the lane or not, and
  // counts as dropped only what the ring refused: /tracez never saw those.
  const TraceSummary summary = tracer.Summary();
  EXPECT_EQ(summary.events, first + TraceRing::kCapacity);
  EXPECT_EQ(summary.types[static_cast<size_t>(TraceEventType::kPoolHit)]
                .instants,
            first + TraceRing::kCapacity);
  EXPECT_EQ(summary.dropped, 5u);
  tracer.Discard();
}

TEST(TracerTest, ThreadExitHandsOff) {
  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  uint32_t ordinal = 0;
  std::thread worker([&ordinal] {
    Tracer::Emit(TraceEventType::kPoolMiss, TraceMark::kInstant, 0, 0, 0, 5);
    ordinal = Tracer::CurrentThreadOrdinal();
  });
  worker.join();
  tracer.Stop();
  const TraceCollection collection = tracer.Lanes();
  ASSERT_EQ(collection.threads.size(), 1u);
  EXPECT_EQ(collection.threads[0].thread_ordinal, ordinal);
  ASSERT_EQ(collection.threads[0].events.size(), 1u);
  EXPECT_EQ(collection.threads[0].events[0].arg_d, 5u);
  tracer.Discard();
}

TEST(TracerTest, TraceOnlySpanHandsOffWhereItCloses) {
  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  {
    Span build(TraceEventType::kBuildPhase, 1, 2);
    Tracer::Emit(TraceEventType::kPoolMiss, TraceMark::kInstant, 0, 0, 0, 9);
    EXPECT_TRUE(tracer.Lanes().Empty());
  }
  tracer.Stop();
  const TraceCollection collection = tracer.Lanes();
  ASSERT_EQ(collection.TotalEvents(), 3u);
  const std::vector<TraceEvent>& events = collection.threads[0].events;
  EXPECT_EQ(events[0].mark, TraceMark::kBegin);
  EXPECT_EQ(events[2].mark, TraceMark::kEnd);
  // The end event carries the span's elapsed time, which the summary
  // totals without pairing events.
  EXPECT_EQ(events[2].arg_d, events[2].ts_ns - events[0].ts_ns);
  const TraceSummary summary = tracer.Summary();
  const TraceSummary::TypeTotals& build =
      summary.types[static_cast<size_t>(TraceEventType::kBuildPhase)];
  EXPECT_EQ(build.spans, 1u);
  EXPECT_DOUBLE_EQ(build.span_total_ms,
                   static_cast<double>(events[2].arg_d) / 1e6);
  tracer.Discard();
}

TEST(TracerTest, QuerySpanBracketsAndRestoresId) {
  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  tracer.Start();
  QueryStats stats;
  uint32_t trace_id = 0;
  {
    Span scope(stats);
    trace_id = scope.trace_id();
    EXPECT_NE(trace_id, 0u);
    EXPECT_EQ(Tracer::CurrentTraceId(), trace_id);
  }
  EXPECT_EQ(Tracer::CurrentTraceId(), 0u);
  tracer.Stop();
  Tracer::HandOff();
  TraceCollection collection = tracer.Lanes();
  ASSERT_EQ(collection.TotalEvents(), 2u);
  const std::vector<TraceEvent>& events = collection.threads[0].events;
  EXPECT_EQ(events[0].mark, TraceMark::kBegin);
  EXPECT_EQ(events[1].mark, TraceMark::kEnd);
  EXPECT_EQ(events[0].type, TraceEventType::kQuery);
  // cpu_ms comes from the same two clock readings as the events.
  EXPECT_DOUBLE_EQ(stats.cpu_ms,
                   static_cast<double>(events[1].ts_ns - events[0].ts_ns) /
                       1e6);
  // /tracez lists the query span under its trace id.
  const TraceSummary summary = tracer.Summary();
  ASSERT_EQ(summary.recent_queries.size(), 1u);
  EXPECT_EQ(summary.recent_queries[0].first, trace_id);
  EXPECT_DOUBLE_EQ(summary.recent_queries[0].second, stats.cpu_ms);
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
  Tracer::HandOff();
  EXPECT_TRUE(tracer.Lanes().Empty());
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
  // Each Execute handed its query's events off where it ended.
  TraceCollection collection = tracer.Lanes();
  ASSERT_FALSE(collection.Empty());

  // Within each lane the timestamps are monotone and raw B/E marks of each
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
  // The record keeps the lanes too: each record's events are exactly the
  // lane's events with its trace id, in order.
  const TraceCollection collection = tracer.Lanes();
  ASSERT_EQ(collection.threads.size(), 1u);
  size_t from_records = 0;
  for (const SlowQueryRecord& r : records) {
    EXPECT_EQ(r.thread_ordinal, collection.threads[0].thread_ordinal);
    std::vector<TraceEvent> in_lane;
    for (const TraceEvent& e : collection.threads[0].events) {
      if (e.trace_id == r.trace_id) in_lane.push_back(e);
    }
    ASSERT_EQ(in_lane.size(), r.events.size());
    for (size_t i = 0; i < in_lane.size(); ++i) {
      EXPECT_EQ(in_lane[i].ts_ns, r.events[i].ts_ns);
      EXPECT_EQ(in_lane[i].type, r.events[i].type);
    }
    from_records += r.events.size();
  }
  EXPECT_EQ(from_records, collection.TotalEvents());
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
  EXPECT_EQ(tracer.Lanes().dropped, 0u);

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

TEST(TraversalProfileInvariantTest, HoldsAcrossTheQueryMatrix) {
  // The same accounting on both feature indexes, both algorithms and all
  // three variants, on a built engine and on the same engine saved and
  // reopened.  Range and NN queries run no object-tree heap (their object
  // walks are depth-first), so every feature-tree child a best-first walk
  // descends into is exactly one heap push.
  const ScoreVariant kVariants[] = {ScoreVariant::kRange,
                                    ScoreVariant::kInfluence,
                                    ScoreVariant::kNearestNeighbor};
  const char* const kVariantNames[] = {"range", "influence", "nn"};
  std::vector<std::vector<Query>> queries;  // by variant
  {
    Dataset ds = SmallDataset();
    QueryWorkloadConfig qcfg;
    qcfg.count = 3;
    qcfg.k = 5;
    qcfg.radius = 0.05;
    for (ScoreVariant variant : kVariants) {
      qcfg.variant = variant;
      queries.push_back(GenerateQueries(ds, qcfg));
    }
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("stpq_traversal_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "engine.stpqx").string();
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    Dataset ds = SmallDataset();
    EngineOptions opts;
    opts.build.index_kind = kind;
    Engine built = Engine::Build(std::move(ds.objects),
                                 std::move(ds.feature_tables), opts)
                       .TakeValue();
    ASSERT_TRUE(built.Save(path).ok());
    Result<Engine> reopened = Engine::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    for (const Engine* engine : {&built, &reopened.value()}) {
      for (size_t v = 0; v < queries.size(); ++v) {
        for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
          for (const Query& q : queries[v]) {
            SCOPED_TRACE(std::string(engine->IndexName()) +
                         (engine == &built ? " built " : " reopened ") +
                         (algo == Algorithm::kStds ? "STDS " : "STPS ") +
                         kVariantNames[v]);
            Result<QueryResult> r = engine->Execute(q, algo);
            ASSERT_TRUE(r.ok()) << r.status().ToString();
            const QueryStats& stats = r.value().stats;
            EXPECT_EQ(stats.traversal.TotalVisited(),
                      stats.TotalReads() + stats.buffer_hits);
            if (kVariants[v] != ScoreVariant::kInfluence) {
              EXPECT_EQ(stats.heap_pushes, stats.traversal.FeatureDescended());
            }
          }
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace stpq
