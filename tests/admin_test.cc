// Tests for the live introspection service (DESIGN.md §18): util/net
// socket helpers, AdminServer routing and HTTP framing at the socket
// level, and the concurrent scrape-while-query contracts that the TSan CI
// job exercises: scrapes stay consistent, and a /tracez scrape changes
// neither the trace export nor the slow-query log.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "obs/admin_server.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "util/net.h"

namespace stpq {
namespace {

// ------------------------------------------------------------- util/net

TEST(NetTest, ListenConnectRoundTrip) {
  Result<UniqueFd> listener = ListenTcp(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Result<uint16_t> port = LocalPort(listener.value().get());
  ASSERT_TRUE(port.ok());
  ASSERT_GT(port.value(), 0);

  Result<UniqueFd> client = ConnectTcp(port.value());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<UniqueFd> server_side = AcceptConn(listener.value().get());
  ASSERT_TRUE(server_side.ok()) << server_side.status().ToString();

  ASSERT_TRUE(WriteAll(client.value().get(), "ping").ok());
  std::string received;
  Result<size_t> n = ReadSome(server_side.value().get(), &received, 64);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(received, "ping");
}

TEST(NetTest, UniqueFdMoveTransfersOwnership) {
  Result<UniqueFd> listener = ListenTcp(0);
  ASSERT_TRUE(listener.ok());
  UniqueFd a = listener.TakeValue();
  const int raw = a.get();
  UniqueFd b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b.get(), raw);
}

TEST(NetTest, SelfPipeWakesPoller) {
  Result<SelfPipe> pipe = MakeSelfPipe();
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
  // Nothing written yet: the poll times out.
  Result<bool> quiet = WaitReadable(pipe.value().read_end.get(), 50);
  ASSERT_TRUE(quiet.ok());
  EXPECT_FALSE(quiet.value());

  pipe.value().Notify();
  Result<bool> woken = WaitReadable(pipe.value().read_end.get(), 1000);
  ASSERT_TRUE(woken.ok());
  EXPECT_TRUE(woken.value());

  // WaitEitherReadable reports which fd fired.
  Result<UniqueFd> listener = ListenTcp(0);
  ASSERT_TRUE(listener.ok());
  Result<int> which = WaitEitherReadable(listener.value().get(),
                                         pipe.value().read_end.get(), 1000);
  ASSERT_TRUE(which.ok());
  EXPECT_EQ(which.value(), 1);
}

// -------------------------------------------------- socket-level client

/// One blocking HTTP/1.1 request against 127.0.0.1:port; returns the raw
/// response (status line + headers + body) or empty on connect failure.
std::string HttpRequest(uint16_t port, const std::string& request) {
  Result<UniqueFd> conn = ConnectTcp(port);
  if (!conn.ok()) return "";
  if (!WriteAll(conn.value().get(), request).ok()) return "";
  std::string response;
  for (;;) {
    Result<bool> readable = WaitReadable(conn.value().get(), 5000);
    if (!readable.ok() || !readable.value()) break;
    Result<size_t> n = ReadSome(conn.value().get(), &response, 1 << 16);
    if (!n.ok() || n.value() == 0) break;  // EOF: Connection: close
  }
  return response;
}

std::string HttpGet(uint16_t port, const std::string& target) {
  return HttpRequest(port, "GET " + target +
                               " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

/// Status code from a raw response ("HTTP/1.1 200 OK..." -> 200).
int StatusCode(const std::string& response) {
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

std::string Body(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// ----------------------------------------------------------- AdminServer

TEST(AdminServerTest, StartBindsEphemeralPortAndStopIsIdempotent) {
  MetricsRegistry registry;
  AdminServerOptions opts;
  opts.registry = &registry;
  AdminServer server(std::move(opts));
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  EXPECT_FALSE(server.Start().ok());  // already running
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(AdminServerTest, ServesHealthzStatuszMetricsOverSockets) {
  MetricsRegistry registry;
  registry.GetCounter("stpq_queries_total", "help").Increment(7);
  AdminServerOptions opts;
  opts.registry = &registry;
  opts.status_provider = [] {
    return AdminStatusRows{{"index", "SRT"}, {"objects", "123"}};
  };
  AdminServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());

  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(StatusCode(health), 200);
  EXPECT_NE(Body(health).find("\"status\":\"ok\""), std::string::npos);

  const std::string status = HttpGet(server.port(), "/statusz");
  EXPECT_EQ(StatusCode(status), 200);
  EXPECT_NE(Body(status).find("\"index\":\"SRT\""), std::string::npos);
  EXPECT_NE(Body(status).find("\"objects\":\"123\""), std::string::npos);

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_EQ(StatusCode(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Body(metrics).find("stpq_queries_total 7"), std::string::npos);
  // The server's own instruments appear in the registry it serves.
  EXPECT_NE(Body(metrics).find("stpq_admin_requests_total"),
            std::string::npos);
  server.Stop();
}

TEST(AdminServerTest, UnhealthyProviderTurns503) {
  MetricsRegistry registry;
  AdminServerOptions opts;
  opts.registry = &registry;
  opts.health_provider = [](std::string* detail) {
    *detail = "pool exhausted";
    return false;
  };
  AdminServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());
  const std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_EQ(StatusCode(health), 503);
  EXPECT_NE(Body(health).find("pool exhausted"), std::string::npos);
  server.Stop();
}

TEST(AdminServerTest, RejectsMalformedAndUnknownRequests) {
  MetricsRegistry registry;
  AdminServerOptions opts;
  opts.registry = &registry;
  opts.max_request_bytes = 256;
  AdminServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  EXPECT_EQ(StatusCode(HttpGet(port, "/nope")), 404);
  EXPECT_EQ(StatusCode(HttpRequest(
                port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")),
            405);
  EXPECT_EQ(StatusCode(HttpRequest(port, "garbage\r\n\r\n")), 400);
  EXPECT_EQ(StatusCode(HttpRequest(
                port, "GET /metrics SMTP/9.9\r\nHost: x\r\n\r\n")),
            400);
  // Header block beyond max_request_bytes: 431.
  const std::string huge = "GET /metrics HTTP/1.1\r\nX-Pad: " +
                           std::string(1024, 'a') + "\r\n\r\n";
  EXPECT_EQ(StatusCode(HttpRequest(port, huge)), 431);
  // Errors are counted on the server's own instruments.
  const std::string metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(Body(metrics).find("stpq_admin_errors_total 0"),
            std::string::npos);
  server.Stop();
}

TEST(AdminServerTest, HeadRequestReturnsHeadersOnly) {
  MetricsRegistry registry;
  AdminServerOptions opts;
  opts.registry = &registry;
  AdminServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());
  const std::string response = HttpRequest(
      server.port(), "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusCode(response), 200);
  EXPECT_TRUE(Body(response).empty());
  // Content-Length still names the suppressed body size.
  EXPECT_EQ(response.find("Content-Length: 0"), std::string::npos);
  server.Stop();
}

TEST(AdminServerTest, SlowzAndVarzReportNotArmedWithoutSources) {
  MetricsRegistry registry;
  AdminServerOptions opts;
  opts.registry = &registry;
  AdminServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());
  const std::string slowz = HttpGet(server.port(), "/slowz");
  EXPECT_EQ(StatusCode(slowz), 200);
  EXPECT_NE(Body(slowz).find("\"armed\":false"), std::string::npos);
  const std::string varz = HttpGet(server.port(), "/varz");
  EXPECT_EQ(StatusCode(varz), 200);
  EXPECT_NE(Body(varz).find("\"armed\":false"), std::string::npos);
  server.Stop();
}

TEST(AdminServerTest, VarzServesIntervalDeltasAndHonorsWindow) {
  MetricsRegistry registry;
  Counter& queries = registry.GetCounter("stpq_queries_total", "help");
  HistogramMetric& lat = registry.GetHistogram("stpq_query_cpu_ms", "help");

  MetricsRecorderOptions ropts;
  ropts.interval_ms = 60'000;  // sampled manually below
  ropts.registry = &registry;
  MetricsRecorder recorder(ropts);
  recorder.Start();
  queries.Increment(20);
  lat.Record(1.0);
  lat.Record(4.0);
  recorder.SampleNow();

  AdminServerOptions opts;
  opts.registry = &registry;
  opts.recorder = &recorder;
  AdminServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());

  const std::string varz = Body(HttpGet(server.port(), "/varz"));
  EXPECT_NE(varz.find("\"armed\":true"), std::string::npos);
  EXPECT_NE(varz.find("\"queries\":20"), std::string::npos);
  EXPECT_NE(varz.find("interval_p50_ms"), std::string::npos);

  // An hour-wide window keeps the (fresh) sample; the query string also
  // accepts a bare number and a trailing 's'.
  EXPECT_NE(Body(HttpGet(server.port(), "/varz?window=3600s"))
                .find("\"queries\":20"),
            std::string::npos);
  EXPECT_NE(Body(HttpGet(server.port(), "/varz?window=3600"))
                .find("\"queries\":20"),
            std::string::npos);
  server.Stop();
  recorder.Stop();
}

TEST(AdminServerTest, SlowzServesRetainedQueries) {
  MetricsRegistry registry;
  SlowQueryLog log(/*threshold_ms=*/0.0);
  QueryStats stats;
  stats.cpu_ms = 12.5;
  log.Offer(/*trace_id=*/9, /*elapsed_ms=*/12.5, stats);

  AdminServerOptions opts;
  opts.registry = &registry;
  opts.slow_log = &log;
  AdminServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());
  const std::string slowz = Body(HttpGet(server.port(), "/slowz"));
  EXPECT_NE(slowz.find("\"armed\":true"), std::string::npos);
  EXPECT_NE(slowz.find("\"count\":1"), std::string::npos);
  EXPECT_NE(slowz.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(slowz.find("\"trace_id\":9"), std::string::npos);
  server.Stop();
}

TEST(AdminServerTest, RouteHandlesRequestsWithoutSockets) {
  MetricsRegistry registry;
  AdminServerOptions opts;
  opts.registry = &registry;
  AdminServer server(std::move(opts));  // never started: pure routing
  EXPECT_EQ(server.HandleForTest("GET", "/healthz").status, 200);
  EXPECT_EQ(server.HandleForTest("GET", "/").status, 200);
  EXPECT_EQ(server.HandleForTest("GET", "/missing").status, 404);
  EXPECT_EQ(server.HandleForTest("DELETE", "/metrics").status, 405);
  const AdminResponse metrics = server.HandleForTest("GET", "/metrics");
  EXPECT_EQ(metrics.content_type, "text/plain; version=0.0.4; charset=utf-8");
}

TEST(AdminServerTest, StopUnblocksWorkersMidRead) {
  MetricsRegistry registry;
  AdminServerOptions opts;
  opts.registry = &registry;
  opts.worker_threads = 2;
  opts.read_timeout_ms = 60'000;  // Stop must not wait for this
  AdminServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());
  // Open connections that never send a byte, tying up every worker.
  Result<UniqueFd> stalled1 = ConnectTcp(server.port());
  Result<UniqueFd> stalled2 = ConnectTcp(server.port());
  ASSERT_TRUE(stalled1.ok());
  ASSERT_TRUE(stalled2.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Stop();  // joins: would hang until read_timeout_ms if broken
  SUCCEED();
}

TEST(AdminServerTest, StartStopCyclesRebind) {
  MetricsRegistry registry;
  AdminServerOptions opts;
  opts.registry = &registry;
  AdminServer server(std::move(opts));
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(server.Start().ok()) << "cycle " << cycle;
    EXPECT_EQ(StatusCode(HttpGet(server.port(), "/healthz")), 200);
    server.Stop();
  }
}

// ------------------------------------------- scrape-while-query (TSan)

/// N query threads hammer an engine while M scrape threads hammer the
/// admin endpoints over real sockets.  Run under the TSan CI job, this is
/// the no-torn-reads proof for the whole introspection plane; everywhere
/// it asserts that scraped counters are monotone.
TEST(AdminConcurrencyTest, ScrapesStayConsistentWhileQueriesRun) {
  SyntheticConfig config;
  config.seed = 7;
  config.num_objects = 1000;
  config.num_features_per_set = 800;
  config.num_feature_sets = 2;
  config.vocabulary_size = 32;
  config.num_clusters = 50;
  Dataset ds = GenerateSynthetic(config);

  QueryWorkloadConfig qcfg;
  qcfg.count = 40;
  qcfg.seed = 11;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);

  Result<Engine> engine =
      Engine::Build(ds.objects, std::move(ds.feature_tables), {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  MetricsRecorderOptions ropts;
  ropts.interval_ms = 5;
  MetricsRecorder recorder(ropts);
  recorder.Start();
  SlowQueryLog slow_log(/*threshold_ms=*/0.0);

  AdminServerOptions opts;
  opts.recorder = &recorder;
  opts.slow_log = &slow_log;
  opts.worker_threads = 3;
  AdminServer server(std::move(opts));
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> scrapes{0};
  std::atomic<int> failures{0};

  constexpr int kQueryThreads = 4;
  constexpr int kScrapeThreads = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecuteOptions exec;
      exec.slow_log = &slow_log;
      size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        Result<QueryResult> r =
            engine.value().Execute(queries[i % queries.size()], exec);
        if (!r.ok()) {
          failures.fetch_add(1);
          return;
        }
        executed.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  }
  for (int t = 0; t < kScrapeThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t last_queries = 0;
      int round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const char* target =
            (round % 3 == 0) ? "/metrics" : (round % 3 == 1) ? "/slowz"
                                                             : "/varz";
        const std::string response = HttpGet(port, target);
        if (StatusCode(response) != 200) {
          failures.fetch_add(1);
          return;
        }
        if (round % 3 == 0) {
          // stpq_queries_total must be monotone across scrapes.
          const std::string body = Body(response);
          const size_t pos = body.find("\nstpq_queries_total ");
          if (pos != std::string::npos) {
            const uint64_t seen = std::strtoull(
                body.c_str() + pos + sizeof("\nstpq_queries_total ") - 1,
                nullptr, 10);
            if (seen < last_queries) {
              failures.fetch_add(1);
              return;
            }
            last_queries = seen;
          }
        }
        scrapes.fetch_add(1, std::memory_order_relaxed);
        ++round;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  server.Stop();
  recorder.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(executed.load(), 0u);
  EXPECT_GT(scrapes.load(), 0u);
  // The plane observed the run: the slow log retained queries and the
  // sampler closed intervals while scrapes were in flight.
  EXPECT_GT(slow_log.size(), 0u);
  EXPECT_GT(recorder.sample_count(), 0u);
}

// ----------------------------------- /tracez reads, never takes (TSan)

/// A traced 4-thread workload, with or without 3 threads scraping /tracez
/// throughout and with or without a threshold-0 slow-query log.
struct TracedRun {
  TraceCollection lanes;                ///< the tracer's record
  std::vector<SlowQueryRecord> records; ///< empty without the slow log
  TraceCollection exported;             ///< what --trace-out writes
};

TracedRun RunTracedWorkload(const Engine& engine,
                            const std::vector<Query>& queries, bool scrape,
                            bool slow) {
  Tracer& tracer = Tracer::Global();
  tracer.Discard();
  SlowQueryLog slow_log(/*threshold_ms=*/0.0, queries.size());
  MetricsRegistry registry;
  AdminServerOptions opts;
  opts.registry = &registry;
  AdminServer server(std::move(opts));  // routed without sockets
  tracer.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; scrape && t < 3; ++t) {
    scrapers.emplace_back([&] {
      while (!stop.load()) {
        if (server.HandleForTest("GET", "/tracez").status != 200) {
          failures.fetch_add(1);
        }
        scrapes.fetch_add(1);
        // Paced so the scrapes' own admin_request spans stay well inside
        // their lanes: no scrape event is dropped.
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      ExecuteOptions exec;
      exec.slow_log = slow ? &slow_log : nullptr;
      for (size_t i = next++; i < queries.size(); i = next++) {
        // Each query starts only after a scrape that follows this thread's
        // last hand-off, so scrapes interleave with hand-offs on every run.
        const uint64_t seen = scrapes.load();
        while (scrape && scrapes.load() == seen) std::this_thread::yield();
        if (!engine.Execute(queries[i], exec).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true);
  for (std::thread& t : scrapers) t.join();
  tracer.Stop();
  EXPECT_EQ(failures.load(), 0);

  // What --trace-out writes for this run (WriteTraceFile in stpq_cli).
  TracedRun run;
  const TraceSummary summary = tracer.Summary();
  run.lanes = tracer.Lanes();
  run.records = slow_log.Snapshot();
  run.exported = slow ? CollectionFromSlowQueries(run.records, summary.dropped)
                      : run.lanes;
  // /tracez serves the same record: every query span and the drop count.
  EXPECT_EQ(summary.types[static_cast<size_t>(TraceEventType::kQuery)].spans,
            queries.size());
  const std::string body = server.HandleForTest("GET", "/tracez").body;
  EXPECT_NE(body.find("\"dropped_total\":" +
                      std::to_string(summary.dropped) + ","),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("{\"type\":\"query\",\"instants\":0,\"spans\":" +
                      std::to_string(queries.size()) + ","),
            std::string::npos)
      << body;
  tracer.Discard();
  return run;
}

/// Checks that `c` holds one balanced `query` span per query: each query
/// trace id begins once and ends once, after its begin, in one lane.
void ExpectOneBalancedQuerySpanPerQuery(const TraceCollection& c,
                                        size_t queries) {
  std::map<uint32_t, int> state;  // trace id -> 1 open, 2 closed
  for (const TraceThreadEvents& lane : c.threads) {
    for (const TraceEvent& e : lane.events) {
      if (e.type != TraceEventType::kQuery) continue;
      if (e.mark == TraceMark::kBegin) {
        EXPECT_EQ(state[e.arg_c], 0) << "query " << e.arg_c << " began twice";
        state[e.arg_c] = 1;
      } else if (e.mark == TraceMark::kEnd) {
        EXPECT_EQ(state[e.arg_c], 1) << "query " << e.arg_c << " end unpaired";
        state[e.arg_c] = 2;
      }
    }
  }
  EXPECT_EQ(state.size(), queries);
  for (const auto& [trace_id, s] : state) {
    EXPECT_EQ(s, 2) << "query " << trace_id << " never ended";
  }
}

using EventKey = std::tuple<int, int, int, int, uint32_t, uint64_t>;

/// The query events of `c` as a sorted multiset of (type, phase, args).
/// Timestamps, lanes and trace ids are left out (a query span's arg_c is
/// its trace id, an end's arg_d its duration), and so are the scrapes'
/// own admin_request spans, which carry no trace id.
std::vector<EventKey> QueryEventKeys(const TraceCollection& c) {
  std::vector<EventKey> keys;
  for (const TraceThreadEvents& lane : c.threads) {
    for (const TraceEvent& e : lane.events) {
      if (e.trace_id == 0) continue;
      const bool end = e.mark == TraceMark::kEnd;
      keys.emplace_back(static_cast<int>(e.type), static_cast<int>(e.mark),
                        e.arg_a, e.arg_b,
                        e.type == TraceEventType::kQuery || end ? 0 : e.arg_c,
                        end ? 0 : e.arg_d);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(AdminConcurrencyTest, TracezScrapesLeaveTheExportWhole) {
  SyntheticConfig config;
  config.seed = 5;
  config.num_objects = 600;
  config.num_features_per_set = 500;
  config.num_feature_sets = 2;
  config.vocabulary_size = 32;
  config.num_clusters = 40;
  Dataset ds = GenerateSynthetic(config);
  QueryWorkloadConfig qcfg;
  qcfg.count = 24;
  qcfg.seed = 3;
  const std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Result<Engine> engine =
      Engine::Build(ds.objects, std::move(ds.feature_tables), {});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  for (bool slow : {false, true}) {
    SCOPED_TRACE(slow ? "slow-query log armed" : "no slow-query log");
    const TracedRun quiet =
        RunTracedWorkload(engine.value(), queries, /*scrape=*/false, slow);
    const TracedRun scraped =
        RunTracedWorkload(engine.value(), queries, /*scrape=*/true, slow);
    for (const TracedRun* run : {&quiet, &scraped}) {
      ExpectOneBalancedQuerySpanPerQuery(run->exported, queries.size());
      EXPECT_EQ(run->exported.dropped, 0u);
    }
    const std::vector<EventKey> quiet_keys = QueryEventKeys(quiet.exported);
    EXPECT_FALSE(quiet_keys.empty());
    EXPECT_TRUE(quiet_keys == QueryEventKeys(scraped.exported))
        << "a /tracez scrape changed the exported query events";
    EXPECT_EQ(quiet.exported.dropped, scraped.exported.dropped);
    if (!slow) continue;
    // Every retained record holds its whole query: exactly the events its
    // lane holds under its trace id, in order.
    for (const TracedRun* run : {&quiet, &scraped}) {
      ASSERT_EQ(run->records.size(), queries.size());
      for (const SlowQueryRecord& r : run->records) {
        std::vector<uint64_t> in_lane;
        for (const TraceThreadEvents& lane : run->lanes.threads) {
          for (const TraceEvent& e : lane.events) {
            if (e.trace_id == r.trace_id) in_lane.push_back(e.ts_ns);
          }
        }
        std::vector<uint64_t> in_record;
        for (const TraceEvent& e : r.events) in_record.push_back(e.ts_ns);
        EXPECT_FALSE(in_record.empty());
        EXPECT_TRUE(in_lane == in_record)
            << "slow record " << r.trace_id << " holds " << in_record.size()
            << " of its query's " << in_lane.size() << " events";
      }
    }
  }
}

}  // namespace
}  // namespace stpq
