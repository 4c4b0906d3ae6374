// Embedded admin HTTP server: live introspection endpoints (DESIGN.md §18).
//
// Every observability surface before this one (Prometheus files, Chrome
// traces, the slow-query log, traversal profiles) is rendered post-hoc: a
// long-running workload is a black box until it finishes.  AdminServer
// makes the obs subsystem scrapeable while queries run: a small,
// dependency-free HTTP/1.1 server on a loopback port, serving
//
//   GET /metrics   Prometheus text (MetricsRegistry::RenderPrometheusText)
//   GET /healthz   liveness JSON (+ optional engine health callback)
//   GET /statusz   build info, uptime, server + engine/storage status rows
//   GET /slowz     JSON snapshot of the SlowQueryLog
//   GET /tracez    span/event summary from the Tracer's record
//   GET /varz      interval deltas from the MetricsRecorder
//                  (?window=Ns trims to the trailing N seconds)
//
// Architecture: N worker threads share one non-blocking listening socket;
// each loops { poll {listener, shutdown pipe} -> accept -> handle one
// request -> close }.  The pool is the accept loop, so concurrency is
// bounded by the worker count with no handoff queue, and Stop() wakes
// every poller at once through the self-pipe (util/net.h) — including
// workers mid-read on a stalled connection, whose per-connection poll
// watches the same pipe.  Connections are Connection: close; an admin
// scrape is one request, and keeping the protocol surface minimal keeps
// the parser honest.
//
// The server knows nothing about the engine: /statusz and /healthz detail
// comes from caller-supplied callbacks, so the CLI wires an Engine in and
// ROADMAP item 1's shard router can wire a router in, against this same
// admin plane.  Every endpoint only reads its source: /tracez copies the
// summary the Tracer folds from each thread's hand-off (obs/trace.h), so a
// scrape takes no event from the trace file or the slow-query log.  The
// server's own handling is observable too: it counts stpq_admin_* metrics
// into the same registry it serves and brackets each request in a
// kAdminRequest trace span.
#ifndef STPQ_OBS_ADMIN_SERVER_H_
#define STPQ_OBS_ADMIN_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/net.h"
#include "util/status.h"

namespace stpq {

/// Key/value rows a host application contributes to /statusz.
using AdminStatusRows = std::vector<std::pair<std::string, std::string>>;

/// Server construction knobs and data sources.  All pointers are borrowed
/// and must outlive the server; null sources make the corresponding
/// endpoint report "not armed" instead of failing.
struct AdminServerOptions {
  /// Loopback port to bind (0 = kernel-assigned; read back with port()).
  uint16_t port = 0;
  /// Worker threads == maximum concurrently served requests.
  size_t worker_threads = 4;
  /// Per-connection read patience before the request is abandoned.
  int read_timeout_ms = 5000;
  /// Request header cap; longer requests are rejected with 431.
  size_t max_request_bytes = 8192;

  /// Metrics source for /metrics (and the server's own stpq_admin_*
  /// instruments); nullptr = MetricsRegistry::Global().
  MetricsRegistry* registry = nullptr;
  /// Interval-delta source for /varz (optional).
  MetricsRecorder* recorder = nullptr;
  /// Slow-query source for /slowz (optional).
  SlowQueryLog* slow_log = nullptr;
  /// Extra /statusz rows (engine kind, storage backend, page size).
  std::function<AdminStatusRows()> status_provider;
  /// Liveness check: return false (and fill *detail) to turn /healthz
  /// into a 503.  Absent = always healthy while the server runs.
  std::function<bool(std::string* detail)> health_provider;
};

/// One rendered HTTP response (also the unit the routing tests assert on).
struct AdminResponse {
  int status = 200;
  std::string content_type;
  std::string body;
};

class AdminServer {
 public:
  explicit AdminServer(AdminServerOptions options);
  ~AdminServer();  ///< stops and joins if still running

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Binds the port and spawns the worker pool.  Fails with IoError when
  /// the port cannot be bound, FailedPrecondition when already running.
  [[nodiscard]] Status Start();

  /// Graceful shutdown: wakes every worker through the self-pipe, joins
  /// them (in-flight requests finish), and closes the listener.  Safe to
  /// call twice and from the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (resolves option port 0); 0 before a successful Start.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Routes one request without a socket (unit tests; `target` includes
  /// the query string, e.g. "/varz?window=10s").
  AdminResponse HandleForTest(const std::string& method,
                              const std::string& target) {
    return Route(method, target);
  }

 private:
  void WorkerLoop();
  void ServeConnection(int fd);

  /// Dispatches a parsed request to an endpoint renderer.
  AdminResponse Route(const std::string& method, const std::string& target);

  AdminResponse RenderMetrics();
  AdminResponse RenderHealthz();
  AdminResponse RenderStatusz();
  AdminResponse RenderSlowz();
  AdminResponse RenderTracez();
  AdminResponse RenderVarz(const std::string& query_string);

  double UptimeSeconds() const;

  AdminServerOptions options_;
  MetricsRegistry* registry_;  ///< never null after construction

  // Server-owned instruments (registered once; updates are atomic adds).
  Counter* requests_total_;
  Counter* errors_total_;
  HistogramMetric* request_ms_;

  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  UniqueFd listener_;
  SelfPipe shutdown_pipe_;
  std::vector<std::thread> workers_;
  std::chrono::steady_clock::time_point started_at_;
};

}  // namespace stpq

#endif  // STPQ_OBS_ADMIN_SERVER_H_
