#include "obs/admin_server.h"

#include <fcntl.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/timer.h"

namespace stpq {

namespace {

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void AppendJsonDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

AdminResponse Json(int status, std::string body) {
  return {status, "application/json", std::move(body)};
}

AdminResponse JsonError(int status, const std::string& message) {
  return Json(status, "{\"error\":\"" + JsonEscape(message) + "\"}\n");
}

/// Endpoint ordinal stamped into the kAdminRequest span's arg_c.
uint32_t EndpointOrdinal(const std::string& path) {
  if (path == "/metrics") return 0;
  if (path == "/healthz") return 1;
  if (path == "/statusz") return 2;
  if (path == "/slowz") return 3;
  if (path == "/tracez") return 4;
  if (path == "/varz") return 5;
  return 0xff;
}

/// "window=30s" / "window=30" -> seconds; 0 (= everything) when absent
/// or unparsable.
double ParseWindowSeconds(const std::string& query_string) {
  const std::string key = "window=";
  size_t pos = 0;
  while (pos < query_string.size()) {
    size_t amp = query_string.find('&', pos);
    if (amp == std::string::npos) amp = query_string.size();
    const std::string param = query_string.substr(pos, amp - pos);
    if (param.rfind(key, 0) == 0) {
      std::string value = param.substr(key.size());
      if (!value.empty() && (value.back() == 's' || value.back() == 'S')) {
        value.pop_back();
      }
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end != nullptr && *end == '\0' && v > 0.0) return v;
      return 0.0;
    }
    pos = amp + 1;
  }
  return 0.0;
}

}  // namespace

AdminServer::AdminServer(AdminServerOptions options)
    : options_(std::move(options)),
      registry_(options_.registry != nullptr ? options_.registry
                                             : &MetricsRegistry::Global()),
      requests_total_(&registry_->GetCounter(
          "stpq_admin_requests_total",
          "Admin HTTP requests served (any status)")),
      errors_total_(&registry_->GetCounter(
          "stpq_admin_errors_total",
          "Admin HTTP requests answered with a non-2xx status")),
      request_ms_(&registry_->GetHistogram(
          "stpq_admin_request_ms",
          "Admin HTTP request handling latency in milliseconds")),
      started_at_(std::chrono::steady_clock::now()) {
  if (options_.worker_threads == 0) options_.worker_threads = 1;
}

AdminServer::~AdminServer() { Stop(); }

double AdminServer::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_at_)
      .count();
}

Status AdminServer::Start() {
  if (running()) {
    return Status::FailedPrecondition("admin server already running");
  }
  Result<UniqueFd> listener = ListenTcp(options_.port);
  if (!listener.ok()) return listener.status();
  // Non-blocking listener: all workers poll it, so the one that loses the
  // accept race must get EAGAIN instead of blocking in accept(2).
  const int flags = ::fcntl(listener.value().get(), F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(listener.value().get(), F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::IoError("fcntl(O_NONBLOCK) on admin listener failed");
  }
  Result<uint16_t> port = LocalPort(listener.value().get());
  if (!port.ok()) return port.status();
  Result<SelfPipe> pipe = MakeSelfPipe();
  if (!pipe.ok()) return pipe.status();

  listener_ = listener.TakeValue();
  shutdown_pipe_ = pipe.TakeValue();
  port_.store(port.value(), std::memory_order_release);
  started_at_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  workers_.reserve(options_.worker_threads);
  for (size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back(&AdminServer::WorkerLoop, this);
  }
  return Status::OK();
}

void AdminServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  shutdown_pipe_.Notify();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  listener_.Reset();
  shutdown_pipe_ = SelfPipe{};
  port_.store(0, std::memory_order_release);
}

void AdminServer::WorkerLoop() {
  const int listen_fd = listener_.get();
  const int wake_fd = shutdown_pipe_.read_end.get();
  while (running_.load(std::memory_order_acquire)) {
    Result<int> which = WaitEitherReadable(listen_fd, wake_fd, 1000);
    if (!which.ok()) return;          // poll failed: fd torn down
    if (which.value() == 1) return;   // shutdown pipe
    if (which.value() != 0) continue; // periodic timeout re-checks running_
    Result<UniqueFd> conn = AcceptConn(listen_fd);
    if (!conn.ok()) continue;  // EAGAIN: another worker won the race
    ServeConnection(conn.value().get());
  }
}

void AdminServer::ServeConnection(int fd) {
  const int wake_fd = shutdown_pipe_.read_end.get();
  std::string request;
  bool timed_out = false;
  // Read until the header terminator; a request longer than the cap or
  // slower than the timeout is answered with an error instead of holding
  // the worker hostage.  The poll watches the shutdown pipe too, so Stop
  // interrupts even a worker stuck on a silent client.
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() <= options_.max_request_bytes) {
    Result<int> which =
        WaitEitherReadable(fd, wake_fd, options_.read_timeout_ms);
    if (!which.ok() || which.value() != 0) {
      timed_out = true;
      break;
    }
    Result<size_t> n =
        ReadSome(fd, &request, options_.max_request_bytes + 1 - request.size());
    if (!n.ok() || n.value() == 0) break;  // error or premature EOF
  }

  Timer handle_timer;
  AdminResponse response;
  std::string method, target;
  if (timed_out || request.find("\r\n\r\n") == std::string::npos) {
    response = request.size() > options_.max_request_bytes
                   ? JsonError(431, "request headers exceed " +
                                        std::to_string(
                                            options_.max_request_bytes) +
                                        " bytes")
                   : JsonError(400, "incomplete request");
  } else {
    // Request line: METHOD SP TARGET SP HTTP/1.x
    const size_t line_end = request.find("\r\n");
    const std::string line = request.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                                : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        line.compare(sp2 + 1, 7, "HTTP/1.") != 0) {
      response = JsonError(400, "malformed request line");
    } else {
      method = line.substr(0, sp1);
      target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      response = Route(method, target);
    }
  }

  requests_total_->Increment();
  if (response.status >= 300) errors_total_->Increment();
  request_ms_->Record(handle_timer.ElapsedMillis());

  std::ostringstream head;
  head << "HTTP/1.1 " << response.status << " "
       << ReasonPhrase(response.status) << "\r\n"
       << "Content-Type: " << response.content_type << "\r\n"
       << "Content-Length: " << response.body.size() << "\r\n"
       << "Connection: close\r\n\r\n";
  std::string wire = head.str();
  const bool head_only = method == "HEAD";
  if (!head_only) wire += response.body;
  Status st = WriteAll(fd, wire);
  (void)st;  // the peer may have hung up; nothing to do about it
}

AdminResponse AdminServer::Route(const std::string& method,
                                 const std::string& target) {
  const size_t qmark = target.find('?');
  const std::string path = target.substr(0, qmark);
  const std::string query_string =
      qmark == std::string::npos ? "" : target.substr(qmark + 1);

  Span span(TraceEventType::kAdminRequest, EndpointOrdinal(path));

  if (method != "GET" && method != "HEAD") {
    return JsonError(405, "only GET is supported on the admin plane");
  }
  if (path == "/metrics") return RenderMetrics();
  if (path == "/healthz") return RenderHealthz();
  if (path == "/statusz") return RenderStatusz();
  if (path == "/slowz") return RenderSlowz();
  if (path == "/tracez") return RenderTracez();
  if (path == "/varz") return RenderVarz(query_string);
  if (path == "/") {
    return {200, "text/plain; charset=utf-8",
            "stpq admin endpoints: /metrics /healthz /statusz /slowz "
            "/tracez /varz?window=Ns\n"};
  }
  return JsonError(404, "unknown endpoint " + path);
}

AdminResponse AdminServer::RenderMetrics() {
  return {200, "text/plain; version=0.0.4; charset=utf-8",
          registry_->RenderPrometheusText()};
}

AdminResponse AdminServer::RenderHealthz() {
  std::string detail;
  const bool healthy =
      !options_.health_provider || options_.health_provider(&detail);
  std::string body = "{\"status\":\"";
  body += healthy ? "ok" : "unhealthy";
  body += "\",\"uptime_s\":";
  AppendJsonDouble(&body, UptimeSeconds());
  if (!detail.empty()) {
    body += ",\"detail\":\"" + JsonEscape(detail) + "\"";
  }
  body += "}\n";
  return Json(healthy ? 200 : 503, std::move(body));
}

AdminResponse AdminServer::RenderStatusz() {
  std::string body = "{\"server\":{\"uptime_s\":";
  AppendJsonDouble(&body, UptimeSeconds());
  body += ",\"port\":" + std::to_string(port());
  body += ",\"workers\":" + std::to_string(options_.worker_threads);
  body += ",\"requests\":" + std::to_string(requests_total_->value());
  body += ",\"errors\":" + std::to_string(errors_total_->value());
  body += "},\"build\":{\"compiler\":\"";
  body += JsonEscape(__VERSION__);
  body += "\"";
#if defined(NDEBUG)
  body += ",\"assertions\":false";
#else
  body += ",\"assertions\":true";
#endif
  body += "},\"sampler\":{";
  if (options_.recorder != nullptr) {
    body += "\"armed\":true,\"interval_ms\":" +
            std::to_string(options_.recorder->interval_ms()) +
            ",\"samples\":" +
            std::to_string(options_.recorder->sample_count());
  } else {
    body += "\"armed\":false";
  }
  body += "}";
  if (options_.status_provider) {
    body += ",\"status\":{";
    bool first = true;
    for (const auto& [key, value] : options_.status_provider()) {
      if (!first) body += ",";
      first = false;
      body += "\"";
      body += JsonEscape(key);
      body += "\":\"";
      body += JsonEscape(value);
      body += "\"";
    }
    body += "}";
  }
  body += "}\n";
  return Json(200, std::move(body));
}

AdminResponse AdminServer::RenderSlowz() {
  if (options_.slow_log == nullptr) {
    return Json(200,
                "{\"armed\":false,\"queries\":[]}\n");
  }
  const std::vector<SlowQueryRecord> records = options_.slow_log->Snapshot();
  std::string body = "{\"armed\":true,\"threshold_ms\":";
  AppendJsonDouble(&body, options_.slow_log->threshold_ms());
  body += ",\"count\":" + std::to_string(records.size());
  body += ",\"dropped\":" + std::to_string(options_.slow_log->dropped());
  body += ",\"queries\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    const SlowQueryRecord& r = records[i];
    if (i > 0) body += ",";
    body += "{\"trace_id\":" + std::to_string(r.trace_id);
    body += ",\"thread\":" + std::to_string(r.thread_ordinal);
    body += ",\"elapsed_ms\":";
    AppendJsonDouble(&body, r.elapsed_ms);
    body += ",\"cpu_ms\":";
    AppendJsonDouble(&body, r.stats.cpu_ms);
    body += ",\"page_reads\":" + std::to_string(r.stats.TotalReads());
    body += ",\"events\":" + std::to_string(r.events.size());
    body += "}";
  }
  body += "]}\n";
  return Json(200, std::move(body));
}

AdminResponse AdminServer::RenderTracez() {
  const TraceSummary summary = Tracer::Global().Summary();
  std::string body = "{\"armed\":";
  body += Tracer::Active() ? "true" : "false";
  body += ",\"events_total\":" + std::to_string(summary.events);
  body += ",\"dropped_total\":" + std::to_string(summary.dropped);
  body += ",\"types\":[";
  bool first = true;
  for (size_t t = 0; t < kNumTraceEventTypes; ++t) {
    const TraceSummary::TypeTotals& s = summary.types[t];
    if (s.instants == 0 && s.spans == 0) continue;
    if (!first) body += ",";
    first = false;
    body += "{\"type\":\"";
    body += TraceEventTypeName(static_cast<TraceEventType>(t));
    body += "\",\"instants\":" + std::to_string(s.instants);
    body += ",\"spans\":" + std::to_string(s.spans);
    body += ",\"span_total_ms\":";
    AppendJsonDouble(&body, s.span_total_ms);
    body += "}";
  }
  body += "],\"recent_queries\":[";
  for (size_t i = 0; i < summary.recent_queries.size(); ++i) {
    if (i > 0) body += ",";
    body += "{\"trace_id\":" +
            std::to_string(summary.recent_queries[i].first) + ",\"ms\":";
    AppendJsonDouble(&body, summary.recent_queries[i].second);
    body += "}";
  }
  body += "]}\n";
  return Json(200, std::move(body));
}

AdminResponse AdminServer::RenderVarz(const std::string& query_string) {
  if (options_.recorder == nullptr) {
    return Json(200, "{\"armed\":false,\"samples\":[]}\n");
  }
  const double window_s = ParseWindowSeconds(query_string);
  const std::vector<IntervalSample> samples =
      options_.recorder->Recent(window_s);
  std::string body = "{\"armed\":true,\"interval_ms\":" +
                     std::to_string(options_.recorder->interval_ms());
  body += ",\"window_s\":";
  AppendJsonDouble(&body, window_s);
  body += ",\"samples\":[";
  for (size_t i = 0; i < samples.size(); ++i) {
    const IntervalSample& s = samples[i];
    if (i > 0) body += ",";
    body += "{\"start_ms\":";
    AppendJsonDouble(&body, s.start_ms);
    body += ",\"end_ms\":";
    AppendJsonDouble(&body, s.end_ms);
    body += ",\"queries\":" +
            std::to_string(s.CounterDelta("stpq_queries_total"));
    body += ",\"qps\":";
    AppendJsonDouble(&body, s.QueriesPerSec());
    body += ",\"page_reads\":" +
            std::to_string(s.CounterDelta("stpq_pages_read_total"));
    body += ",\"pool_hit_rate\":";
    AppendJsonDouble(&body, s.PoolHitRate());
    const LatencyHistogram* lat = s.Histogram("stpq_query_cpu_ms");
    body += ",\"interval_p50_ms\":";
    AppendJsonDouble(&body, lat != nullptr ? lat->PercentileMs(0.50) : 0.0);
    body += ",\"interval_p99_ms\":";
    AppendJsonDouble(&body, lat != nullptr ? lat->PercentileMs(0.99) : 0.0);
    body += "}";
  }
  body += "]}\n";
  return Json(200, std::move(body));
}

}  // namespace stpq
