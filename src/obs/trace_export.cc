#include "obs/trace_export.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

namespace stpq {

namespace {

/// Microsecond timestamp with nanosecond fraction, the unit Chrome trace
/// JSON expects.
void AppendTs(std::string* out, uint64_t ts_ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ts_ns / 1000,
                static_cast<unsigned>(ts_ns % 1000));
  out->append(buf);
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

/// Common prefix of one JSON event: name, phase, pid/tid, ts.
void OpenEvent(std::string* out, const TraceEvent& e, char phase,
               uint32_t tid, uint64_t ts_ns) {
  out->append("{\"name\":\"");
  out->append(TraceEventTypeName(e.type));
  out->append("\",\"cat\":\"stpq\",\"ph\":\"");
  out->push_back(phase);
  out->append("\",\"pid\":1,\"tid\":");
  AppendUint(out, tid);
  out->append(",\"ts\":");
  AppendTs(out, ts_ns);
}

void AppendArgs(std::string* out, const TraceEvent& e) {
  out->append(",\"args\":{\"trace_id\":");
  AppendUint(out, e.trace_id);
  switch (e.type) {
    case TraceEventType::kNodeVisit:
      out->append(",\"tree\":");
      if (e.arg_a == kTraceObjectTree) {
        out->append("\"object\"");
      } else {
        AppendUint(out, e.arg_a);
      }
      out->append(",\"level\":");
      AppendUint(out, e.arg_b);
      out->append(",\"pruned\":");
      AppendUint(out, e.arg_c >> 16);
      out->append(",\"descended\":");
      AppendUint(out, e.arg_c & 0xffff);
      out->append(",\"node\":");
      AppendUint(out, e.arg_d);
      break;
    case TraceEventType::kPoolHit:
    case TraceEventType::kPoolMiss:
      out->append(",\"page\":");
      AppendUint(out, e.arg_d);
      break;
    case TraceEventType::kHeapHighWater:
      out->append(",\"size\":");
      AppendUint(out, e.arg_d);
      break;
    case TraceEventType::kComponentScore:
      if (e.mark == TraceMark::kBegin) {
        out->append(",\"set\":");
        AppendUint(out, e.arg_c);
      }
      break;
    default:
      break;
  }
  out->append("}");
}

void RenderThread(std::string* out, const TraceThreadEvents& thread,
                  bool* first) {
  const uint32_t tid = thread.thread_ordinal;
  // Open-span stack for B/E balancing.  A lane is a prefix of its
  // thread's events, so truncation leaves only dangling begins (closed
  // below at the last timestamp); an end without its begin is skipped.
  std::vector<TraceEventType> open;
  uint64_t last_ts = 0;
  for (const TraceEvent& e : thread.events) {
    if (e.ts_ns > last_ts) last_ts = e.ts_ns;
    char phase = 'i';
    switch (e.mark) {
      case TraceMark::kBegin:
        phase = 'B';
        open.push_back(e.type);
        break;
      case TraceMark::kEnd:
        if (open.empty() || open.back() != e.type) continue;  // orphan end
        open.pop_back();
        phase = 'E';
        break;
      case TraceMark::kInstant:
        phase = 'i';
        break;
    }
    if (!*first) out->append(",\n");
    *first = false;
    OpenEvent(out, e, phase, tid, e.ts_ns);
    if (phase == 'i') out->append(",\"s\":\"t\"");
    if (phase != 'E') AppendArgs(out, e);
    out->append("}");
  }
  // Close spans whose end event was dropped.
  while (!open.empty()) {
    TraceEvent synthetic;
    synthetic.type = open.back();
    open.pop_back();
    if (!*first) out->append(",\n");
    *first = false;
    OpenEvent(out, synthetic, 'E', tid, last_ts);
    out->append("}");
  }
}

}  // namespace

std::string RenderChromeTrace(const TraceCollection& collection) {
  std::string out;
  out.reserve(128 + collection.TotalEvents() * 96);
  out.append("{\"traceEvents\":[\n");
  bool first = true;
  for (const TraceThreadEvents& thread : collection.threads) {
    // Name the lane after its thread so Perfetto shows stable track labels.
    if (!first) out.append(",\n");
    first = false;
    out.append(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
    AppendUint(&out, thread.thread_ordinal);
    out.append(",\"args\":{\"name\":\"stpq-ring-");
    AppendUint(&out, thread.thread_ordinal);
    out.append("\"}}");
    RenderThread(&out, thread, &first);
  }
  out.append("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
  out.append("\"droppedEvents\":");
  AppendUint(&out, collection.dropped);
  out.append("}}\n");
  return out;
}

Status WriteChromeTraceFile(const TraceCollection& collection,
                            const std::string& path) {
  const std::string json = RenderChromeTrace(collection);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IoError("short write to trace output file: " + path);
  }
  return Status::OK();
}

TraceCollection CollectionFromSlowQueries(
    const std::vector<SlowQueryRecord>& records, uint64_t dropped) {
  TraceCollection out;
  out.dropped = dropped;
  // Group by originating lane; records arrive in completion order, so the
  // per-lane concatenation stays in timestamp order.
  std::map<uint32_t, std::vector<TraceEvent>> by_thread;
  for (const SlowQueryRecord& r : records) {
    std::vector<TraceEvent>& lane = by_thread[r.thread_ordinal];
    lane.insert(lane.end(), r.events.begin(), r.events.end());
  }
  for (auto& [ordinal, events] : by_thread) {
    TraceThreadEvents t;
    t.thread_ordinal = ordinal;
    t.events = std::move(events);
    out.threads.push_back(std::move(t));
  }
  return out;
}

}  // namespace stpq
