// Chrome trace-event export of the tracer's record (DESIGN.md §14).
//
// RenderChromeTrace produces the JSON object format of the Trace Event
// specification — {"traceEvents": [...], ...} — loadable in Perfetto
// (ui.perfetto.dev) and chrome://tracing.  Spans render as B/E pairs,
// instants as "i" events; timestamps are microseconds on one shared
// steady-clock timeline, pid is fixed and tid is the lane's thread
// ordinal.  The renderer sanitizes truncation: spans left open at the end
// of a lane (their end was dropped) are closed at the lane's last
// timestamp, and an end event without its begin is skipped, so the output
// always balances.  The drop count is exported under
// otherData.droppedEvents.
#ifndef STPQ_OBS_TRACE_EXPORT_H_
#define STPQ_OBS_TRACE_EXPORT_H_

#include <string>

#include "obs/trace.h"
#include "util/result.h"

namespace stpq {

/// Renders `collection` as a Chrome trace-event JSON document.
std::string RenderChromeTrace(const TraceCollection& collection);

/// Renders and writes to `path`; fails with an IO error on fopen/write
/// problems.
[[nodiscard]] Status WriteChromeTraceFile(const TraceCollection& collection,
                            const std::string& path);

/// Folds slow-query capture records into a collection renderable by
/// RenderChromeTrace: each record's events keep their original thread
/// ordinal grouping.
TraceCollection CollectionFromSlowQueries(
    const std::vector<SlowQueryRecord>& records, uint64_t dropped);

}  // namespace stpq

#endif  // STPQ_OBS_TRACE_EXPORT_H_
