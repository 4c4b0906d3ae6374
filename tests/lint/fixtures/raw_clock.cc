// stpq_lint fixture: the raw-clock rule.  Timing must flow through Span
// (obs/trace.h) or Timer (util/timer.h), not raw chrono clocks.
// Never compiled — linter input only.
#include <chrono>

namespace fixture {

long Naked() {
  auto t0 = std::chrono::steady_clock::now();  // finding
  auto t1 = std::chrono::high_resolution_clock::now();  // finding
  return (t1 - t0).count();
}

long Wall() {
  return std::chrono::system_clock::now()  // finding
      .time_since_epoch()
      .count();
}

long Suppressed() {
  // stpq-lint: allow(raw-clock) fixture: one-off calibration probe
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace fixture
