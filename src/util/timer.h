// Wall-clock timing helpers used by the benchmark harnesses.
#ifndef STPQ_UTIL_TIMER_H_
#define STPQ_UTIL_TIMER_H_

#include <chrono>

namespace stpq {

/// Measures elapsed wall time in milliseconds with monotonic clocks.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the timer.
  void Reset() { start_ = Clock::now(); }

  /// Milliseconds elapsed since construction or the last Reset().
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace stpq

#endif  // STPQ_UTIL_TIMER_H_
