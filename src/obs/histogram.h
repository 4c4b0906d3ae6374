// Fixed-bucket log-scale latency histograms (DESIGN.md §12).
//
// LatencyHistogram is the single-writer accumulator used on the query
// path: a fixed array of 64 buckets whose upper bounds grow by a factor of
// sqrt(2) from 1 microsecond (bucket 0 is [0, 0.001 ms); bucket 63 is the
// overflow bucket, reaching past 2000 seconds), so any latency is captured
// with <= 41% relative bucket width and no allocation.  Recording is O(1);
// percentiles are extracted by walking the cumulative counts with linear
// interpolation inside the bucket.
//
// For the process-wide, concurrently written variant, see HistogramMetric
// in obs/metrics_registry.h, which shares this bucket layout and
// snapshots into a LatencyHistogram.
#ifndef STPQ_OBS_HISTOGRAM_H_
#define STPQ_OBS_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace stpq {

/// Shared bucket layout: kNumBuckets log-scale buckets, upper bounds
/// kMinUpperMs * sqrt(2)^i; the final bucket absorbs everything larger.
struct LatencyBuckets {
  static constexpr size_t kNumBuckets = 64;
  static constexpr double kMinUpperMs = 0.001;  // 1 microsecond

  /// Upper bound of bucket `i` in milliseconds (infinity for the last).
  static double UpperBoundMs(size_t i);

  /// Index of the bucket that holds a latency of `ms` milliseconds.
  static size_t IndexFor(double ms);
};

/// Saturating counter difference: subtracting a newer snapshot from an
/// older one (a caller bug, or counters reset between snapshots) yields 0
/// instead of wrapping to ~2^64 bogus events — same contract as
/// BufferPoolStats::operator-.  The building block for every interval
/// delta the MetricsRecorder (obs/timeseries.h) reports.
inline uint64_t SaturatingCounterDelta(uint64_t newer, uint64_t older) {
  return newer >= older ? newer - older : 0;
}

/// Single-writer latency accumulator with percentile extraction.
class LatencyHistogram {
 public:
  void Record(double ms);

  /// The histogram of samples recorded between `older` (an earlier
  /// snapshot of this same series) and now: per-bucket saturating
  /// subtraction, count recomputed from the bucket deltas so the
  /// bucket-sum == count invariant holds even if the two snapshots
  /// straddled a concurrent Record.  The delta's max is unknowable from
  /// two maxima alone, so it carries this snapshot's max as an upper
  /// bound (0 when the delta is empty).  Useful standalone for A/B bench
  /// comparisons: Delta of "after" vs "before" isolates the B phase.
  LatencyHistogram Delta(const LatencyHistogram& older) const;

  /// The histogram a concurrent recorder (HistogramMetric) snapshots:
  /// the bucket counts it kept and the exact sum of its samples.  The
  /// count is the buckets' total; the max is the upper bound of the
  /// highest nonempty bucket (for the overflow bucket, the bound below
  /// it), since the samples themselves are gone.
  static LatencyHistogram FromBuckets(
      const std::array<uint64_t, LatencyBuckets::kNumBuckets>& buckets,
      double sum_ms);

  uint64_t count() const { return count_; }
  double sum_ms() const { return sum_ms_; }
  double max_ms() const { return max_ms_; }
  double mean_ms() const {
    return count_ == 0 ? 0.0 : sum_ms_ / static_cast<double>(count_);
  }
  uint64_t bucket_count(size_t i) const { return buckets_[i]; }

  /// Latency at quantile `q` in [0, 1] (0.5 = median), interpolated
  /// linearly within the bucket; 0 when empty.  The estimate is exact to
  /// within the bucket's width and never exceeds the recorded maximum.
  double PercentileMs(double q) const;

 private:
  std::array<uint64_t, LatencyBuckets::kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  double sum_ms_ = 0.0;
  double max_ms_ = 0.0;
};

}  // namespace stpq

#endif  // STPQ_OBS_HISTOGRAM_H_
