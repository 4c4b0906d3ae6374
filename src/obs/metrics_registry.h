// Process-wide metrics registry with Prometheus text exposition
// (DESIGN.md §12).
//
// Counters, gauges, and histograms are registered by name on first use and
// live for the process lifetime; instrument handles are stable pointers,
// so hot code looks a metric up once and then updates it with a single
// atomic operation.  The engine feeds the registry once per completed
// query from the final QueryStats — never from inside the search loops —
// so the per-query cost is a dozen relaxed atomic adds regardless of how
// much work the query did.
//
// RenderPrometheusText() produces the Prometheus text exposition format
// (text/plain; version 0.0.4): one `# HELP`/`# TYPE` pair per metric, and
// for histograms the cumulative `_bucket{le="..."}` series plus `_sum`
// and `_count`.  Latencies are exported in milliseconds and the metric
// names carry the `_ms` suffix, so no unit conversion happens anywhere.
#ifndef STPQ_OBS_METRICS_REGISTRY_H_
#define STPQ_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/histogram.h"
#include "util/thread_annotations.h"

namespace stpq {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;

  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;

  std::atomic<double> value_{0.0};
};

/// Concurrently writable latency histogram sharing LatencyBuckets' layout.
/// Record is wait-free (three relaxed atomic RMWs); Snapshot() folds the
/// buckets into a single-writer LatencyHistogram for percentile queries.
class HistogramMetric {
 public:
  void Record(double ms);

  /// Consistent-enough copy for reporting: the bucket counts and the exact
  /// sum (the one the Prometheus _sum renders), each read individually, so
  /// a concurrent Record may straddle the snapshot by one sample — fine
  /// for monitoring, which is this type's only consumer.
  LatencyHistogram Snapshot() const;

 private:
  friend class MetricsRegistry;

  std::atomic<uint64_t> buckets_[LatencyBuckets::kNumBuckets]{};
  /// Milliseconds accumulated as fixed-point nanoseconds: double has no
  /// atomic fetch_add pre-C++20 on all toolchains, and integer addition is
  /// exact under concurrency.
  std::atomic<uint64_t> sum_ns_{0};
};

/// Point-in-time copy of every registered instrument, keyed by metric
/// name.  The unit the time-series recorder (obs/timeseries.h) samples:
/// two snapshots subtract into interval deltas.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, LatencyHistogram> histograms;
};

/// Name -> instrument registry.  GetX() registers on first use and returns
/// a stable reference; names must stay consistent in kind (getting a
/// counter name as a gauge aborts).
class MetricsRegistry {
 public:
  /// The process-wide registry (constructed on first use, never torn down
  /// before exit so instrument handles cached in statics stay valid).
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name, const std::string& help)
      STPQ_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name, const std::string& help)
      STPQ_EXCLUDES(mu_);
  HistogramMetric& GetHistogram(const std::string& name,
                                const std::string& help) STPQ_EXCLUDES(mu_);

  /// Prometheus text exposition of every registered metric, sorted by
  /// name.  Safe to call while other threads update instruments.
  std::string RenderPrometheusText() const STPQ_EXCLUDES(mu_);

  /// Copies every instrument's current value.  Same consistency contract
  /// as HistogramMetric::Snapshot(): individual reads are atomic, the set
  /// as a whole may straddle concurrent updates by one sample — fine for
  /// monitoring, which is this method's only consumer.
  MetricsSnapshot Snapshot() const STPQ_EXCLUDES(mu_);

  /// Zeroes every registered instrument (tests only; instruments stay
  /// registered so cached handles remain valid).
  void ResetForTest() STPQ_EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> histogram;
  };

  Entry& GetEntry(const std::string& name, const std::string& help,
                  Kind kind) STPQ_EXCLUDES(mu_);

  mutable Mutex mu_;
  /// Sorted so the text exposition is stable.  The Entry values hold the
  /// instruments by unique_ptr, so the handles GetX() returns stay valid
  /// outside the lock; only the map structure itself is guarded.
  std::map<std::string, Entry> entries_ STPQ_GUARDED_BY(mu_);
};

}  // namespace stpq

#endif  // STPQ_OBS_METRICS_REGISTRY_H_
