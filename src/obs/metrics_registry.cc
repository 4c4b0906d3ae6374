#include "obs/metrics_registry.h"

#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace stpq {

namespace {

/// Prometheus renders +Inf bucket bounds literally.
std::string FormatLe(double upper) {
  if (std::isinf(upper)) return "+Inf";
  std::ostringstream os;
  os << upper;
  return os.str();
}

/// Text-format 0.0.4 HELP escaping: backslash and newline must be escaped
/// so multi-line help text cannot break the exposition framing.
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void HistogramMetric::Record(double ms) {
  if (std::isnan(ms) || ms < 0.0) ms = 0.0;
  buckets_[LatencyBuckets::IndexFor(ms)].fetch_add(
      1, std::memory_order_relaxed);
  sum_ns_.fetch_add(static_cast<uint64_t>(ms * 1e6),
                    std::memory_order_relaxed);
}

LatencyHistogram HistogramMetric::Snapshot() const {
  std::array<uint64_t, LatencyBuckets::kNumBuckets> buckets{};
  for (size_t i = 0; i < LatencyBuckets::kNumBuckets; ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  // The exact sum, as the Prometheus _sum renders it: replaying samples
  // at their buckets' bounds would count a sub-microsecond fetch as 1 us.
  return LatencyHistogram::FromBuckets(
      buckets,
      static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) / 1e6);
}

// stpq-lint: allow(hot-alloc) leaky singleton: one allocation per process
MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::GetEntry(const std::string& name,
                                                  const std::string& help,
                                                  Kind kind) {
  MutexLock lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.help = help;
    switch (kind) {
      case Kind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        entry.histogram = std::make_unique<HistogramMetric>();
        break;
    }
    it = entries_.emplace(name, std::move(entry)).first;
  }
  STPQ_CHECK(it->second.kind == kind &&
             "metric re-registered with a different kind");
  return it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  return *GetEntry(name, help, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  return *GetEntry(name, help, Kind::kGauge).gauge;
}

HistogramMetric& MetricsRegistry::GetHistogram(const std::string& name,
                                               const std::string& help) {
  return *GetEntry(name, help, Kind::kHistogram).histogram;
}

std::string MetricsRegistry::RenderPrometheusText() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  for (const auto& [name, entry] : entries_) {
    os << "# HELP " << name << " " << EscapeHelp(entry.help) << "\n";
    switch (entry.kind) {
      case Kind::kCounter:
        os << "# TYPE " << name << " counter\n";
        os << name << " " << entry.counter->value() << "\n";
        break;
      case Kind::kGauge:
        os << "# TYPE " << name << " gauge\n";
        os << name << " " << entry.gauge->value() << "\n";
        break;
      case Kind::kHistogram: {
        os << "# TYPE " << name << " histogram\n";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < LatencyBuckets::kNumBuckets; ++i) {
          cumulative += entry.histogram->buckets_[i].load(
              std::memory_order_relaxed);
          os << name << "_bucket{le=\""
             << FormatLe(LatencyBuckets::UpperBoundMs(i)) << "\"} "
             << cumulative << "\n";
        }
        os << name << "_sum "
           << static_cast<double>(entry.histogram->sum_ns_.load(
                  std::memory_order_relaxed)) /
                  1e6
           << "\n";
        // The count is the +Inf bucket's cumulative total, read once, so
        // the two agree even while other threads record.
        os << name << "_count " << cumulative << "\n";
        break;
      }
    }
  }
  return os.str();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        out.counters.emplace(name, entry.counter->value());
        break;
      case Kind::kGauge:
        out.gauges.emplace(name, entry.gauge->value());
        break;
      case Kind::kHistogram:
        out.histograms.emplace(name, entry.histogram->Snapshot());
        break;
    }
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(mu_);
  // Zero in place: handles returned by GetX() must stay valid.
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->value_.store(0, std::memory_order_relaxed);
        break;
      case Kind::kGauge:
        entry.gauge->value_.store(0.0, std::memory_order_relaxed);
        break;
      case Kind::kHistogram:
        for (auto& b : entry.histogram->buckets_) {
          b.store(0, std::memory_order_relaxed);
        }
        entry.histogram->sum_ns_.store(0, std::memory_order_relaxed);
        break;
    }
  }
}

}  // namespace stpq
