#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace stpq {

double LatencyBuckets::UpperBoundMs(size_t i) {
  if (i + 1 >= kNumBuckets) return std::numeric_limits<double>::infinity();
  return kMinUpperMs * std::pow(2.0, static_cast<double>(i) / 2.0);
}

size_t LatencyBuckets::IndexFor(double ms) {
  if (!(ms > kMinUpperMs)) return 0;  // also catches NaN and negatives
  // Bucket i covers (kMinUpperMs * 2^((i-1)/2), kMinUpperMs * 2^(i/2)].
  const double idx = std::ceil(2.0 * std::log2(ms / kMinUpperMs));
  if (idx >= static_cast<double>(kNumBuckets - 1)) return kNumBuckets - 1;
  return static_cast<size_t>(idx);
}

void LatencyHistogram::Record(double ms) {
  if (std::isnan(ms) || ms < 0.0) ms = 0.0;
  ++buckets_[LatencyBuckets::IndexFor(ms)];
  ++count_;
  sum_ms_ += ms;
  max_ms_ = std::max(max_ms_, ms);
}

LatencyHistogram LatencyHistogram::Delta(const LatencyHistogram& older) const {
  LatencyHistogram out;
  uint64_t count = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    const uint64_t d = buckets_[i] >= older.buckets_[i]
                           ? buckets_[i] - older.buckets_[i]
                           : 0;
    out.buckets_[i] = d;
    count += d;
  }
  out.count_ = count;
  if (count > 0) {
    out.sum_ms_ = sum_ms_ >= older.sum_ms_ ? sum_ms_ - older.sum_ms_ : 0.0;
    out.max_ms_ = max_ms_;  // upper bound; the interval max is not tracked
  }
  return out;
}

LatencyHistogram LatencyHistogram::FromBuckets(
    const std::array<uint64_t, LatencyBuckets::kNumBuckets>& buckets,
    double sum_ms) {
  LatencyHistogram out;
  out.buckets_ = buckets;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    out.count_ += buckets[i];
    out.max_ms_ = i + 1 < buckets.size() ? LatencyBuckets::UpperBoundMs(i)
                                         : LatencyBuckets::UpperBoundMs(i - 1);
  }
  out.sum_ms_ = sum_ms;
  return out;
}

double LatencyHistogram::PercentileMs(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, nearest-rank with interpolation).
  const double target = q * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const uint64_t next = cumulative + buckets_[i];
    if (static_cast<double>(next) >= target) {
      const double lower = i == 0 ? 0.0 : LatencyBuckets::UpperBoundMs(i - 1);
      double upper = LatencyBuckets::UpperBoundMs(i);
      // The overflow bucket has no finite upper bound; the recorded
      // maximum does.  Clamping also keeps every estimate <= max_ms_.
      upper = std::min(upper, max_ms_);
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(buckets_[i]);
      return std::min(lower + (upper - lower) * std::clamp(within, 0.0, 1.0),
                      max_ms_);
    }
    cumulative = next;
  }
  return max_ms_;
}

}  // namespace stpq
