#include "core/cursor.h"

#include <span>

#include "core/object_retrieval.h"
#include "util/logging.h"

namespace stpq {

StpsCursor::StpsCursor(const ObjectIndex* objects,
                       std::span<const FeatureIndex* const> feature_indexes,
                       Query query, PullingStrategy strategy,
                       std::unique_ptr<ExecutionSession> session)
    : objects_(objects),
      feature_indexes_(feature_indexes),
      query_(std::move(query)),
      session_(std::move(session)),
      claimed_(objects->size(), false) {
  STPQ_CHECK(query_.variant == ScoreVariant::kRange &&
             "StpsCursor supports the range score only");
  STPQ_CHECK(session_ != nullptr);
  iterator_ = std::make_unique<CombinationIterator>(
      feature_indexes_, query_, /*enforce_range_constraint=*/true, strategy,
      &stats_, session_->scratch());
}

StpsCursor::~StpsCursor() = default;

void StpsCursor::RefillBuffer() {
  buffer_.clear();
  next_ = 0;
  while (buffer_.empty() && !exhausted_) {
    std::optional<Combination> combo = iterator_->Next();
    if (!combo.has_value()) {
      exhausted_ = true;
      return;
    }
    CollectCombinationObjects(*objects_, feature_indexes_, *combo,
                              query_.radius, /*remaining=*/SIZE_MAX,
                              &claimed_, &buffer_, stats_,
                              session_->scratch());
  }
}

std::optional<ResultEntry> StpsCursor::Next() {
  if (next_ == buffer_.size()) RefillBuffer();
  if (session_->failed()) {
    // An empty node stood in for a page that could not be fetched, so
    // nothing from here on (this refill included) can be trusted.
    exhausted_ = true;
    buffer_.clear();
    next_ = 0;
  }
  if (next_ == buffer_.size()) return std::nullopt;
  return buffer_[next_++];
}

Status StpsCursor::status() const { return session_->status(); }

QueryStats StpsCursor::stats() const {
  QueryStats merged = stats_;
  session_->ExportIoCounters(merged);
  return merged;
}

}  // namespace stpq
