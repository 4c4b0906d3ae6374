#include "index/feature_table.h"

#include <string>

#include "util/logging.h"

namespace stpq {

FeatureTable::FeatureTable(std::vector<FeatureObject> features,
                           uint32_t universe_size)
    : features_(std::move(features)), universe_size_(universe_size) {
  for (size_t i = 0; i < features_.size(); ++i) {
    features_[i].id = static_cast<ObjectId>(i);
    STPQ_CHECK(features_[i].keywords.universe_size() == universe_size_);
    // t.s in [0,1] (Section 3); score math across the library relies on it.
    STPQ_DCHECK(features_[i].score >= 0.0 && features_[i].score <= 1.0);
    domain_.EnlargePoint({features_[i].pos.x, features_[i].pos.y});
  }
}

Status CheckUniverses(std::span<const FeatureTable> tables) {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].universe_size() > kMaxUniverse) {
      return Status::InvalidArgument(
          "feature table " + std::to_string(i) +
          " declares a keyword universe of " +
          std::to_string(tables[i].universe_size()) +
          " terms, above kMaxUniverse (" + std::to_string(kMaxUniverse) +
          ")");
    }
  }
  return Status::OK();
}

}  // namespace stpq
