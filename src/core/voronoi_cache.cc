#include "core/voronoi_cache.h"

namespace stpq {

std::optional<VoronoiCell> VoronoiCellCache::Find(
    size_t feature_set, ObjectId feature, const KeywordSet& query_kw) {
  Key key{static_cast<uint32_t>(feature_set), feature, query_kw.blocks()};
  MutexLock lock(mu_);
  auto it = cells_.find(key);
  if (it == cells_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void VoronoiCellCache::Put(size_t feature_set, ObjectId feature,
                           const KeywordSet& query_kw, VoronoiCell cell) {
  Key key{static_cast<uint32_t>(feature_set), feature, query_kw.blocks()};
  MutexLock lock(mu_);
  cells_.try_emplace(std::move(key), std::move(cell));
}

void VoronoiCellCache::Clear() {
  MutexLock lock(mu_);
  cells_.clear();
  hits_ = 0;
  misses_ = 0;
}

size_t VoronoiCellCache::size() const {
  MutexLock lock(mu_);
  return cells_.size();
}

uint64_t VoronoiCellCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

uint64_t VoronoiCellCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

}  // namespace stpq
