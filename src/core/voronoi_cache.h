// Cross-query Voronoi cell cache.
//
// Section 8.5: "for static data the Voronoi cells can be pre-computed in a
// special structure, and therefore significantly reduce the execution
// time."  A cell depends on the feature, its feature set, and the query
// keywords (they select which features are relevant) — but not on lambda,
// k, or r — so cells can be reused across queries with the same keyword
// sets.  The cache memoizes cells on first use, which converges to the
// paper's precomputation for workloads with recurring keyword sets.
//
// The cache is the one piece of engine state that query execution mutates
// after build, so it is internally synchronized: Find copies the cell out
// under the lock (returning a pointer into the map would dangle across a
// concurrent rehash), and Put keeps the first writer's cell on a race —
// cells for the same key are identical by construction, so either copy is
// correct.  Under concurrency the hit/miss counters (and therefore the
// I/O charged to cell computation) depend on query interleaving, exactly
// as a physical shared cache would; see DESIGN.md §11.
#ifndef STPQ_CORE_VORONOI_CACHE_H_
#define STPQ_CORE_VORONOI_CACHE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/voronoi.h"
#include "index/feature.h"
#include "text/keyword_set.h"
#include "util/thread_annotations.h"

namespace stpq {

/// Memoizes Voronoi cells keyed by (feature set, feature, query keywords).
/// Safe for concurrent Find/Put from multiple query threads.
class VoronoiCellCache {
 public:
  /// Returns a copy of the cached cell, or nullopt on a miss.
  std::optional<VoronoiCell> Find(size_t feature_set, ObjectId feature,
                                    const KeywordSet& query_kw)
      STPQ_EXCLUDES(mu_);

  /// Stores a cell.  If another thread already stored one for the same key
  /// the existing entry wins (both are the same cell).
  void Put(size_t feature_set, ObjectId feature, const KeywordSet& query_kw,
           VoronoiCell cell) STPQ_EXCLUDES(mu_);

  void Clear() STPQ_EXCLUDES(mu_);

  size_t size() const STPQ_EXCLUDES(mu_);
  uint64_t hits() const STPQ_EXCLUDES(mu_);
  uint64_t misses() const STPQ_EXCLUDES(mu_);

 private:
  struct Key {
    uint32_t feature_set;
    ObjectId feature;
    std::vector<uint64_t> keyword_blocks;

    bool operator==(const Key& other) const = default;
  };

  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = 0x9e3779b97f4a7c15ULL ^ k.feature_set;
      h = (h ^ k.feature) * 0xbf58476d1ce4e5b9ULL;
      for (uint64_t b : k.keyword_blocks) {
        h ^= b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      return static_cast<size_t>(h);
    }
  };

  mutable Mutex mu_;
  std::unordered_map<Key, VoronoiCell, KeyHash> cells_ STPQ_GUARDED_BY(mu_);
  uint64_t hits_ STPQ_GUARDED_BY(mu_) = 0;
  uint64_t misses_ STPQ_GUARDED_BY(mu_) = 0;
};

}  // namespace stpq

#endif  // STPQ_CORE_VORONOI_CACHE_H_
