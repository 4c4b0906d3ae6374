// FeatureTable: the record store for one feature set F_i.
//
// Feature indexes (SRT, IR2) reference records by id; leaf pages hold the
// full records, so record access is charged with the leaf's page read.
#ifndef STPQ_INDEX_FEATURE_TABLE_H_
#define STPQ_INDEX_FEATURE_TABLE_H_

#include <span>
#include <vector>

#include "geom/rect.h"
#include "index/feature.h"
#include "util/status.h"

namespace stpq {

/// Largest keyword universe a feature table may declare, in a .stpq or a
/// .stpqx file: every keyword set of the table is a bitmap over it (8 KiB
/// at the cap), and a .stpq stores term ids, so its bytes cannot bound
/// the universe.
inline constexpr uint32_t kMaxUniverse = 1u << 16;

/// Immutable-after-build collection of feature objects with their spatial
/// domain and keyword universe.
class FeatureTable {
 public:
  FeatureTable() = default;

  /// Takes ownership of the features; ids are reassigned to positions.
  FeatureTable(std::vector<FeatureObject> features, uint32_t universe_size);

  const FeatureObject& Get(ObjectId id) const { return features_[id]; }
  std::span<const FeatureObject> All() const { return features_; }
  size_t size() const { return features_.size(); }
  uint32_t universe_size() const { return universe_size_; }

  /// Spatial bounding box of all features.
  const Rect2& domain() const { return domain_; }

 private:
  std::vector<FeatureObject> features_;
  uint32_t universe_size_ = 0;
  Rect2 domain_ = Rect2::Empty();
};

/// InvalidArgument naming the first of `tables` whose keyword universe is
/// above kMaxUniverse, which every reader refuses: Engine::Build and the
/// writers call it before they build anything or create a file.
[[nodiscard]] Status CheckUniverses(std::span<const FeatureTable> tables);

}  // namespace stpq

#endif  // STPQ_INDEX_FEATURE_TABLE_H_
