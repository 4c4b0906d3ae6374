// The build parameters of an index set, declared once.
//
// The paper's experiments vary the page size (node fan-out) and the
// IR2-tree's signature length.  Together with the feature-index kind, the
// bulk-load fill and the signature hash count they fix every page of a
// built index, so the .stpqx superblock records exactly this record
// (DESIGN.md §16.3).  Engine::Build, Engine::Save, Engine::Open (through
// the superblock), WriteIndexFile and the external loader all carry it
// and accept exactly what CheckBuildParams accepts.
#ifndef STPQ_INDEX_BUILD_PARAMS_H_
#define STPQ_INDEX_BUILD_PARAMS_H_

#include <cstddef>
#include <cstdint>

#include "index/feature_table.h"  // kMaxUniverse
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace stpq {

/// Which feature-index implementation to build (benchmark axis).
enum class FeatureIndexKind {
  kSrt,  ///< the paper's SRT-index (Section 4)
  kIr2,  ///< modified IR2-tree baseline (Section 8)
};

/// Everything that fixes the pages of an index set.
struct IndexBuildParams {
  FeatureIndexKind index_kind = FeatureIndexKind::kSrt;
  /// Page size in bytes; drives every tree's fan-out.
  uint32_t page_size_bytes = kDefaultPageSizeBytes;
  /// Target node occupancy for bulk loading.
  double fill = 1.0;
  /// IR2-tree only: signature width in bits (0 = 2x the keyword universe,
  /// at least 64).
  uint32_t signature_bits = 0;
  /// IR2-tree only: bits set per keyword.
  uint32_t signature_hashes = 3;
};

/// Maximum number of feature sets c per index set: STPS keeps per-set
/// state in arrays of this size.
inline constexpr size_t kMaxFeatureSets = 8;

/// Widest signature: what the automatic width picks for the largest
/// keyword universe a feature table may declare (kMaxUniverse).
inline constexpr uint32_t kMaxSignatureBits = 2 * kMaxUniverse;

/// The one check on build parameters and the feature-table count:
/// page size in [kMinPageSizeBytes, kMaxPageSizeBytes], fill in (0, 1],
/// signature width 0 (automatic) or at most kMaxSignatureBits, between 1
/// and as many hashes as signature bits (64, the narrowest automatic
/// width, when the width is automatic), and at most kMaxFeatureSets
/// tables.  Returns InvalidArgument naming the first parameter out of
/// range.
[[nodiscard]] Status CheckBuildParams(const IndexBuildParams& params,
                                      uint64_t table_count);

}  // namespace stpq

#endif  // STPQ_INDEX_BUILD_PARAMS_H_
