// Spatio-Textual Data Scan (STDS), Section 5 / Algorithm 1.
//
// The baseline: computes tau(p) for every data object and keeps the best k.
// Two optimizations from the paper are implemented:
//   * partial-score pruning: after computing tau_i(p) for a prefix of the
//     feature sets, the upper bound tau-hat(p) (unknown components bounded
//     by 1) is tested against the running k-th best score;
//   * batched score computation: objects are processed per object-R-tree
//     leaf block, and Algorithm 2 resolves a whole block per traversal
//     (range variant; the other variants score per object).
#ifndef STPQ_CORE_STDS_H_
#define STPQ_CORE_STDS_H_

#include <span>

#include "core/query.h"
#include "core/scratch.h"
#include "index/feature_index.h"
#include "index/object_index.h"
#include "util/attributes.h"

namespace stpq {

/// STDS executor bound to one object index and c feature indexes.
///
/// Stateless between queries: Execute is const and all per-query state
/// (the top-k heap, batch buffers, stats) lives on the call's stack or in
/// the caller's TraversalScratch, so the engine constructs one per Execute
/// call and concurrent queries share nothing mutable (DESIGN.md §11).
class Stds {
 public:
  /// Pointers are not owned and must outlive the executor, and so must the
  /// storage `feature_indexes` views.
  Stds(const ObjectIndex* objects,
       std::span<const FeatureIndex* const> feature_indexes)
      : objects_(objects), feature_indexes_(feature_indexes) {}

  /// Runs the query.  Range queries score each object-R-tree leaf block
  /// as one batch (the Section 5 improvement); the other variants score
  /// per object.  `scratch` (may be null) provides reusable traversal
  /// buffers — the engine passes its session's scratch; a null falls back
  /// to a local.
  STPQ_HOT QueryResult Execute(const Query& query,
                               TraversalScratch* scratch = nullptr) const;

 private:
  const ObjectIndex* objects_;
  std::span<const FeatureIndex* const> feature_indexes_;
};

}  // namespace stpq

#endif  // STPQ_CORE_STDS_H_
