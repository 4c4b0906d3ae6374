// Spatio-Textual Preference Search (STPS), Sections 6 and 7.
//
// STPS inverts STDS's strategy: it first retrieves highly ranked valid
// combinations of feature objects (Algorithm 4) and then fetches the data
// objects qualified by each combination.  Objects retrieved for the best
// combination covering them receive exactly tau(p) = s(C), so results are
// produced incrementally in descending score order.
#ifndef STPQ_CORE_STPS_H_
#define STPQ_CORE_STPS_H_

#include <span>

#include "core/query.h"
#include "core/scratch.h"
#include "index/feature_index.h"
#include "index/object_index.h"
#include "util/attributes.h"

namespace stpq {

/// How the influence variant drives object retrieval (Section 7.1).
enum class InfluenceMode {
  /// Anchored retrieval (default): every object's score is bounded via its
  /// nearest realizing feature a* by
  ///   tau(p) <= (s(a*) + sum_{j != set(a*)} max_s(F_j)) * 2^(-d(p,a*)/r),
  /// so streaming features ("anchors") in decreasing s(t) and fetching the
  /// objects inside each anchor's shrinking radius covers every candidate
  /// with *exact* scoring and no combination enumeration.  Equivalent
  /// results to Algorithm 5, typically orders of magnitude cheaper for
  /// c >= 3 (see DESIGN.md).
  kAnchored,
  /// The paper's Algorithm 5 verbatim: combinations ordered by s(C) with
  /// per-combination top-k object retrieval.  Exact but combinatorial when
  /// many combinations score above the final threshold.
  kCombinations,
};

/// STPS executor bound to one object index and c feature indexes.
///
/// The executor is stateless between queries: it is fully configured at
/// construction, Execute is const, and every piece of per-query state
/// lives on the call's stack or in the caller's TraversalScratch.  The
/// engine constructs one per Execute call (construction copies three
/// pointers and a length), which keeps concurrent queries from sharing
/// anything mutable (DESIGN.md §11).
class Stps {
 public:
  /// Pointers are not owned and must outlive the executor, and so must the
  /// storage `feature_indexes` views.  `influence_mode` selects the
  /// influence-variant strategy (default: anchored).
  Stps(const ObjectIndex* objects,
       std::span<const FeatureIndex* const> feature_indexes,
       InfluenceMode influence_mode = InfluenceMode::kAnchored)
      : objects_(objects),
        feature_indexes_(feature_indexes),
        influence_mode_(influence_mode) {}

  /// Runs the query under its score variant (Algorithm 3, Algorithm 5, or
  /// the Voronoi-based NN retrieval of Section 7.2).  `scratch` (may be
  /// null) provides reusable traversal buffers — the engine passes its
  /// session's scratch; a null falls back to a local.
  STPQ_HOT QueryResult Execute(const Query& query,
                      PullingStrategy strategy = PullingStrategy::kPrioritized,
                      TraversalScratch* scratch = nullptr) const;

 private:
  STPQ_HOT QueryResult ExecuteRange(const Query& query, PullingStrategy strategy,
                           TraversalScratch& scratch) const;
  STPQ_HOT QueryResult ExecuteInfluence(const Query& query, PullingStrategy strategy,
                               TraversalScratch& scratch) const;
  STPQ_HOT QueryResult ExecuteInfluenceAnchored(const Query& query,
                                       PullingStrategy strategy,
                                       TraversalScratch& scratch) const;
  STPQ_HOT QueryResult ExecuteNearestNeighbor(const Query& query,
                                     PullingStrategy strategy,
                                     TraversalScratch& scratch) const;

  const ObjectIndex* objects_;
  std::span<const FeatureIndex* const> feature_indexes_;
  InfluenceMode influence_mode_ = InfluenceMode::kAnchored;
};

}  // namespace stpq

#endif  // STPQ_CORE_STPS_H_
