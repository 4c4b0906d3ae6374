// Algorithm 2: spatio-textual score computation tau_i(p) on one feature
// index, plus the influence / nearest-neighbor adaptations (Section 7) and
// the batched improvement of Section 5.
//
// All traversals are best-first over s-hat(e) (or distance, for the NN
// variant) — the one BestFirstWalk (core/best_first_walk.h) with each
// kernel's bound and stop test; sub-trees are pruned when the spatial
// constraint cannot be met or no query keyword can occur below the entry.
// Every function borrows its heap from a caller-provided TraversalScratch
// and reads node children through the scratch's relevant-children memo
// (see core/scratch.h), so a warm session runs these kernels without
// allocating, and a node the query already evaluated costs a memo lookup
// instead of a re-evaluation.
//
// Bounded search: ComputeBestInfluence also takes a floor and then looks
// only for a score above it, pruning every child that cannot clear it;
// anchored influence retrieval uses it to stop scoring a candidate that
// cannot enter the top-k (DESIGN.md §4, note 2).
//
// Stats contract: every function takes `QueryStats&` and unconditionally
// accumulates its work counters — callers that do not care still pass a
// (stack) QueryStats.  The reference signature makes the "never null"
// contract structural; it used to be a pointer that was dereferenced
// without a check.
#ifndef STPQ_CORE_COMPUTE_SCORE_H_
#define STPQ_CORE_COMPUTE_SCORE_H_

#include <limits>
#include <span>
#include <vector>

#include "core/query.h"
#include "core/scratch.h"
#include "index/feature_index.h"
#include "util/attributes.h"
#include "util/metrics.h"

namespace stpq {

/// The feature realizing a component score tau_i(p) (for explanations).
struct BestFeature {
  /// 0xffffffff (no feature) when nothing qualifies.
  uint32_t feature = 0xffffffffu;
  double score = 0.0;     ///< the component score tau_i(p)
  double distance = 0.0;  ///< dist(p, feature); undefined when none
};

/// Definition 2 score: the best s(t) among relevant features within
/// distance r of p (score 0, no feature, if none qualifies), and the
/// feature that realizes it.  Range queries score whole leaf blocks with
/// ComputeScoresRangeBatch; this single-object form serves explanations.
STPQ_HOT BestFeature ComputeBestRange(const FeatureIndex& index, const Point& p,
                             const KeywordSet& query_kw, double lambda,
                             double r, QueryStats& stats,
                             TraversalScratch& scratch);
/// No floor: ComputeBestInfluence searches for the best score outright.
inline constexpr double kNoScoreFloor =
    -std::numeric_limits<double>::infinity();

/// The influence counterpart (Definition 6) of ComputeBestRange: the best
/// s(t) * 2^(-dist(p,t)/r) among relevant features (score 0 if none).
///
/// With a `floor`, the search looks only for a score above it.  It prunes
/// every child whose s-hat is at or below the floor before computing the
/// exp2, and every child whose decayed bound is.  If the unbounded score
/// is above the floor, the call returns it bit for bit, with the same
/// feature unless another one ties it exactly; otherwise it returns no
/// feature (score 0).  It expands no node the unbounded call would not,
/// exact ties at the top aside.  Anchored influence retrieval passes what
/// a candidate still needs to beat the k-th score
/// (core/stps_influence.cc); STDS and explanations pass no floor.
STPQ_HOT BestFeature ComputeBestInfluence(const FeatureIndex& index, const Point& p,
                                 const KeywordSet& query_kw, double lambda,
                                 double r, QueryStats& stats,
                                 TraversalScratch& scratch,
                                 double floor = kNoScoreFloor);

/// NN variant (Definition 7): s(t) of the nearest relevant feature (score
/// 0 if none qualifies).  Tie rule: among relevant features, the
/// nearest by *exact* squared distance wins; equidistant features (squared
/// distances compared with ==, both computed by the same
/// SquaredDistance(p, t.pos) expression — never by mixing heap bounds with
/// recomputed values) tie-break by the larger preference score s(t).
/// Heap priorities (MBR mindists) are only ever used as lower bounds, so
/// floating-point noise in them cannot flip the tie decision.
STPQ_HOT BestFeature ComputeBestNearestNeighbor(const FeatureIndex& index,
                                       const Point& p,
                                       const KeywordSet& query_kw,
                                       double lambda, QueryStats& stats,
                                       TraversalScratch& scratch);

/// Batched Definition 2 scores (the "performance improvements" of
/// Section 5): one index traversal resolves every object in `batch`
/// (BatchObject, core/scratch.h).
/// `scores[i]` receives tau_i for batch[i] (0 if no feature qualifies).
/// `batch_mbr` must cover all batch positions.
STPQ_HOT void ComputeScoresRangeBatch(const FeatureIndex& index,
                             std::span<const BatchObject> batch,
                             const Rect2& batch_mbr,
                             const KeywordSet& query_kw, double lambda,
                             double r, std::span<double> scores,
                             QueryStats& stats, TraversalScratch& scratch);

}  // namespace stpq

#endif  // STPQ_CORE_COMPUTE_SCORE_H_
