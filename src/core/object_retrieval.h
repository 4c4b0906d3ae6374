// Shared qualified-object retrieval for the range score (Section 6.4).
#ifndef STPQ_CORE_OBJECT_RETRIEVAL_H_
#define STPQ_CORE_OBJECT_RETRIEVAL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/combination.h"
#include "core/query.h"
#include "core/scratch.h"
#include "index/object_index.h"
#include "util/attributes.h"

namespace stpq {

/// Algorithm 3's step for one emitted combination `combo` over
/// `feature_indexes`: getDataObjects(C) claims every unclaimed object
/// within distance `radius` of all of C's real members (the virtual
/// feature has no position) and appends it to `result` with score s(C).
/// Collection stops once `remaining` objects were added (SIZE_MAX =
/// unbounded).  Entries whose MBR is out of range of any member are pruned.
STPQ_HOT void CollectCombinationObjects(
    const ObjectIndex& objects,
    std::span<const FeatureIndex* const> feature_indexes,
    const Combination& combo, double radius, size_t remaining,
    std::vector<bool>* claimed, std::vector<ResultEntry>* result,
    QueryStats& stats, TraversalScratch& scratch);

}  // namespace stpq

#endif  // STPQ_CORE_OBJECT_RETRIEVAL_H_
