// Shared qualified-object retrieval for the range score (Section 6.4).
#ifndef STPQ_CORE_OBJECT_RETRIEVAL_H_
#define STPQ_CORE_OBJECT_RETRIEVAL_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/query.h"
#include "core/scratch.h"
#include "index/object_index.h"
#include "util/attributes.h"

namespace stpq {

/// getDataObjects(C): every unclaimed object within distance `radius` of
/// all of `member_pos` (the combination's real members) is claimed and
/// appended to `result` with score `score`.  Collection stops once
/// `remaining` objects were added (SIZE_MAX = unbounded).  Entries whose
/// MBR is out of range of any member are pruned.
STPQ_HOT void CollectObjectsInRange(const ObjectIndex& objects,
                           std::span<const Point> member_pos,
                           double radius, double score, size_t remaining,
                           std::vector<bool>* claimed,
                           std::vector<ResultEntry>* result,
                           QueryStats& stats, TraversalScratch& scratch);

}  // namespace stpq

#endif  // STPQ_CORE_OBJECT_RETRIEVAL_H_
