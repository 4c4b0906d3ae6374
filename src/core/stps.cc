#include "core/stps.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <vector>

#include "core/combination.h"
#include "core/object_retrieval.h"
#include "util/logging.h"

namespace stpq {

QueryResult Stps::Execute(const Query& query, PullingStrategy strategy,
                          TraversalScratch* scratch) const {
  STPQ_CHECK(query.keywords.size() == feature_indexes_.size());
  STPQ_CHECK(feature_indexes_.size() <= kMaxFeatureSets);
  std::optional<TraversalScratch> local_scratch;
  TraversalScratch& scr =
      scratch != nullptr ? *scratch : local_scratch.emplace();
  scr.children.Clear();
  switch (query.variant) {
    case ScoreVariant::kRange:
      return ExecuteRange(query, strategy, scr);
    case ScoreVariant::kInfluence:
      return influence_mode_ == InfluenceMode::kAnchored
                 ? ExecuteInfluenceAnchored(query, strategy, scr)
                 : ExecuteInfluence(query, strategy, scr);
    case ScoreVariant::kNearestNeighbor:
      return ExecuteNearestNeighbor(query, strategy, scr);
  }
  std::abort();  // every ScoreVariant returned above
}

QueryResult Stps::ExecuteRange(const Query& query, PullingStrategy strategy,
                               TraversalScratch& scratch) const {
  QueryResult result;
  result.entries.reserve(std::min<size_t>(query.k, objects_->size()));
  CombinationIterator it(feature_indexes_, query,
                         /*enforce_range_constraint=*/true, strategy,
                         &result.stats, scratch);
  std::vector<bool>& claimed = scratch.flags;
  claimed.assign(objects_->size(), false);
  // Algorithm 3: emit combinations best-first; objects qualified by their
  // best covering combination have exactly tau(p) = s(C).
  while (result.entries.size() < query.k) {
    std::optional<Combination> combo = it.Next();
    if (!combo.has_value()) break;
    CollectCombinationObjects(*objects_, feature_indexes_, *combo,
                              query.radius, query.k - result.entries.size(),
                              &claimed, &result.entries, result.stats,
                              scratch);
  }
  return result;
}

}  // namespace stpq
