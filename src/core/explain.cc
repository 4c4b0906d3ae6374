#include "core/explain.h"

#include <string>

#include "core/exec_session.h"

namespace stpq {

Result<Explanation> ExplainScore(const Engine* engine, const Query& query,
                                 ObjectId object) {
  STPQ_RETURN_NOT_OK(engine->ValidateQuery(query));
  if (object >= engine->objects().size()) {
    return Status::InvalidArgument("object " + std::to_string(object) +
                                   " is not in the engine");
  }
  Explanation out;
  out.object = object;
  const Point& p = engine->objects()[object].pos;
  ExecutionSession session(&engine->page_store());
  TraversalScratch& scratch = session.scratch();
  for (size_t i = 0; i < engine->num_feature_sets(); ++i) {
    const FeatureIndex& index = engine->feature_index(i);
    BestFeature best;
    switch (query.variant) {
      case ScoreVariant::kRange:
        best = ComputeBestRange(index, p, query.keywords[i], query.lambda,
                                query.radius, out.stats, scratch);
        break;
      case ScoreVariant::kInfluence:
        best = ComputeBestInfluence(index, p, query.keywords[i],
                                    query.lambda, query.radius, out.stats,
                                    scratch);
        break;
      case ScoreVariant::kNearestNeighbor:
        best = ComputeBestNearestNeighbor(index, p, query.keywords[i],
                                          query.lambda, out.stats, scratch);
        break;
    }
    Contribution c;
    c.feature_set = i;
    c.has_feature = best.feature != 0xffffffffu;
    if (c.has_feature) {
      c.feature = best.feature;
      c.score = best.score;
      c.distance = best.distance;
    }
    out.total += c.score;
    out.contributions.push_back(c);
  }
  // An empty node stood in for a page that could not be fetched.
  STPQ_RETURN_NOT_OK(session.status());
  session.ExportIoCounters(out.stats);
  return out;
}

}  // namespace stpq
