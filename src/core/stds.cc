#include "core/stds.h"

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "core/compute_score.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/topk.h"

namespace stpq {

namespace {

/// Scores one object of an influence or NN query against every feature
/// set with partial-score pruning (Algorithm 1, lines 3-6).  Returns
/// tau(p), or a negative value if the object was pruned.  (Range queries
/// are scored a leaf block at a time.)
double ScoreObjectPruned(std::span<const FeatureIndex* const> indexes,
                         const Query& query, const Point& pos,
                         double threshold, QueryStats& stats,
                         TraversalScratch& scratch) {
  STPQ_DCHECK(query.variant != ScoreVariant::kRange);
  const size_t c = indexes.size();
  double partial = 0.0;
  for (size_t i = 0; i < c; ++i) {
    // tau-hat(p): known components + 1 for each unknown one.
    double bound = partial + static_cast<double>(c - i);
    if (bound < threshold) return -1.0;
    partial += query.variant == ScoreVariant::kInfluence
                   ? ComputeScoreInfluence(*indexes[i], pos,
                                           query.keywords[i], query.lambda,
                                           query.radius, stats, scratch)
                   : ComputeScoreNearestNeighbor(*indexes[i], pos,
                                                 query.keywords[i],
                                                 query.lambda, stats,
                                                 scratch);
  }
  return partial;
}

}  // namespace

QueryResult Stds::Execute(const Query& query,
                          TraversalScratch* scratch) const {
  STPQ_CHECK(query.keywords.size() == feature_indexes_.size());
  std::optional<TraversalScratch> local_scratch;
  TraversalScratch& scr =
      scratch != nullptr ? *scratch : local_scratch.emplace();
  scr.children.Clear();
  QueryResult result;
  result.entries.reserve(std::min<size_t>(query.k, objects_->size()));
  QueryStats& stats = result.stats;
  TopK<ObjectId> topk(query.k, &scr.topk);
  const size_t c = feature_indexes_.size();
  // The leaf-block scan itself is object retrieval; the component-score
  // lookups inside it carve out their own (child) phase.
  Span span(stats, QueryPhase::kObjectRetrieval);
  BufferPool* const object_pool = scr.object_pool;

  if (query.variant == ScoreVariant::kRange) {
    // Batched STDS: every object-R-tree leaf block is one batch.
    BatchScratch& b = scr.batch;
    std::vector<BatchObject>& batch = b.batch;
    std::vector<double>& partial = b.partial;
    std::vector<bool>& alive = b.alive;
    std::vector<BatchObject>& sub = b.sub;
    std::vector<uint32_t>& sub_index = b.sub_index;
    std::vector<double>& set_scores = b.set_scores;
    objects_->ForEachLeafBlock(object_pool, [&](std::span<const ObjectId> ids,
                                                const Rect2& mbr) {
      batch.clear();
      for (ObjectId id : ids) {
        batch.push_back(BatchObject{id, objects_->Get(id).pos});
      }
      partial.assign(batch.size(), 0.0);
      alive.assign(batch.size(), true);
      for (size_t i = 0; i < c; ++i) {
        // Prune objects whose upper bound cannot beat the k-th score.
        double remaining = static_cast<double>(c - i);
        double threshold = topk.Threshold();
        sub.clear();
        sub_index.clear();
        Rect2 sub_mbr = Rect2::Empty();
        for (size_t j = 0; j < batch.size(); ++j) {
          if (!alive[j]) continue;
          if (topk.Full() && partial[j] + remaining < threshold) {
            alive[j] = false;
            continue;
          }
          sub.push_back(batch[j]);
          sub_index.push_back(static_cast<uint32_t>(j));
          sub_mbr.EnlargePoint({batch[j].pos.x, batch[j].pos.y});
        }
        if (sub.empty()) break;
        (void)mbr;  // sub_mbr shrinks as objects are pruned
        set_scores.assign(sub.size(), 0.0);
        ComputeScoresRangeBatch(*feature_indexes_[i], sub, sub_mbr,
                                query.keywords[i], query.lambda, query.radius,
                                set_scores, stats, scr);
        for (size_t s = 0; s < sub.size(); ++s) {
          partial[sub_index[s]] += set_scores[s];
        }
      }
      for (size_t j = 0; j < batch.size(); ++j) {
        if (!alive[j]) continue;
        ++stats.objects_scored;
        topk.Push(partial[j], batch[j].id);
      }
    }, &scr.stack, &scr.objects, &stats);
  } else {
    // Per-object scan (Algorithm 1 verbatim) for the influence and NN
    // variants.
    objects_->ForEachLeafBlock(object_pool, [&](std::span<const ObjectId> ids,
                                                const Rect2&) {
      for (ObjectId id : ids) {
        const Point& pos = objects_->Get(id).pos;
        double tau = ScoreObjectPruned(feature_indexes_, query, pos,
                                       topk.Full() ? topk.Threshold() : -1.0,
                                       stats, scr);
        if (tau >= 0.0) {
          ++stats.objects_scored;
          topk.Push(tau, id);
        }
      }
    }, &scr.stack, &scr.objects, &stats);
  }

  for (const auto& scored : topk.SortDescending()) {
    result.entries.push_back(ResultEntry{scored.item, scored.score});
  }
  return result;
}

}  // namespace stpq
