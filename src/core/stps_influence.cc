// STPS for the influence score variant (Section 7.1, Algorithm 5).
#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "core/best_first_walk.h"
#include "core/combination.h"
#include "core/compute_score.h"
#include "core/score.h"
#include "core/stps.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/topk.h"

namespace stpq {

namespace {

/// Top-k traversal of the object R-tree ordered by the combination's
/// influence score sum_i s(t_i) * 2^(-dist(p, t_i)/r), into `out`.
/// Internal entries are bounded via mindist; retrieval stops after k
/// objects or when the bound falls to `stop_threshold` (both Section 7.1
/// optimizations).
void TopKInfluenceObjects(const ObjectIndex& objects,
                          std::span<const Point> member_pos,
                          std::span<const double> member_score,
                          double radius, size_t k, double stop_threshold,
                          QueryStats& stats, TraversalScratch& scratch,
                          std::vector<ResultEntry>* out) {
  out->clear();
  if (objects.RootId() == kInvalidNodeId) return;
  Span span(stats, QueryPhase::kObjectRetrieval, static_cast<uint32_t>(k),
            static_cast<uint64_t>(member_pos.size()));
  // Root bound: the combination score itself (influence at distance 0).
  double root_bound = 0.0;
  for (double s : member_score) root_bound += s;
  BestFirstWalk<SearchHeapMaxOrder, ObjectIndex> walk(
      objects, root_bound, scratch.heap, scratch, stats);
  const auto bound = [&](const Rect2& rect,
                         bool is_object) -> std::optional<double> {
    double s = 0.0;
    for (size_t i = 0; i < member_pos.size(); ++i) {
      double d = is_object
                     ? Distance(Point{rect.lo[0], rect.lo[1]}, member_pos[i])
                     : MinDistance(member_pos[i], rect);
      s += member_score[i] * InfluenceFactor(d, radius);
    }
    if (s < stop_threshold) return std::nullopt;
    return s;
  };
  // Strict comparison: candidates tied with the threshold may still fill
  // result slots (e.g. all-zero scores when nothing is relevant).
  const auto stop = [&](const SearchHeapItem& top) {
    return out->size() >= k || top.priority < stop_threshold;
  };
  while (const std::optional<SearchHeapItem> top = walk.Next(bound, stop)) {
    out->push_back(ResultEntry{top->id, top->priority});
    ++stats.objects_scored;
  }
}

/// Current k-th best score among the merged candidates (0 if fewer than k).
double KthScore(InfluenceScratch& merged, size_t k) {
  if (merged.seen.size() < k) return 0.0;
  std::vector<double>& scores = merged.scores;
  scores.clear();
  for (ObjectId id : merged.seen) scores.push_back(merged.best[id]);
  std::nth_element(scores.begin(), scores.begin() + (k - 1), scores.end(),
                   std::greater<>());
  return scores[k - 1];
}

/// Upper bound on the influence score any single location can collect from
/// this combination.  For members i, j at distance D, every p satisfies
/// d(p,i) + d(p,j) >= D, and x -> 2^(-x/r) is convex, so the pair's joint
/// contribution is maximized at an endpoint (p at one of the members):
///   s_i + s_j * 2^(-D/r)   or   s_j + s_i * 2^(-D/r).
/// Minimizing over pairs (others bounded by factor 1) tightens s(C) for
/// spread-out combinations, letting the search skip their object retrieval
/// once the k-th candidate beats the bound.
double AchievableBound(std::span<const Point> pos,
                       std::span<const double> score, double radius) {
  double total = 0.0;
  for (double s : score) total += s;
  double bound = total;
  for (size_t i = 0; i < pos.size(); ++i) {
    for (size_t j = i + 1; j < pos.size(); ++j) {
      double decay = InfluenceFactor(Distance(pos[i], pos[j]), radius);
      double pair_best =
          std::max(score[i] + score[j] * decay, score[j] + score[i] * decay);
      bound = std::min(bound,
                       total - score[i] - score[j] + pair_best);
    }
  }
  return bound;
}

}  // namespace

QueryResult Stps::ExecuteInfluence(const Query& query,
                                   PullingStrategy strategy,
                                   TraversalScratch& scratch) const {
  QueryResult result;
  // nextCombination without the 2r validity filter (Section 7.1).
  CombinationIterator it(feature_indexes_, query,
                         /*enforce_range_constraint=*/false, strategy,
                         &result.stats, scratch);
  // Influence scores of a data object differ per combination; keep the max
  // over all combinations processed (Algorithm 5, line 6).
  InfluenceScratch& merged = scratch.influence;
  std::vector<bool>& seen = scratch.flags;
  seen.assign(objects_->size(), false);
  merged.best.resize(objects_->size());
  merged.seen.clear();
  double tau = 0.0;
  std::array<Point, kMaxFeatureSets> member_pos;
  std::array<double, kMaxFeatureSets> member_score;
  while (true) {
    std::optional<Combination> combo = it.Next();
    if (!combo.has_value()) break;
    // s(C) bounds the influence score of any object under any unseen
    // combination (it is the score at distance 0); terminate when it can
    // no longer improve the top-k (Algorithm 5, line 3).
    if (merged.seen.size() >= query.k && combo->score <= tau) break;
    size_t real = 0;
    for (size_t i = 0; i < combo->members.size(); ++i) {
      if (combo->members[i] == kVirtualFeature) continue;
      const FeatureObject& t =
          feature_indexes_[i]->table().Get(combo->members[i]);
      member_pos[real] = t.pos;
      member_score[real] =
          PreferenceScore(t, query.keywords[i], query.lambda);
      ++real;
    }
    const std::span<const Point> pos(member_pos.data(), real);
    const std::span<const double> score(member_score.data(), real);
    // Spread-out combinations cannot produce a competitive object: skip
    // their retrieval entirely.
    if (merged.seen.size() >= query.k &&
        AchievableBound(pos, score, query.radius) <= tau) {
      continue;
    }
    TopKInfluenceObjects(*objects_, pos, score, query.radius, query.k, tau,
                         result.stats, scratch, &merged.objects);
    bool changed = false;
    for (const ResultEntry& c : merged.objects) {
      if (!seen[c.object]) {
        seen[c.object] = true;
        merged.best[c.object] = c.score;
        merged.seen.push_back(c.object);
        changed = true;
      } else if (c.score > merged.best[c.object]) {
        merged.best[c.object] = c.score;
        changed = true;
      }
    }
    if (changed) tau = KthScore(merged, query.k);
  }

  std::vector<ResultEntry>& ranked = merged.objects;
  ranked.clear();
  for (ObjectId id : merged.seen) {
    ranked.push_back(ResultEntry{id, merged.best[id]});
  }
  std::sort(ranked.begin(), ranked.end(), [](const ResultEntry& a,
                                             const ResultEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.object < b.object;
  });
  result.entries.assign(
      ranked.begin(),
      ranked.begin() + static_cast<std::ptrdiff_t>(
                           std::min<size_t>(ranked.size(), query.k)));
  return result;
}

// ---------------------------------------------------------------------------
// Anchored influence retrieval (InfluenceMode::kAnchored).
//
// For any object p, let a* be the nearest among its per-set realizing
// features (the argmax features of Definition 6).  Every realizing feature
// is at distance >= d(p, a*), so
//
//   tau(p) <= (s(a*) + sum_{j != set(a*)} max_s(F_j)) * 2^(-d(p,a*)/r).
//
// Streaming the relevant features of every set in non-increasing s(t)
// ("anchors") therefore covers all candidates: an anchor a with current
// k-th score tau_k only needs the objects within
//
//   R_a = r * log2((s(a) + sum_other_max) / tau_k),
//
// and the per-set streams can stop as soon as even s(next) + sum_other_max
// <= tau_k.  Retrieved objects get their *exact* tau(p) via per-set
// influence traversals, which drives tau_k up quickly and shrinks every
// subsequent radius.  Results are identical to Algorithm 5's; the cost no
// longer depends on the number of combinations scoring above tau_k.
// ---------------------------------------------------------------------------

namespace {

/// Absolute slack subtracted from every exactify floor.  Scores are at
/// most c <= kMaxFeatureSets, so the floor's and the sum's roundings stay
/// orders of magnitude below it: a dismissed object's computed tau(p)
/// could never have exceeded tau_k.
constexpr double kFloorMargin = 1e-10;

/// Ids of the `k` objects nearest to `center` (incremental NN on the
/// object R-tree), into `out`; used to seed tau_k before any radius can be
/// bounded.
void NearestObjects(const ObjectIndex& objects, const Point& center,
                    size_t k, QueryStats& stats, TraversalScratch& scratch,
                    std::vector<ObjectId>* out) {
  out->clear();
  if (objects.RootId() == kInvalidNodeId) return;
  Span span(stats, QueryPhase::kObjectRetrieval, static_cast<uint32_t>(k));
  // Min-heap on squared distance; incremental NN prunes nothing.
  BestFirstWalk<SearchHeapMinOrder, ObjectIndex> walk(objects, 0.0,
                                                      scratch.heap, scratch,
                                                      stats);
  const auto dist2 = [&](const Rect2& rect, bool is_object) {
    return is_object ? SquaredDistance(center, Point{rect.lo[0], rect.lo[1]})
                     : MinSquaredDistance(center, rect);
  };
  const auto enough = [&](const SearchHeapItem&) { return out->size() >= k; };
  while (const std::optional<SearchHeapItem> top = walk.Next(dist2, enough)) {
    out->push_back(top->id);
  }
}

}  // namespace

QueryResult Stps::ExecuteInfluenceAnchored(const Query& query,
                                           PullingStrategy strategy,
                                           TraversalScratch& scratch) const {
  QueryResult result;
  result.entries.reserve(std::min<size_t>(query.k, objects_->size()));
  const size_t c = feature_indexes_.size();
  // The streams borrow the combination heaps: no iterator runs here.
  std::array<std::optional<SortedFeatureStream>, kMaxFeatureSets> streams;
  for (size_t i = 0; i < c; ++i) {
    streams[i].emplace(*feature_indexes_[i], query.keywords[i], query.lambda,
                       result.stats, scratch,
                       scratch.combination.stream_heaps[i]);
  }

  // Per-set bookkeeping: the top score (fixed after the first pull) and
  // the score of the most recent pull (upper-bounds the next one).
  std::array<double, kMaxFeatureSets> max_score{};
  std::array<double, kMaxFeatureSets> last_score{};
  std::array<bool, kMaxFeatureSets> done{};
  std::array<std::optional<SortedFeatureStream::Item>, kMaxFeatureSets>
      pending;
  for (size_t i = 0; i < c; ++i) {
    pending[i] = streams[i]->Next();
    if (pending[i].has_value() && pending[i]->id != kVirtualFeature) {
      max_score[i] = pending[i]->score;
      last_score[i] = pending[i]->score;
    } else {
      done[i] = true;
    }
  }
  double sum_max = 0.0;
  for (size_t i = 0; i < c; ++i) sum_max += max_score[i];

  // rest_max[i] = sum_{j >= i} max_score[j] bounds what sets i.. can add.
  std::array<double, kMaxFeatureSets + 1> rest_max{};
  for (size_t i = c; i-- > 0;) rest_max[i] = rest_max[i + 1] + max_score[i];

  TopK<ObjectId> topk(query.k, &scratch.topk);
  std::vector<bool>& scored = scratch.flags;
  scored.assign(objects_->size(), false);
  // Computes tau(p) exactly, or dismisses p once it cannot beat tau_k.
  // With k objects held, set i's search looks only above the floor
  // tau_k - tau_so_far - rest_max[i + 1] - kFloorMargin: if set i's top
  // score cannot clear it, or the search finds nothing above it, tau(p)
  // stays below tau_k, which TopK::Push would reject, so p is dismissed
  // without searching the remaining sets.  Results, reads and tau_k's
  // evolution are unchanged (DESIGN.md §4, note 2).
  auto exactify = [&](ObjectId id) {
    if (scored[id]) return;
    scored[id] = true;
    const Point& p = objects_->Get(id).pos;
    const bool bounded = topk.Full();
    const double tau_k = topk.Threshold();
    double tau = 0.0;
    for (size_t i = 0; i < c; ++i) {
      double floor = kNoScoreFloor;
      if (bounded) {
        floor = tau_k - tau - rest_max[i + 1] - kFloorMargin;
        if (max_score[i] <= floor) return;
      }
      const double s =
          ComputeBestInfluence(*feature_indexes_[i], p, query.keywords[i],
                               query.lambda, query.radius, result.stats,
                               scratch, floor)
              .score;
      if (s <= floor) return;
      tau += s;
    }
    ++result.stats.objects_scored;
    topk.Push(tau, id);
  };

  size_t round_robin = 0;
  while (true) {
    // Optimistic value of the next anchor per live set.
    double tau = topk.Full() ? topk.Threshold() : 0.0;
    size_t pick = c;
    double pick_value = -1.0;
    for (size_t step = 0; step < c; ++step) {
      size_t i = strategy == PullingStrategy::kRoundRobin
                     ? (round_robin + step) % c
                     : step;
      if (done[i]) continue;
      double value = last_score[i] + (sum_max - max_score[i]);
      if (strategy == PullingStrategy::kRoundRobin) {
        if (value > tau) {
          pick = i;
          pick_value = value;
          break;
        }
        continue;
      }
      if (value > pick_value) {
        pick = i;
        pick_value = value;
      }
    }
    if (pick == c || (topk.Full() && pick_value <= tau)) break;
    round_robin = (pick + 1) % c;

    // Take the pending item (or pull the next) from the chosen stream.
    std::optional<SortedFeatureStream::Item> item = pending[pick];
    pending[pick] = streams[pick]->Next();
    if (!pending[pick].has_value() ||
        pending[pick]->id == kVirtualFeature) {
      done[pick] = true;
    } else {
      last_score[pick] = pending[pick]->score;
    }
    if (!item.has_value() || item->id == kVirtualFeature) continue;
    const FeatureObject& anchor = feature_indexes_[pick]->table().Get(
        item->id);
    double cap = item->score + (sum_max - max_score[pick]);
    if (topk.Full() && cap <= topk.Threshold()) continue;

    // Seed tau_k near this anchor while the result set is short.
    if (!topk.Full()) {
      NearestObjects(*objects_, anchor.pos, query.k, result.stats, scratch,
                     &scratch.objects);
      for (ObjectId id : scratch.objects) exactify(id);
    }
    double tau_now = topk.Threshold();
    if (topk.Full() && tau_now > 0.0 && cap > tau_now) {
      double radius = query.radius * std::log2(cap / tau_now);
      {
        Span span(result.stats, QueryPhase::kObjectRetrieval);
        objects_->RangeQuery(scratch.pool, anchor.pos, radius,
                             &scratch.objects, &scratch.stack, &result.stats);
      }
      for (ObjectId id : scratch.objects) exactify(id);
    }
  }

  // Degenerate completion: with fewer than k objects scored (k close to
  // |O|, or no relevant features anywhere) the radius pruning never
  // engaged and coverage is not guaranteed — score everything.
  if (!topk.Full()) {
    for (ObjectId id = 0; id < objects_->size(); ++id) {
      exactify(static_cast<ObjectId>(id));
    }
  }

  for (const auto& e : topk.SortDescending()) {
    result.entries.push_back(ResultEntry{e.item, e.score});
  }
  return result;
}

}  // namespace stpq
