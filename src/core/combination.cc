#include "core/combination.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "core/score.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace stpq {

namespace {

/// Packs grid cell indices into a hash key.  The bias keeps both halves
/// positive for slightly negative coordinates.
uint64_t CellKey(int64_t cx, int64_t cy) {
  return (static_cast<uint64_t>(cx + (1 << 20)) << 32) ^
         static_cast<uint64_t>(cy + (1 << 20));
}

int64_t CellIndex(double v, double cell) {
  return static_cast<int64_t>(std::floor(v / cell));
}

}  // namespace

SortedFeatureStream::SortedFeatureStream(const FeatureIndex* index,
                                         const KeywordSet* query_kw,
                                         double lambda, QueryStats* stats,
                                         ChildrenMemo* children)
    : index_(index),
      query_kw_(query_kw),
      lambda_(lambda),
      stats_(stats),
      children_(children) {
  STPQ_CHECK(stats_ != nullptr);
  STPQ_CHECK(children_ != nullptr);
  if (index_->RootId() != kInvalidNodeId) {
    heap_.push({1.0, index_->RootId(), false});
  }
}

std::optional<SortedFeatureStream::Item> SortedFeatureStream::Next() {
  Span span(*stats_, QueryPhase::kComponentScore, index_->set_ordinal());
  const uint8_t tree = TraceTreeForSet(index_->set_ordinal());
  ChildrenMemo::IndexMemo& children =
      children_->Bind(*index_, *query_kw_, lambda_);
  while (!heap_.empty()) {
    HeapEntry top = heap_.top();
    heap_.pop();
    if (top.is_feature) {
      ++stats_->features_retrieved;
      return Item{top.id, top.priority};
    }
    // Textual pruning only: sorted feature retrieval has no spatial
    // constraint (the 2r test applies to combinations, not features).
    const NodeChildren node = children.Visit(top.id);
    uint32_t descended = 0;
    for (const FeatureBranch& b : node.relevant) {
      heap_.push({b.score_bound, b.id, b.is_feature});
      ++descended;
      ++stats_->heap_pushes;
    }
    RecordNodeVisit(*stats_, tree, node.level, top.id, node.text_pruned,
                    descended);
  }
  if (!virtual_emitted_) {
    // heap_i.pop() "returns a virtual feature object as final object".
    virtual_emitted_ = true;
    return Item{kVirtualFeature, 0.0};
  }
  return std::nullopt;
}

CombinationIterator::CombinationIterator(
    std::vector<const FeatureIndex*> indexes, const Query& query,
    bool enforce_range_constraint, PullingStrategy strategy,
    QueryStats* stats, ChildrenMemo* children)
    : indexes_(std::move(indexes)),
      query_(query),
      enforce_range_(enforce_range_constraint),
      strategy_(strategy),
      stats_(stats) {
  STPQ_CHECK(stats_ != nullptr);
  const size_t c = indexes_.size();
  STPQ_CHECK(query_.keywords.size() == c);
  streams_.reserve(c);
  for (size_t i = 0; i < c; ++i) {
    streams_.emplace_back(indexes_[i], &query_.keywords[i], query_.lambda,
                          stats_, children);
  }
  STPQ_CHECK(c >= 1 && c <= kMaxFeatureSets);
  retrieved_.resize(c);
  max_score_.assign(c, 0.0);
  min_score_.assign(c, std::numeric_limits<double>::infinity());
  stream_done_.assign(c, false);
  stalled_.resize(c);
  grids_.resize(c);
  has_virtual_.assign(c, false);
}

void CombinationIterator::Pull(size_t m) {
  STPQ_DCHECK(!stream_done_[m]);
  std::optional<SortedFeatureStream::Item> item = streams_[m].Next();
  STPQ_DCHECK(item.has_value());
  Retrieved rec;
  rec.id = item->id;
  rec.score = item->score;
  rec.is_virtual = item->id == kVirtualFeature;
  if (!rec.is_virtual) {
    rec.pos = indexes_[m]->table().Get(item->id).pos;
  }
  if (retrieved_[m].empty()) max_score_[m] = rec.score;
  min_score_[m] = rec.score;
  retrieved_[m].push_back(rec);
  if (rec.is_virtual) stream_done_[m] = true;

  if (enforce_range_) {
    // Product mode: index the new member and materialize every valid
    // combination it completes (Algorithm 4, line 9).
    const uint32_t new_rank = static_cast<uint32_t>(retrieved_[m].size() - 1);
    if (rec.is_virtual) {
      has_virtual_[m] = true;
    } else {
      double cell = std::max(2.0 * query_.radius, 1e-12);
      grids_[m][CellKey(CellIndex(rec.pos.x, cell),
                        CellIndex(rec.pos.y, cell))]
          .push_back(new_rank);
    }
    if (initialized_) GenerateValidWithNew(m);
    return;
  }

  // Lattice mode: reactivate tuples stalled on this set.
  const uint32_t new_rank = static_cast<uint32_t>(retrieved_[m].size() - 1);
  std::vector<RankTuple> still_waiting;
  for (const RankTuple& ranks : stalled_[m]) {
    if (ranks[m] <= new_rank) {
      PushTuple(ranks);
    } else {
      still_waiting.push_back(ranks);
    }
  }
  stalled_[m] = std::move(still_waiting);
}

void CombinationIterator::GenerateValidWithNew(size_t m) {
  const size_t c = indexes_.size();
  const Retrieved& fresh = retrieved_[m].back();
  const uint32_t fresh_rank = static_cast<uint32_t>(retrieved_[m].size() - 1);
  const double limit = 2.0 * query_.radius;
  const double limit2 = limit * limit;
  const double cell = std::max(limit, 1e-12);

  // Candidate partners per other set: members within 2r of the fresh
  // feature (all members if the fresh one is the virtual feature), plus
  // the virtual member where available.
  std::vector<size_t> others;
  std::vector<std::vector<uint32_t>> candidates(c);
  for (size_t j = 0; j < c; ++j) {
    if (j == m) continue;
    others.push_back(j);
    std::vector<uint32_t>& cand = candidates[j];
    if (fresh.is_virtual) {
      // dist(t, virtual) = 0: every member of D_j is compatible with it
      // (pairwise checks among the chosen members still apply).
      for (uint32_t r = 0; r < retrieved_[j].size(); ++r) {
        if (!retrieved_[j][r].is_virtual) cand.push_back(r);
      }
    } else {
      int64_t bx = CellIndex(fresh.pos.x, cell);
      int64_t by = CellIndex(fresh.pos.y, cell);
      for (int64_t dx = -1; dx <= 1; ++dx) {
        for (int64_t dy = -1; dy <= 1; ++dy) {
          auto it = grids_[j].find(CellKey(bx + dx, by + dy));
          if (it == grids_[j].end()) continue;
          for (uint32_t r : it->second) {
            if (SquaredDistance(fresh.pos, retrieved_[j][r].pos) <= limit2) {
              cand.push_back(r);
            }
          }
        }
      }
    }
    if (has_virtual_[j]) {
      cand.push_back(static_cast<uint32_t>(retrieved_[j].size() - 1));
    }
    if (cand.empty()) return;  // no combination can include the fresh member
  }

  // Depth-first product over the candidate lists with incremental pairwise
  // distance checks among the chosen members.
  RankTuple ranks{};
  ranks[m] = fresh_rank;
  std::vector<size_t> chosen;  // positions already assigned (excluding m)
  std::function<void(size_t)> rec = [&](size_t oi) {
    if (oi == others.size()) {
      ++stats_->combinations_generated;
      tuple_heap_.push(Tuple{TupleScore(ranks), ranks});
      return;
    }
    size_t j = others[oi];
    for (uint32_t r : candidates[j]) {
      const Retrieved& cj = retrieved_[j][r];
      bool ok = true;
      if (!cj.is_virtual) {
        for (size_t pi : chosen) {
          const Retrieved& prev = retrieved_[pi][ranks[pi]];
          if (prev.is_virtual) continue;
          if (SquaredDistance(cj.pos, prev.pos) > limit2) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) continue;
      ranks[j] = r;
      chosen.push_back(j);
      rec(oi + 1);
      chosen.pop_back();
    }
  };
  rec(0);
}

double CombinationIterator::Threshold() const {
  // tau = max_j ( max_1 + ... + min_j + ... + max_c ) over live streams.
  double sum_max = 0.0;
  for (double m : max_score_) sum_max += m;
  double tau = -std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < indexes_.size(); ++j) {
    if (stream_done_[j]) continue;
    tau = std::max(tau, sum_max - max_score_[j] + min_score_[j]);
  }
  return tau;
}

size_t CombinationIterator::NextFeatureSet() {
  const size_t c = indexes_.size();
  if (strategy_ == PullingStrategy::kRoundRobin) {
    for (size_t step = 0; step < c; ++step) {
      size_t m = (round_robin_next_ + step) % c;
      if (!stream_done_[m]) {
        round_robin_next_ = (m + 1) % c;
        return m;
      }
    }
    STPQ_CHECK(false && "NextFeatureSet called with all streams done");
  }
  // Prioritized strategy (Definition 5): pull from the set responsible for
  // the threshold; only lowering its min_m can lower tau.
  double sum_max = 0.0;
  for (double m : max_score_) sum_max += m;
  size_t best = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  bool found = false;
  for (size_t j = 0; j < c; ++j) {
    if (stream_done_[j]) continue;
    double value = sum_max - max_score_[j] + min_score_[j];
    if (!found || value > best_value) {
      best = j;
      best_value = value;
      found = true;
    }
  }
  STPQ_CHECK(found && "NextFeatureSet called with all streams done");
  return best;
}

double CombinationIterator::TupleScore(const RankTuple& ranks) const {
  double s = 0.0;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    s += retrieved_[i][ranks[i]].score;
  }
  return s;
}

Combination CombinationIterator::MakeCombination(const RankTuple& ranks)
    const {
  Combination c;
  c.members.reserve(indexes_.size());
  for (size_t i = 0; i < indexes_.size(); ++i) {
    c.members.push_back(retrieved_[i][ranks[i]].id);
  }
  c.score = TupleScore(ranks);
  return c;
}

void CombinationIterator::PushTuple(const RankTuple& ranks) {
  // Find whether any rank points past its list; at most one can (tuples
  // advance one rank at a time).
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (ranks[i] >= retrieved_[i].size()) {
      if (stream_done_[i]) return;  // no further features will ever arrive
      stalled_[i].push_back(ranks);
      return;
    }
  }
  ++stats_->combinations_generated;
  tuple_heap_.push(Tuple{TupleScore(ranks), ranks});
}

void CombinationIterator::ExpandSuccessors(const RankTuple& ranks) {
  // Canonical children: increment position i only while every earlier rank
  // is zero, so each tuple is generated by exactly one parent.
  for (size_t i = 0; i < indexes_.size(); ++i) {
    RankTuple next = ranks;
    ++next[i];
    PushTuple(next);
    if (ranks[i] > 0) break;  // i was the first nonzero rank
  }
}

std::optional<Combination> CombinationIterator::Next() {
  Span span(*stats_, QueryPhase::kCombination,
            static_cast<uint32_t>(indexes_.size()),
            stats_->combinations_emitted);
  if (!initialized_) {
    for (size_t i = 0; i < indexes_.size(); ++i) Pull(i);
    initialized_ = true;
    if (enforce_range_) {
      // The initial pulls happened before combination generation was armed;
      // seed with the combinations among the first members.  Re-running the
      // generator for the last set covers exactly the initial cross-set
      // product (every combination's "newest" member is the set-(c-1) one).
      GenerateValidWithNew(indexes_.size() - 1);
    } else {
      PushTuple(RankTuple{});
    }
  }
  while (true) {
    bool all_done = true;
    for (size_t i = 0; i < indexes_.size(); ++i) {
      if (!stream_done_[i]) {
        all_done = false;
        break;
      }
    }
    if (!tuple_heap_.empty()) {
      double tau = Threshold();
      if (all_done || tuple_heap_.top().score >= tau) {
        Tuple top = tuple_heap_.top();
        tuple_heap_.pop();
        if (!enforce_range_) {
          // Lattice mode: expand successors; the tuple itself is valid.
          ExpandSuccessors(top.ranks);
        }
        ++stats_->combinations_emitted;
        return MakeCombination(top.ranks);
      }
    }
    if (all_done) {
      // Heap drained and no stream can produce more: enumeration is over.
      if (tuple_heap_.empty()) return std::nullopt;
      continue;
    }
    Pull(NextFeatureSet());
  }
}

}  // namespace stpq
