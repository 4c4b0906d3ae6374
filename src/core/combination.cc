#include "core/combination.h"

#include <algorithm>
#include <cmath>
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

SortedFeatureStream::SortedFeatureStream(const FeatureIndex& index,
                                         const KeywordSet& query_kw,
                                         double lambda, QueryStats& stats,
                                         TraversalScratch& scratch,
                                         std::vector<SearchHeapItem>& heap)
    : index_(index),
      stats_(stats),
      walk_(index, query_kw, lambda, heap, scratch, stats) {}

std::optional<SortedFeatureStream::Item> SortedFeatureStream::Next() {
  Span span(stats_, QueryPhase::kComponentScore, index_.set_ordinal());
  // Textual pruning only: sorted feature retrieval has no spatial
  // constraint (the 2r test applies to combinations, not features).
  const std::optional<SearchHeapItem> top =
      walk_.Next([](const FeatureBranch& b) { return b.score_bound; });
  if (top.has_value()) {
    ++stats_.features_retrieved;
    return Item{top->id, top->priority};
  }
  if (!virtual_emitted_) {
    // heap_i.pop() "returns a virtual feature object as final object".
    virtual_emitted_ = true;
    return Item{kVirtualFeature, 0.0};
  }
  return std::nullopt;
}

CombinationIterator::CombinationIterator(
    std::span<const FeatureIndex* const> indexes, const Query& query,
    bool enforce_range_constraint, PullingStrategy strategy,
    QueryStats* stats, TraversalScratch& scratch)
    : c_(indexes.size()),
      query_(query),
      enforce_range_(enforce_range_constraint),
      strategy_(strategy),
      stats_(stats),
      buf_(scratch.combination),
      cell_size_(std::max(2.0 * query.radius, 1e-12)),
      tuple_heap_(scratch.combination.tuples) {
  STPQ_CHECK(stats_ != nullptr);
  STPQ_CHECK(c_ >= 1 && c_ <= kMaxFeatureSets);
  STPQ_CHECK(query_.keywords.size() == c_);
  STPQ_CHECK(!buf_.in_use && "one CombinationIterator per scratch at a time");
  buf_.in_use = true;
  for (size_t i = 0; i < c_; ++i) {
    indexes_[i] = indexes[i];
    streams_[i].emplace(*indexes_[i], query_.keywords[i], query_.lambda,
                        *stats_, scratch, buf_.stream_heaps[i]);
    buf_.retrieved[i].clear();
    buf_.stalled[i].clear();
    buf_.grids[i].Clear();
    min_score_[i] = std::numeric_limits<double>::infinity();
  }
}

CombinationIterator::~CombinationIterator() { buf_.in_use = false; }

void CombinationIterator::Pull(size_t m) {
  STPQ_DCHECK(!stream_done_[m]);
  std::optional<SortedFeatureStream::Item> item = streams_[m]->Next();
  STPQ_DCHECK(item.has_value());
  RetrievedFeature rec{};
  rec.id = item->id;
  rec.score = item->score;
  rec.is_virtual = item->id == kVirtualFeature;
  if (!rec.is_virtual) {
    rec.pos = indexes_[m]->table().Get(item->id).pos;
  }
  std::vector<RetrievedFeature>& list = buf_.retrieved[m];
  if (list.empty()) max_score_[m] = rec.score;
  min_score_[m] = rec.score;
  list.push_back(rec);
  if (rec.is_virtual) stream_done_[m] = true;
  const uint32_t new_rank = static_cast<uint32_t>(list.size() - 1);

  if (enforce_range_) {
    // Product mode: index the new member and materialize every valid
    // combination it completes (Algorithm 4, line 9).
    if (rec.is_virtual) {
      has_virtual_[m] = true;
    } else {
      buf_.grids[m].Insert(CellKey(CellIndex(rec.pos.x, cell_size_),
                                   CellIndex(rec.pos.y, cell_size_)),
                           new_rank);
    }
    if (initialized_) GenerateValidWithNew(m);
    return;
  }

  // Lattice mode: reactivate tuples stalled on this set (in stall order),
  // compacting the ones still waiting in place.
  std::vector<RankTuple>& stalled = buf_.stalled[m];
  size_t waiting = 0;
  for (size_t q = 0; q < stalled.size(); ++q) {
    const RankTuple ranks = stalled[q];
    if (ranks[m] <= new_rank) {
      PushTuple(ranks);
    } else {
      stalled[waiting++] = ranks;
    }
  }
  stalled.resize(waiting);
}

void CombinationIterator::GenerateValidWithNew(size_t m) {
  const RetrievedFeature& fresh = buf_.retrieved[m].back();
  const uint32_t fresh_rank =
      static_cast<uint32_t>(buf_.retrieved[m].size() - 1);
  const double limit = 2.0 * query_.radius;
  const double limit2 = limit * limit;

  // Candidate partners per other set: members within 2r of the fresh
  // feature (all members if the fresh one is the virtual feature), plus
  // the virtual member where available.
  std::array<size_t, kMaxFeatureSets> others{};
  size_t num_others = 0;
  for (size_t j = 0; j < c_; ++j) {
    if (j == m) continue;
    others[num_others++] = j;
    const std::vector<RetrievedFeature>& dj = buf_.retrieved[j];
    std::vector<uint32_t>& cand = buf_.candidates[j];
    cand.clear();
    if (fresh.is_virtual) {
      // dist(t, virtual) = 0: every member of D_j is compatible with it
      // (pairwise checks among the chosen members still apply).
      for (uint32_t r = 0; r < dj.size(); ++r) {
        if (!dj[r].is_virtual) cand.push_back(r);
      }
    } else {
      const CellGrid& grid = buf_.grids[j];
      const int64_t bx = CellIndex(fresh.pos.x, cell_size_);
      const int64_t by = CellIndex(fresh.pos.y, cell_size_);
      for (int64_t dx = -1; dx <= 1; ++dx) {
        for (int64_t dy = -1; dy <= 1; ++dy) {
          for (uint32_t r = grid.First(CellKey(bx + dx, by + dy));
               r != CellGrid::kEnd; r = grid.Next(r)) {
            if (SquaredDistance(fresh.pos, dj[r].pos) <= limit2) {
              cand.push_back(r);
            }
          }
        }
      }
    }
    if (has_virtual_[j]) {
      cand.push_back(static_cast<uint32_t>(dj.size() - 1));
    }
    if (cand.empty()) return;  // no combination can include the fresh member
  }

  RankTuple ranks{};
  ranks[m] = fresh_rank;
  EmitProduct(std::span<const size_t>(others.data(), num_others), 0, ranks,
              limit2);
}

void CombinationIterator::EmitProduct(std::span<const size_t> others,
                                      size_t depth, RankTuple& ranks,
                                      double limit2) {
  if (depth == others.size()) {
    ++stats_->combinations_generated;
    tuple_heap_.push(ScoredTuple{TupleScore(ranks), ranks});
    return;
  }
  const size_t j = others[depth];
  for (uint32_t r : buf_.candidates[j]) {
    const RetrievedFeature& cj = buf_.retrieved[j][r];
    bool ok = true;
    if (!cj.is_virtual) {
      for (size_t q = 0; q < depth; ++q) {
        const size_t pi = others[q];
        const RetrievedFeature& prev = buf_.retrieved[pi][ranks[pi]];
        if (prev.is_virtual) continue;
        if (SquaredDistance(cj.pos, prev.pos) > limit2) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) continue;
    ranks[j] = r;
    EmitProduct(others, depth + 1, ranks, limit2);
  }
}

double CombinationIterator::Threshold() const {
  // tau = max_j ( max_1 + ... + min_j + ... + max_c ) over live streams.
  double sum_max = 0.0;
  for (size_t j = 0; j < c_; ++j) sum_max += max_score_[j];
  double tau = -std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < c_; ++j) {
    if (stream_done_[j]) continue;
    tau = std::max(tau, sum_max - max_score_[j] + min_score_[j]);
  }
  return tau;
}

size_t CombinationIterator::NextFeatureSet() {
  if (strategy_ == PullingStrategy::kRoundRobin) {
    for (size_t step = 0; step < c_; ++step) {
      size_t m = (round_robin_next_ + step) % c_;
      if (!stream_done_[m]) {
        round_robin_next_ = (m + 1) % c_;
        return m;
      }
    }
    STPQ_CHECK(false && "NextFeatureSet called with all streams done");
  }
  // Prioritized strategy (Definition 5): pull from the set responsible for
  // the threshold; only lowering its min_m can lower tau.
  double sum_max = 0.0;
  for (size_t j = 0; j < c_; ++j) sum_max += max_score_[j];
  size_t best = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  bool found = false;
  for (size_t j = 0; j < c_; ++j) {
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
  for (size_t i = 0; i < c_; ++i) {
    s += buf_.retrieved[i][ranks[i]].score;
  }
  return s;
}

Combination CombinationIterator::MakeCombination(const RankTuple& ranks) {
  for (size_t i = 0; i < c_; ++i) {
    members_[i] = buf_.retrieved[i][ranks[i]].id;
  }
  return Combination{std::span<const ObjectId>(members_.data(), c_),
                     TupleScore(ranks)};
}

void CombinationIterator::PushTuple(const RankTuple& ranks) {
  // Find whether any rank points past its list; at most one can (tuples
  // advance one rank at a time).
  for (size_t i = 0; i < c_; ++i) {
    if (ranks[i] >= buf_.retrieved[i].size()) {
      if (stream_done_[i]) return;  // no further features will ever arrive
      buf_.stalled[i].push_back(ranks);
      return;
    }
  }
  ++stats_->combinations_generated;
  tuple_heap_.push(ScoredTuple{TupleScore(ranks), ranks});
}

void CombinationIterator::ExpandSuccessors(const RankTuple& ranks) {
  // Canonical children: increment position i only while every earlier rank
  // is zero, so each tuple is generated by exactly one parent.
  for (size_t i = 0; i < c_; ++i) {
    RankTuple next = ranks;
    ++next[i];
    PushTuple(next);
    if (ranks[i] > 0) break;  // i was the first nonzero rank
  }
}

std::optional<Combination> CombinationIterator::Next() {
  Span span(*stats_, QueryPhase::kCombination, static_cast<uint32_t>(c_),
            stats_->combinations_emitted);
  if (!initialized_) {
    for (size_t i = 0; i < c_; ++i) Pull(i);
    initialized_ = true;
    if (enforce_range_) {
      // The initial pulls happened before combination generation was armed;
      // seed with the combinations among the first members.  Re-running the
      // generator for the last set covers exactly the initial cross-set
      // product (every combination's "newest" member is the set-(c-1) one).
      GenerateValidWithNew(c_ - 1);
    } else {
      PushTuple(RankTuple{});
    }
  }
  while (true) {
    bool all_done = true;
    for (size_t i = 0; i < c_; ++i) {
      if (!stream_done_[i]) {
        all_done = false;
        break;
      }
    }
    if (!tuple_heap_.empty()) {
      double tau = Threshold();
      if (all_done || tuple_heap_.top().score >= tau) {
        ScoredTuple top = tuple_heap_.top();
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
