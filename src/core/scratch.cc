#include "core/scratch.h"

#include <bit>

namespace stpq {

namespace {

/// Table size of a memo's first Grow.
constexpr size_t kInitialMemoSlots = 64;

}  // namespace

ChildrenMemo::IndexMemo& ChildrenMemo::Bind(const FeatureIndex& index,
                                            const KeywordSet& query_kw,
                                            double lambda) {
  IndexMemo* memo = nullptr;
  for (IndexMemo& m : memos_) {
    if (m.index_ == &index) {
      memo = &m;
      break;
    }
  }
  if (memo == nullptr) {
    for (IndexMemo& m : memos_) {
      if (m.index_ == nullptr) {
        memo = &m;
        break;
      }
    }
  }
  if (memo == nullptr) {
    memo = &memos_[next_victim_];
    next_victim_ = (next_victim_ + 1) % kSlots;
  }
  if (!memo->BoundTo(index, query_kw, lambda)) {
    memo->Rebind(index, query_kw, lambda);
  }
  return *memo;
}

void ChildrenMemo::IndexMemo::Rebind(const FeatureIndex& index,
                                     const KeywordSet& query_kw,
                                     double lambda) {
  index_ = &index;
  keywords_ = query_kw;  // copy-assignment reuses the block capacity
  lambda_ = lambda;
  live_ = 0;
  children_.clear();
  if (++epoch_ == 0) {
    // Wrapped: a stale stamp could now alias the new epoch.
    for (Entry& e : slots_) e.stamp = 0;
    epoch_ = 1;
  }
}

NodeChildren ChildrenMemo::IndexMemo::Evaluate(NodeId node, Entry& e) {
  const uint16_t level = index_->NodeLevel(node);
  index_->VisitChildren(node, keywords_, lambda_, &visited_);
  const size_t begin = children_.size();
  uint32_t text_pruned = 0;
  for (const FeatureBranch& b : visited_) {
    if (b.text_match) {
      children_.push_back(b);
    } else {
      ++text_pruned;
    }
  }
  e = Entry{epoch_,
            node,
            static_cast<uint32_t>(begin),
            static_cast<uint32_t>(children_.size() - begin),
            text_pruned,
            level};
  ++live_;
  return ViewOf(e);
}

void ChildrenMemo::IndexMemo::Grow() {
  spare_.swap(slots_);
  const size_t size =
      spare_.empty() ? kInitialMemoSlots : 2 * spare_.size();
  slots_.assign(size, Entry{});
  shift_ = 32 - static_cast<uint32_t>(std::countr_zero(size));
  const size_t mask = size - 1;
  for (const Entry& e : spare_) {
    if (e.stamp != epoch_) continue;
    size_t i = Hash(e.node);
    while (slots_[i].stamp == epoch_) i = (i + 1) & mask;
    slots_[i] = e;
  }
}

}  // namespace stpq
