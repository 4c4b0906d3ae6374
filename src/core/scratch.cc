#include "core/scratch.h"

namespace stpq {

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
  memo->pool_ = pool_;
  return *memo;
}

void ChildrenMemo::IndexMemo::Rebind(const FeatureIndex& index,
                                     const KeywordSet& query_kw,
                                     double lambda) {
  index_ = &index;
  keywords_ = query_kw;  // copy-assignment reuses the block capacity
  lambda_ = lambda;
  entries_.Clear();
  children_.clear();
}

NodeChildren ChildrenMemo::IndexMemo::Evaluate(NodeId node, Entry& e) {
  const size_t begin = children_.size();
  const NodeVisit visit =
      index_->VisitChildren(pool_, node, keywords_, lambda_, &children_);
  e = Entry{static_cast<uint32_t>(begin),
            static_cast<uint32_t>(children_.size() - begin),
            visit.text_pruned, visit.level};
  return ViewOf(e);
}

}  // namespace stpq
