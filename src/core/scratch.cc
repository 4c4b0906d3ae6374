#include "core/scratch.h"

#include <utility>

#include "util/logging.h"

namespace stpq {

NodeChildren ChildrenMemo::Evaluate(const FeatureIndex& index, PageView page,
                                    const KeywordSet& query_kw,
                                    double lambda) {
  const uint32_t frame = page.frame();
  // A failed fetch was not admitted, so its empty node is not filed.
  const bool admitted = !page.fault().failed();
  const NodeView node = index.tree().View(std::move(page));
  const auto begin = static_cast<uint32_t>(children_.size());
  const NodeVisit visit =
      index.EvaluateNode(node, query_kw, lambda, &children_);
  const Entry e{begin, static_cast<uint32_t>(children_.size()) - begin,
                visit.text_pruned, visit.level, /*filed=*/true};
  if (admitted) {
    if (frame >= entries_.size()) entries_.resize(frame + 1);
    entries_[frame] = e;
  }
  return ViewOf(e);
}

void ChildrenMemo::Clear() {
  entries_.clear();
  children_.clear();
  for (Binding& binding : bindings_) binding.bound = false;
}

void ChildrenMemo::CheckBinding(uint32_t set, const KeywordSet& query_kw,
                                double lambda) {
  // Filed children would be wrong under another keyword set or lambda.
  STPQ_CHECK(set < kMaxFeatureSets);
  Binding& binding = bindings_[set];
  if (!binding.bound) {
    binding.bound = true;
    binding.keywords = query_kw;  // copy-assignment reuses the capacity
    binding.lambda = lambda;
  }
  STPQ_CHECK(binding.lambda == lambda && binding.keywords == query_kw &&
             "one keyword set and lambda per feature set within a query");
}

}  // namespace stpq
