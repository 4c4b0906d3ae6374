// Bounded top-k accumulator ordered by descending score.
#ifndef STPQ_UTIL_TOPK_H_
#define STPQ_UTIL_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

namespace stpq {

/// Keeps the k items with the highest scores seen so far.
///
/// Push is O(log k); Threshold() returns the current k-th best score (the
/// pruning threshold used by both STDS and STPS), or `floor` while fewer
/// than k items have been pushed.  The heap lives in a caller-owned
/// vector, whose capacity carries over to the next TopK (the query
/// executors borrow session scratch this way).
template <typename Item>
class TopK {
 public:
  struct Scored {
    double score;
    Item item;
  };

  /// Keeps the heap in `storage` (cleared here), which must outlive the
  /// TopK.
  TopK(size_t k, std::vector<Scored>* storage, double floor = 0.0)
      : k_(k), floor_(floor), heap_(storage) {
    heap_->clear();
  }

  TopK(const TopK&) = delete;
  TopK& operator=(const TopK&) = delete;

  /// Offers an item; it is kept only if it ranks among the best k.
  void Push(double score, Item item) {
    if (k_ == 0) return;
    std::vector<Scored>& heap = *heap_;
    if (heap.size() < k_) {
      heap.push_back({score, std::move(item)});
      std::push_heap(heap.begin(), heap.end(), MinFirst);
    } else if (score > heap.front().score) {
      std::pop_heap(heap.begin(), heap.end(), MinFirst);
      heap.back() = {score, std::move(item)};
      std::push_heap(heap.begin(), heap.end(), MinFirst);
    }
  }

  /// True once k items are held; from then on Threshold() is the k-th score.
  bool Full() const { return heap_->size() >= k_; }

  /// Current k-th best score, or the floor if fewer than k items were seen.
  double Threshold() const {
    return Full() && k_ > 0 ? heap_->front().score : floor_;
  }

  size_t Size() const { return heap_->size(); }

  /// Sorts the items by descending score in place and returns them; the
  /// TopK must not be pushed to afterwards.
  std::span<const Scored> SortDescending() {
    std::sort(heap_->begin(), heap_->end(),
              [](const Scored& a, const Scored& b) {
                return a.score > b.score;
              });
    return *heap_;
  }

 private:
  static bool MinFirst(const Scored& a, const Scored& b) {
    return a.score > b.score;  // min-heap on score
  }

  size_t k_;
  double floor_;
  std::vector<Scored>* heap_;  ///< borrowed storage
};

}  // namespace stpq

#endif  // STPQ_UTIL_TOPK_H_
