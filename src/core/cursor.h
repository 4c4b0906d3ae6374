// StpsCursor: incremental result delivery for range-score queries.
//
// Section 6.2 notes that STPS "can be returned to the user incrementally":
// objects qualified by the best not-yet-processed combination are final the
// moment they are found.  The cursor exposes exactly that — results stream
// one at a time in non-increasing tau(p) with no k fixed up front, so a
// caller can stop whenever it has seen enough (top-k with a posteriori k).
//
// Only the range variant supports this (the influence and NN variants need
// cross-combination reconciliation before a result is final).
//
// A cursor owns its own ExecutionSession: its simulated I/O is charged to
// the session's pool and its traversals use the session's scratch, so a
// cursor may outlive the query that opened it, be interleaved with
// concurrent Execute calls, and be drained from a different thread than
// the one that opened it.  A single cursor is not itself thread-safe:
// drain it from one thread at a time.
#ifndef STPQ_CORE_CURSOR_H_
#define STPQ_CORE_CURSOR_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/combination.h"
#include "core/exec_session.h"
#include "core/query.h"
#include "core/scratch.h"
#include "index/object_index.h"

namespace stpq {

/// Streams range-score results in non-increasing tau(p).
class StpsCursor {
 public:
  /// `objects`, `feature_indexes` and the storage it views are not owned
  /// and must outlive the cursor.  `query.k` is ignored — the cursor is
  /// unbounded.  `query.variant` must be kRange.  `session` (non-null)
  /// serves the cursor's page reads and traversal buffers; the cursor's
  /// query starts by resetting it.
  StpsCursor(const ObjectIndex* objects,
             std::span<const FeatureIndex* const> feature_indexes,
             Query query, PullingStrategy strategy,
             std::unique_ptr<ExecutionSession> session);

  ~StpsCursor();
  StpsCursor(StpsCursor&&) = delete;
  StpsCursor& operator=(StpsCursor&&) = delete;

  /// The next result, or nullopt once every data object has been returned
  /// or a page could not be fetched (then status() says why).
  std::optional<ResultEntry> Next();

  /// OK, or the IoError/Corruption of the first page fetch that failed;
  /// the cursor stops at that point.
  [[nodiscard]] Status status() const;

  /// Cost counters accumulated so far, including the page reads charged to
  /// the cursor's session.
  QueryStats stats() const;

 private:
  void RefillBuffer();

  const ObjectIndex* objects_;
  std::span<const FeatureIndex* const> feature_indexes_;
  Query query_;  // owned copy; the iterator references it
  QueryStats stats_;
  /// Its scratch, reused across Next()/RefillBuffer calls, holds the
  /// iterator's children memo, so it is declared before (and outlives)
  /// the iterator.
  std::unique_ptr<ExecutionSession> session_;
  std::unique_ptr<CombinationIterator> iterator_;
  std::vector<bool> claimed_;
  /// Results of the last combination; buffer_[next_..] are undelivered.
  std::vector<ResultEntry> buffer_;
  size_t next_ = 0;
  bool exhausted_ = false;
};

}  // namespace stpq

#endif  // STPQ_CORE_CURSOR_H_
