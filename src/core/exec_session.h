// ExecutionSession: all per-query mutable engine state, as one object.
//
// A fully built Engine is immutable; everything a single Execute/cursor
// call mutates — search heaps, combination iterators, QueryStats, and the
// simulated-I/O accounting — must live on the call's own stack or in this
// session object.  The heaps and iterators are naturally local to the
// algorithms; the I/O accounting lives here: the session owns the query's
// one buffer pool, a cold page table over the engine's PageStore that
// counts object-tree and feature-tree reads apart, and its scratch reads
// through it, so every node read of the query charges the session and N
// concurrent queries each see their own counters (DESIGN.md §11).
//
// Execute leases a session from the engine's SessionPool and returns it
// afterwards, so the session's scratch buffers (and its pool's frames and
// page-table slots) carry their capacity from one query to the next: a
// warm query allocates nothing but the entries it returns.  The executor
// resets the scratch, and the pool with it, where the query starts.
// Cursors own a session for their whole lifetime, so a cursor can outlive
// the query that opened it and be drained from any thread (one thread at
// a time).
#ifndef STPQ_CORE_EXEC_SESSION_H_
#define STPQ_CORE_EXEC_SESSION_H_

#include <memory>
#include <vector>

#include "core/scratch.h"
#include "storage/buffer_pool.h"
#include "util/metrics.h"
#include "util/thread_annotations.h"

namespace stpq {

/// Owns the buffer pool and traversal buffers of one query execution.
/// One thread at a time.
class ExecutionSession {
 public:
  /// A cold pool over `store` (not owned, must outlive the session).
  explicit ExecutionSession(const PageStore* store)
      : pool_(store), scratch_(pool_) {}

  ExecutionSession(const ExecutionSession&) = delete;
  ExecutionSession& operator=(const ExecutionSession&) = delete;

  /// Reusable traversal buffers for the executing query (DESIGN.md §13),
  /// reading through the session's pool.
  TraversalScratch& scratch() { return scratch_; }

  /// The first page fetch failure of the query, or OK.  A failed fetch
  /// yields an empty node, so a query that saw one has no trustworthy
  /// result; Engine::Execute and the cursor return this.
  [[nodiscard]] Status status() const { return pool_.status(); }
  /// Whether status() is not OK, without building it.
  [[nodiscard]] bool failed() const { return pool_.failed(); }

  /// Writes this session's I/O counters into `stats` (overwriting the
  /// read/hit fields; the algorithm counters are untouched).
  void ExportIoCounters(QueryStats& stats) const {
    const BufferPoolStats io = pool_.stats();
    stats.object_index_reads = io.reads - io.feature_reads;
    stats.feature_index_reads = io.feature_reads;
    stats.buffer_hits = io.hits;
  }

 private:
  BufferPool pool_;
  TraversalScratch scratch_;
};

/// An engine's idle execution sessions (DESIGN.md §11, §13).  Execute
/// leases one for the duration of a query and hands it back, so the
/// sessions' buffers are reused instead of reallocated.  The pool holds at
/// most as many sessions as queries ever ran at once on the engine, and
/// each keeps the capacity of the largest query it ran.  Thread-safe.
class SessionPool {
 public:
  /// Sessions get a pool over `store` (not owned, must outlive the
  /// SessionPool).
  explicit SessionPool(const PageStore* store) : store_(store) {}

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// RAII: an idle session (or a new one when none is idle), returned to
  /// the pool on destruction.
  class Lease {
   public:
    explicit Lease(SessionPool* pool)
        : pool_(pool), session_(pool->Take()) {}
    ~Lease() { pool_->Put(std::move(session_)); }

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ExecutionSession& session() { return *session_; }

   private:
    SessionPool* pool_;
    std::unique_ptr<ExecutionSession> session_;
  };

 private:
  std::unique_ptr<ExecutionSession> Take() STPQ_EXCLUDES(mu_) {
    std::unique_ptr<ExecutionSession> session;
    {
      MutexLock lock(mu_);
      if (!idle_.empty()) {
        session = std::move(idle_.back());
        idle_.pop_back();
      }
    }
    if (session == nullptr) {
      // First use, or more queries in flight than ever before.
      session = std::make_unique<ExecutionSession>(store_);
    }
    return session;
  }

  void Put(std::unique_ptr<ExecutionSession> session) STPQ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    idle_.push_back(std::move(session));
  }

  const PageStore* store_;
  Mutex mu_;
  std::vector<std::unique_ptr<ExecutionSession>> idle_ STPQ_GUARDED_BY(mu_);
};

}  // namespace stpq

#endif  // STPQ_CORE_EXEC_SESSION_H_
