// ExecutionSession: all per-query mutable engine state, as one object.
//
// A fully built Engine is immutable; everything a single Execute/cursor
// call mutates — search heaps, combination iterators, QueryStats, and the
// simulated-I/O accounting — must live on the call's own stack or in this
// session object.  The heaps and iterators are naturally local to the
// algorithms; the I/O accounting is not, because index node reads charge
// the engine's shared BufferPools from deep inside the read path.  The
// session closes that gap: it owns one BufferPool::Session per pool
// (object index + feature indexes) and a Scope that routes the executing
// thread's page accesses to them, so N concurrent queries each see their
// own counters (DESIGN.md §11).
//
// Execute leases a session from the engine's SessionPool and returns it
// afterwards, so the session's scratch buffers (and its private pools'
// frames and page-table slots) carry their capacity from one query to the
// next: a warm query allocates nothing but the entries it returns.  Cursors
// own a session for their whole lifetime, binding it during each Next() so
// a cursor can outlive the query that opened it and be drained from any
// thread (one thread at a time).
#ifndef STPQ_CORE_EXEC_SESSION_H_
#define STPQ_CORE_EXEC_SESSION_H_

#include <memory>
#include <vector>

#include "core/scratch.h"
#include "storage/buffer_pool.h"
#include "util/metrics.h"
#include "util/thread_annotations.h"

namespace stpq {

/// Owns the per-query buffer-pool accounting for one query execution.
class ExecutionSession {
 public:
  /// `object_pool` / `feature_pool` are the engine's shared pools (not
  /// owned, must outlive the session).  `isolated` mirrors
  /// EngineOptions::cold_cache_per_query: isolated sessions count distinct
  /// pages against a private cold pool (deterministic under concurrency);
  /// shared sessions keep the engine pools warm across queries.
  ExecutionSession(BufferPool* object_pool, BufferPool* feature_pool,
                   bool isolated)
      : object_session_(object_pool, isolated),
        feature_session_(feature_pool, isolated) {}

  ExecutionSession(const ExecutionSession&) = delete;
  ExecutionSession& operator=(const ExecutionSession&) = delete;

  /// RAII: while alive, this thread's accesses to both engine pools are
  /// charged to this session.  Scopes nest LIFO; never bind the same
  /// session on two threads at once.
  class Scope {
   public:
    explicit Scope(ExecutionSession* session)
        : object_bind_(&session->object_session_),
          feature_bind_(&session->feature_session_) {}

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BufferPool::ScopedBind object_bind_;
    BufferPool::ScopedBind feature_bind_;
  };

  /// Reusable traversal buffers for the executing query (DESIGN.md §13).
  /// Same threading contract as the pool sessions: one query, one thread
  /// at a time.
  TraversalScratch& scratch() { return scratch_; }

  /// Readies the session for another query: zeroes both pool sessions'
  /// counters and errors and empties their private cold pools, keeping
  /// frames, page buffers and page-table slots.  The scratch needs no
  /// reset — every user clears what it borrows.
  void Reset() {
    object_session_.Reset();
    feature_session_.Reset();
  }

  /// The first page fetch failure of the query (object pool first), or OK.
  /// A failed fetch yields an empty node, so a query that saw one has no
  /// trustworthy result; Engine::Execute and the cursor return this.
  [[nodiscard]] Status status() const {
    Status object = object_session_.status();
    return object.ok() ? feature_session_.status() : object;
  }
  /// Whether status() is not OK, without building it.
  [[nodiscard]] bool failed() const {
    return object_session_.failed() || feature_session_.failed();
  }

  /// Writes this session's I/O counters into `stats` (overwriting the
  /// read/hit fields; the algorithm counters are untouched).
  void ExportIoCounters(QueryStats& stats) const {
    const BufferPoolStats obj = object_session_.stats();
    const BufferPoolStats feat = feature_session_.stats();
    stats.object_index_reads = obj.reads;
    stats.feature_index_reads = feat.reads;
    stats.buffer_hits = obj.hits + feat.hits;
  }

 private:
  BufferPool::Session object_session_;
  BufferPool::Session feature_session_;
  TraversalScratch scratch_;
};

/// An engine's idle execution sessions (DESIGN.md §11, §13).  Execute
/// leases one for the duration of a query and hands it back, so the
/// sessions' buffers are reused instead of reallocated.  The pool holds at
/// most as many sessions as queries ever ran at once on the engine, and
/// each keeps the capacity of the largest query it ran.  Thread-safe.
class SessionPool {
 public:
  /// Sessions are created over the engine's pools (not owned, must outlive
  /// the SessionPool) in the engine's cold-cache mode.
  SessionPool(BufferPool* object_pool, BufferPool* feature_pool,
              bool isolated)
      : object_pool_(object_pool),
        feature_pool_(feature_pool),
        isolated_(isolated) {}

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// RAII: an idle session, reset for a new query (or a new session when
  /// none is idle), returned to the pool on destruction.
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
      return std::make_unique<ExecutionSession>(object_pool_, feature_pool_,
                                                isolated_);
    }
    session->Reset();
    return session;
  }

  void Put(std::unique_ptr<ExecutionSession> session) STPQ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    idle_.push_back(std::move(session));
  }

  BufferPool* object_pool_;
  BufferPool* feature_pool_;
  bool isolated_;
  Mutex mu_;
  std::vector<std::unique_ptr<ExecutionSession>> idle_ STPQ_GUARDED_BY(mu_);
};

}  // namespace stpq

#endif  // STPQ_CORE_EXEC_SESSION_H_
