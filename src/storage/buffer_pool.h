// Simulated disk-resident storage: an LRU buffer pool over index pages.
//
// The paper evaluates over "large disk-resident data" and reports execution
// time split into I/O and CPU.  Index nodes in this library live in memory,
// but every node access is charged through a BufferPool: a miss counts as
// one page read (one I/O), a hit is free.  Benchmarks convert page reads to
// I/O time with a configurable per-read unit cost, reproducing the paper's
// dark/white bar breakdown without a physical disk.
//
// Pages can be pinned: a pinned page is never evicted, so callers that hold
// references into a frame across other accesses (future iterator/cursor
// work) keep their page resident.  Pinning is fallible — a pool whose every
// frame is pinned reports FailedPrecondition instead of evicting or
// crashing.
//
// Representation (DESIGN.md §13).  The pool is an intrusive doubly linked
// LRU chain threaded through a frame array (index-based prev/next links,
// pin count inline) plus an open-addressing page table mapping PageId to
// frame index.  Hits, misses, admissions and evictions are all O(1) with
// no per-operation allocation: evicted frames go on a free list and are
// reused in place, so a bounded pool allocates at most capacity+1 frames
// over its whole lifetime.  The observable behavior — exact LRU eviction
// order, pin/read-through semantics, every counter — is identical to the
// previous std::list + unordered_map implementation; the golden I/O test
// pins that equivalence.
//
// Concurrency model (DESIGN.md §11).  The shared LRU state is protected by
// a mutex, so direct Access/Pin/Clear calls are safe from any thread.  The
// hit/read counters are relaxed atomics written under the mutex, which
// makes stats() lock-free.  Query execution never contends on the mutex in
// the default configuration: each query binds a BufferPool::Session to its
// thread (see ScopedBind), and Access() charges the session instead of the
// pool.  An *isolated* session simulates its own private cold pool of the
// same capacity — no shared mutation at all (the private pool skips the
// mutex entirely; the session is single-threaded by construction), and
// page-read counts that are byte-identical to a sequential
// cold_cache_per_query run regardless of how many sessions run in
// parallel.  A *shared* session routes through the locked pool (pages stay
// warm across queries) and records the hits and misses attributable to
// this session; those counts then depend on cross-query interleaving,
// exactly as a physical warm cache would.
#ifndef STPQ_STORAGE_BUFFER_POOL_H_
#define STPQ_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/attributes.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace stpq {

class PageStore;

using PageId = uint64_t;

/// Default simulated page size; node fan-out is derived from it.
inline constexpr uint32_t kDefaultPageSizeBytes = 4096;

/// Smallest page that holds the 16-byte node header plus at least one
/// 2-D entry (rect + id).  Fan-out is clamped to >= 4 anyway, but a page
/// below this is a configuration error, not a layout choice.
inline constexpr uint32_t kMinPageSizeBytes = 64;

/// Page-id namespace stride between indexes sharing one pool (and one
/// PageStore).  Node id == offset within the index's range, which the
/// persisted file format relies on.
inline constexpr PageId kIndexPageStride = PageId{1} << 32;

/// First page id of tree `tree` in the engine's page-id namespace.  Tree 0
/// is the object index, which owns pages [0, stride); tree i + 1 is
/// feature index i, which owns [stride * (i + 1), stride * (i + 2)).
inline PageId TreePageBase(uint64_t tree) { return kIndexPageStride * tree; }

/// Counters exposed by a BufferPool.
struct BufferPoolStats {
  uint64_t reads = 0;  ///< misses: simulated page reads from disk
  uint64_t hits = 0;   ///< accesses served from the pool

  /// Per-field saturating difference: subtracting a *newer* snapshot from
  /// an older one (a caller bug, or counters reset between snapshots)
  /// yields 0 instead of wrapping around to ~2^64 bogus reads.
  BufferPoolStats operator-(const BufferPoolStats& other) const {
    return {reads >= other.reads ? reads - other.reads : 0,
            hits >= other.hits ? hits - other.hits : 0};
  }
};

/// LRU page cache.  capacity_pages == 0 means "unbounded": every page is
/// read from disk exactly once and then pinned forever (an infinite cache).
class BufferPool {
 public:
  class Session;
  class ScopedBind;

  /// `store`, when non-null, is the physical backend: every miss triggers
  /// one PageStore::FetchPage after it has been counted, so hit/miss/evict
  /// accounting is identical across backends.  A null store is the
  /// simulated default (a miss is only a counter tick).  The store must
  /// outlive the pool and may be shared between pools.
  explicit BufferPool(uint64_t capacity_pages = 0, PageStore* store = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Touches `page`; returns true on a hit, false on a miss (a simulated
  /// disk read).  On a miss the page is admitted, evicting the least
  /// recently used *unpinned* page if the pool is full; when every other
  /// resident page is pinned the new page itself is dropped again (an
  /// uncached read-through), so pinned residents are never displaced.
  ///
  /// When a Session is bound to the calling thread (ScopedBind), the access
  /// is charged to the session instead; see the class comment.
  STPQ_HOT bool Access(PageId page) STPQ_EXCLUDES(mu_);

  /// Ensures `page` is resident (counting the read on a miss) and pins it.
  /// Pins nest: each Pin must be matched by one Unpin.  Fails with
  /// FailedPrecondition when the pool is full and every frame is pinned.
  /// Always operates on the shared pool, never on a bound session (the
  /// query path does not pin; pinning is a direct-pool API).
  [[nodiscard]] Status Pin(PageId page) STPQ_EXCLUDES(mu_);

  /// Releases one pin on `page`; fails if the page is not pinned.
  [[nodiscard]] Status Unpin(PageId page) STPQ_EXCLUDES(mu_);

  /// Drops all cached pages (simulates a cold cache between workloads).
  /// Must not be called with outstanding pins.
  void Clear() STPQ_EXCLUDES(mu_);

  /// Resets the counters without dropping pages.
  void ResetStats() STPQ_EXCLUDES(mu_);

  /// Counter snapshot.  With a Session bound to the calling thread this
  /// returns the *session's* counters, so code computing read deltas (e.g.
  /// Voronoi cell accounting) attributes I/O to the executing query.
  /// Lock-free on the shared pool (the counters are atomics).
  BufferPoolStats stats() const;

  [[nodiscard]] uint64_t capacity_pages() const { return capacity_; }
  /// The physical backend serving misses, or nullptr (simulated).
  [[nodiscard]] PageStore* page_store() const { return store_; }
  [[nodiscard]] uint64_t resident_pages() const STPQ_EXCLUDES(mu_);
  [[nodiscard]] uint64_t pinned_pages() const STPQ_EXCLUDES(mu_);

  /// Current pin count of `page` (0 when unpinned or not resident).
  [[nodiscard]] uint32_t PinCount(PageId page) const STPQ_EXCLUDES(mu_);

  /// Deliberate-corruption backdoor for invariant tests; never used by
  /// library code.
  struct Corrupter;

 private:
  friend Status ValidateBufferPool(const BufferPool& pool);
  friend struct Corrupter;
  friend class Session;

  /// Sentinel frame index: chain terminator / empty page-table slot.
  static constexpr uint32_t kNilFrame = 0xffffffffu;

  /// One page frame.  `prev`/`next` thread the frame through either the
  /// LRU chain (resident frames) or the free list (`next` only).
  struct Frame {
    PageId page = 0;
    uint32_t prev = kNilFrame;
    uint32_t next = kNilFrame;
    uint32_t pins = 0;
  };

  /// Open-addressing PageId -> frame-index map: linear probing over a
  /// power-of-two slot array, backward-shift deletion (no tombstones).
  /// Never shrinks, and Clear() keeps the slot array, so a warm pool
  /// re-fills without allocating.
  class PageTable {
   public:
    /// Frame index for `page`, or kNilFrame when absent.
    uint32_t Find(PageId page) const;
    /// `page` must not be present.
    void Insert(PageId page, uint32_t frame);
    /// No-op when `page` is absent (Corrupter uses that leniency).
    void Erase(PageId page);
    void Clear();
    [[nodiscard]] size_t size() const { return size_; }

   private:
    struct Slot {
      PageId page = 0;
      uint32_t frame = kNilFrame;  ///< kNilFrame marks an empty slot
    };

    static uint64_t Hash(PageId page);
    void Grow();

    std::vector<Slot> slots_;  ///< power-of-two size; empty until first use
    size_t size_ = 0;
  };

  /// The session bound to this pool on the calling thread, or nullptr.
  Session* CurrentSession() const;

  /// Shared-pool access under the mutex (the pre-session code path).
  STPQ_HOT bool AccessLocked(PageId page) STPQ_EXCLUDES(mu_);

  /// Access body; callers hold mu_ (AccessSingleThreaded is the one
  /// audited exception for exclusively owned private pools).
  STPQ_HOT bool AccessInternal(PageId page) STPQ_REQUIRES(mu_);

  /// AccessInternal on a pool that is single-threaded by construction (an
  /// isolated session's private pool, reachable only through the owning
  /// thread's binding): skips the mutex, so the thread-safety analysis is
  /// disabled at exactly this boundary instead of being silenced at every
  /// touched member.
  STPQ_HOT bool AccessSingleThreaded(PageId page)
      STPQ_NO_THREAD_SAFETY_ANALYSIS;

  /// Evicts the least recently used unpinned page (possibly the page that
  /// was just admitted, which is the read-through case).  Same locking
  /// contract as AccessInternal.
  void EvictOneUnpinned() STPQ_REQUIRES(mu_);

  // Intrusive-chain helpers; same locking contract as AccessInternal.
  void Unlink(uint32_t f) STPQ_REQUIRES(mu_);
  void LinkFront(uint32_t f) STPQ_REQUIRES(mu_);
  /// Pops the free list or grows frames_.
  uint32_t AcquireFrame() STPQ_REQUIRES(mu_);
  /// Pushes a frame on the free list.
  void ReleaseFrame(uint32_t f) STPQ_REQUIRES(mu_);

  mutable Mutex mu_;
  uint64_t capacity_;
  /// Physical backend (null = simulated).  Immutable after construction,
  /// so the miss path reads it without the lock's protection mattering.
  PageStore* store_;
  /// static_cast<uint8_t>(store_->backend()), or 0 when store_ is null;
  /// stamped into kPoolMiss trace events as arg_a.
  uint8_t backend_tag_;
  /// Counters are atomics so stats() is lock-free; every writer runs under
  /// mu_ (or single-threaded, for isolated-session private pools), so
  /// relaxed ordering suffices.
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> hits_{0};
  /// Total pages ever admitted to the pool; unlike the stats counters this
  /// is never reset, so `resident_pages() <= lifetime_admissions_` is an
  /// invariant that ValidateBufferPool can check across
  /// ResetStats()/Clear() calls.
  uint64_t lifetime_admissions_ STPQ_GUARDED_BY(mu_) = 0;
  std::vector<Frame> frames_ STPQ_GUARDED_BY(mu_);
  /// Most recently used.
  uint32_t head_ STPQ_GUARDED_BY(mu_) = kNilFrame;
  /// Least recently used.
  uint32_t tail_ STPQ_GUARDED_BY(mu_) = kNilFrame;
  /// Free list, singly linked via next.
  uint32_t free_head_ STPQ_GUARDED_BY(mu_) = kNilFrame;
  /// Resident frames in the LRU chain.
  uint64_t chain_size_ STPQ_GUARDED_BY(mu_) = 0;
  /// Resident frames with pins > 0.
  uint64_t pinned_count_ STPQ_GUARDED_BY(mu_) = 0;
  PageTable table_ STPQ_GUARDED_BY(mu_);
};

/// Per-query read accounting against one shared pool (see the BufferPool
/// class comment).  A session is single-threaded by construction: it is
/// only reachable through the thread-local ScopedBind of the thread
/// executing the query, so its counters (and its private pool, in isolated
/// mode) need no synchronization.
class BufferPool::Session {
 public:
  /// `shared` must outlive the session.  `isolated` selects the private
  /// cold-pool mode (deterministic counts, zero shared-state contention);
  /// otherwise accesses go through the locked shared pool and this session
  /// records its own share of the traffic.  Only an isolated session
  /// allocates a private pool; shared-mode sessions carry two counters and
  /// two pointers, nothing else.
  Session(BufferPool* shared, bool isolated)
      : shared_(shared),
        isolated_(isolated),
        private_pool_(isolated ? std::make_unique<BufferPool>(
                                     shared->capacity_pages(),
                                     shared->page_store())
                               : nullptr) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Charges one page access to this session; returns true on a hit.
  STPQ_HOT bool Access(PageId page);

  /// Forgets the session's traffic so it can account for another query:
  /// zeroes the counters and empties an isolated session's private pool
  /// (Clear + ResetStats; its frames and page-table slots are kept, so
  /// refilling it does not allocate).
  void Reset();

  /// Pages read (misses) and hits charged to this session so far.
  BufferPoolStats stats() const;

  [[nodiscard]] bool isolated() const { return isolated_; }
  [[nodiscard]] BufferPool* shared_pool() const { return shared_; }

  /// Whether the private cold pool exists (isolated mode only; test hook
  /// for "shared sessions allocate no private pool").
  [[nodiscard]] bool has_private_pool() const {
    return private_pool_ != nullptr;
  }

 private:
  friend class BufferPool::ScopedBind;

  BufferPool* shared_;
  bool isolated_;
  /// Isolated mode: same capacity as the shared pool, starts cold.
  std::unique_ptr<BufferPool> private_pool_;
  BufferPoolStats stats_;  ///< shared mode: this session's traffic
};

/// RAII thread-local binding: while alive, Access()/stats() calls on the
/// session's shared pool made *from this thread* are routed to the session.
/// Bindings nest LIFO (e.g. a cursor drained inside another query's scope);
/// the innermost binding for a given pool wins.
class BufferPool::ScopedBind {
 public:
  explicit ScopedBind(Session* session);
  ~ScopedBind();

  ScopedBind(const ScopedBind&) = delete;
  ScopedBind& operator=(const ScopedBind&) = delete;
};

/// Deep structural check (also declared in debug/validate.h): LRU-chain
/// link and page-table bijection, pin-count consistency, capacity and
/// admission-counter invariants.  Returns a Status naming the first
/// violation.  Only meaningful on a quiescent pool (no concurrent
/// accessors).
[[nodiscard]] Status ValidateBufferPool(const BufferPool& pool);

// The corrupters mutate guarded state without the lock by design: they run
// on quiescent pools in invariant tests, and taking the mutex would hide
// exactly the raw-state damage they exist to inflict.
struct BufferPool::Corrupter {
  /// Breaks the frame/page-table bijection: the LRU chain keeps the page
  /// but the table forgets it.
  static void DropTableEntry(BufferPool* pool,
                             PageId page) STPQ_NO_THREAD_SAFETY_ANALYSIS {
    pool->table_.Erase(page);
  }
  /// Breaks the intrusive chain: the LRU tail's back-link points at
  /// itself instead of its predecessor.
  static void BreakLruBackLink(BufferPool* pool)
      STPQ_NO_THREAD_SAFETY_ANALYSIS {
    if (pool->tail_ != kNilFrame) {
      pool->frames_[pool->tail_].prev = pool->tail_;
    }
  }
  /// Rewinds the lifetime admission counter below the resident count.
  static void RewindAdmissions(BufferPool* pool)
      STPQ_NO_THREAD_SAFETY_ANALYSIS {
    pool->lifetime_admissions_ = 0;
  }
};

}  // namespace stpq

#endif  // STPQ_STORAGE_BUFFER_POOL_H_
