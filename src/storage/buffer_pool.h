// The buffer pool: an LRU cache of index pages in front of a PageStore.
//
// The paper evaluates over "large disk-resident data" and reports execution
// time split into I/O and CPU.  Every node access goes through a
// BufferPool: a miss counts as one page read (one I/O) and fetches the
// page from the pool's PageStore into a frame; a hit is served from the
// frame.  Benchmarks convert page reads to I/O time with a configurable
// per-read unit cost, reproducing the paper's dark/white bar breakdown.
//
// Access returns a PageView: the frame's page bytes — a view into the
// store's memory (the in-memory page array, the file mapping) or into a
// buffer the frame owns (pread) — with the frame pinned until the view is
// destroyed.  A pinned page is never evicted, so neither LRU eviction nor
// a concurrent shared-pool session can recycle bytes a traversal is
// reading.  A pool whose every frame is pinned reads the new page through
// without caching it.
//
// Representation (DESIGN.md §13).  The pool is an intrusive doubly linked
// LRU chain threaded through a frame array (index-based prev/next links,
// pin count inline) plus an open-addressing page table mapping PageId to
// frame index.  Hits, misses, admissions and evictions are all O(1) with
// no per-operation allocation: evicted frames go on a free list and are
// reused in place (with their page buffers), so a bounded pool allocates
// at most capacity+1 frames over its whole lifetime.  The golden I/O test
// pins the exact LRU eviction order and every counter.
//
// Concurrency model (DESIGN.md §11).  The shared LRU state is protected by
// a mutex, so direct Access/Clear calls are safe from any thread.  The
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
//
// Failure.  A fetch the store cannot serve yields an empty view carrying
// the failure.  The failed frame is not admitted: like a read-through it
// is freed with its view, so the next access fetches the page again and a
// transient read error does not outlive the query that hit it.  A session
// records the first failure of its query as a typed Status
// (Session::status), which Engine::Execute returns instead of a result.
#ifndef STPQ_STORAGE_BUFFER_POOL_H_
#define STPQ_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/attributes.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace stpq {

class BufferPool;
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

/// Why a page fetch failed.  Plain data, so the fetch path records it
/// without allocating; PageStore::FaultStatus turns it into a Status.
struct FetchFault {
  enum Kind : uint8_t {
    kNone = 0,
    kUnmappedPage = 1,  ///< the page is outside every extent of the store
    kPreadFailed = 2,   ///< pread returned -1 (`err` holds errno)
    kTornPage = 3,      ///< EOF before the slot was fully read
  };
  Kind kind = kNone;
  int err = 0;
  PageId page = 0;

  [[nodiscard]] bool failed() const { return kind != kNone; }
};

/// The bytes of one page as a reader sees them.  A view handed out by a
/// BufferPool pins its frame until the view is destroyed (or moved from),
/// so the bytes stay valid while the reader holds it.  A view may also be
/// unpooled: bytes read straight from a store, kept alive by `owned` when
/// the store had to copy them.  An empty view has no bytes: a page that
/// could not be fetched (see fault()) or a pool without a store.
class PageView {
 public:
  PageView() = default;
  /// A view of `bytes` that outlive it (no pool, nothing owned).
  explicit PageView(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  /// Reads `page` from `store` outside any pool, into a buffer the view
  /// owns when the store keeps no copy of the page (pread).
  static PageView Unpooled(const PageStore& store, PageId page);

  PageView(PageView&& other) noexcept
      : bytes_(other.bytes_),
        fault_(other.fault_),
        owned_(std::move(other.owned_)),
        pool_(other.pool_),
        frame_(other.frame_),
        locked_(other.locked_),
        hit_(other.hit_) {
    other.pool_ = nullptr;
  }
  PageView& operator=(PageView&& other) noexcept {
    if (this != &other) {
      Release();
      bytes_ = other.bytes_;
      fault_ = other.fault_;
      owned_ = std::move(other.owned_);
      pool_ = other.pool_;
      frame_ = other.frame_;
      locked_ = other.locked_;
      hit_ = other.hit_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  PageView(const PageView&) = delete;
  PageView& operator=(const PageView&) = delete;
  ~PageView() { Release(); }

  [[nodiscard]] std::span<const uint8_t> bytes() const { return bytes_; }
  /// Whether the pool served the page from a resident frame.
  [[nodiscard]] bool hit() const { return hit_; }
  /// Why the page has no bytes, when its fetch failed.
  [[nodiscard]] const FetchFault& fault() const { return fault_; }

 private:
  friend class BufferPool;

  /// Unpins the frame (pooled views); a no-op for unpooled ones.
  inline void Release();

  std::span<const uint8_t> bytes_;
  FetchFault fault_;
  std::vector<uint8_t> owned_;
  BufferPool* pool_ = nullptr;  ///< pool whose frame this view pins
  uint32_t frame_ = 0;
  bool locked_ = false;  ///< unpin under the pool mutex (shared pools)
  bool hit_ = false;
};

/// LRU page cache.  capacity_pages == 0 means "unbounded": every page is
/// read from disk exactly once and then pinned forever (an infinite cache).
class BufferPool {
 public:
  class Session;
  class ScopedBind;

  /// `store`, when non-null, serves the pages: every miss triggers one
  /// PageStore::FetchPage after it has been counted, so hit/miss/evict
  /// accounting is identical across backends.  A pool without a store
  /// only counts (its views have no bytes).  The store must outlive the
  /// pool and may be shared between pools.
  explicit BufferPool(uint64_t capacity_pages = 0, PageStore* store = nullptr);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Reads `page` and returns its view, pinned until the view goes
  /// (PageView::hit() tells a hit from a miss, a disk read).  On a miss
  /// the page is fetched into a frame and admitted, evicting the least
  /// recently used *unpinned* page if the pool is full; when every other
  /// resident page is pinned the new page is read through instead (its
  /// frame is dropped with the view), so pinned residents are never
  /// displaced.  A failed fetch is counted as a read but never admitted.
  ///
  /// When a Session is bound to the calling thread (ScopedBind), the access
  /// is charged to the session instead; see the class comment.
  STPQ_HOT PageView Access(PageId page) STPQ_EXCLUDES(mu_);

  /// Drops all cached pages (simulates a cold cache between workloads).
  /// Must not be called with outstanding views.
  void Clear() STPQ_EXCLUDES(mu_);

  /// Resets the counters without dropping pages.
  void ResetStats() STPQ_EXCLUDES(mu_);

  /// Counter snapshot.  With a Session bound to the calling thread this
  /// returns the *session's* counters, so code computing read deltas (e.g.
  /// Voronoi cell accounting) attributes I/O to the executing query.
  /// Lock-free on the shared pool (the counters are atomics).
  BufferPoolStats stats() const;

  [[nodiscard]] uint64_t capacity_pages() const { return capacity_; }
  /// The store serving misses, or nullptr (a counting-only pool).
  [[nodiscard]] PageStore* page_store() const { return store_; }
  [[nodiscard]] uint64_t resident_pages() const STPQ_EXCLUDES(mu_);
  [[nodiscard]] uint64_t pinned_pages() const STPQ_EXCLUDES(mu_);

  /// Deliberate-corruption backdoor for invariant tests; never used by
  /// library code.
  struct Corrupter;

 private:
  friend Status ValidateBufferPool(const BufferPool& pool);
  friend struct Corrupter;
  friend class Session;
  friend class PageView;

  /// Sentinel frame index: chain terminator / empty page-table slot.
  static constexpr uint32_t kNilFrame = 0xffffffffu;

  /// One page frame.  `prev`/`next` thread the frame through either the
  /// LRU chain (resident frames) or the free list (`next` only); a
  /// detached frame (a read-through, or a failed fetch) is on neither and
  /// goes back to the free list when its last pin goes.
  struct Frame {
    PageId page = 0;
    /// The page's bytes (null when the fetch failed, or without a store):
    /// the store's memory or the frame's buffer.
    const uint8_t* data = nullptr;
    uint32_t size = 0;
    uint32_t prev = kNilFrame;
    uint32_t next = kNilFrame;
    uint32_t pins = 0;
    bool detached = false;
  };

  /// The rest of what frame f holds, at frame_pages_[f]: kept apart from
  /// Frame so the access path reads one compact array.
  struct FramePage {
    FetchFault fault;
    /// Filled by stores that keep no copy of their pages (pread); kept
    /// with the frame on the free list, so refills reuse it.
    std::vector<uint8_t> buffer;
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
  STPQ_HOT PageView AccessLocked(PageId page) STPQ_EXCLUDES(mu_);

  /// Access body: finds or admits `page` and pins its frame once for the
  /// caller; returns the frame index.  Callers hold mu_
  /// (AccessSingleThreaded is the one audited exception for exclusively
  /// owned private pools).
  STPQ_HOT uint32_t PinInternal(PageId page, bool* hit) STPQ_REQUIRES(mu_);

  /// Drops one pin of frame `f`; a detached frame returns to the free list
  /// with its last pin.  Same locking contract as PinInternal.
  inline void UnpinInternal(uint32_t f) STPQ_REQUIRES(mu_);

  /// The view of frame `f`, pinned by PinInternal.
  PageView ViewOf(uint32_t f, bool hit, bool locked) STPQ_REQUIRES(mu_);

  /// Access and view release on a pool that is single-threaded by
  /// construction (an isolated session's private pool, reachable only
  /// through the owning thread's binding): they skip the mutex, so the
  /// thread-safety analysis is disabled at exactly this boundary instead
  /// of being silenced at every touched member.
  STPQ_HOT PageView AccessSingleThreaded(PageId page)
      STPQ_NO_THREAD_SAFETY_ANALYSIS;
  inline void UnpinSingleThreaded(uint32_t f) STPQ_NO_THREAD_SAFETY_ANALYSIS;

  /// Resident frames with pins > 0 (a walk of the LRU chain; cold).
  uint64_t PinnedResidentsLocked() const STPQ_REQUIRES(mu_);

  /// Unpins a view's frame under the mutex (shared pools).
  void UnpinLocked(uint32_t f) STPQ_EXCLUDES(mu_);

  /// Evicts the least recently used unpinned page.  When every resident
  /// page is pinned, detaches `admitted` — the page just admitted, pinned
  /// by its view — instead: the read-through case.  Same locking
  /// contract as PinInternal.
  void EvictOneUnpinned(uint32_t admitted) STPQ_REQUIRES(mu_);

  // Intrusive-chain helpers; same locking contract as PinInternal.
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
  std::vector<FramePage> frame_pages_ STPQ_GUARDED_BY(mu_);
  /// Most recently used.
  uint32_t head_ STPQ_GUARDED_BY(mu_) = kNilFrame;
  /// Least recently used.
  uint32_t tail_ STPQ_GUARDED_BY(mu_) = kNilFrame;
  /// Free list, singly linked via next.
  uint32_t free_head_ STPQ_GUARDED_BY(mu_) = kNilFrame;
  /// Resident frames in the LRU chain.
  uint64_t chain_size_ STPQ_GUARDED_BY(mu_) = 0;
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

  /// Charges one page access to this session and returns the page's
  /// view.  A failed fetch yields an empty view and, if it is the first
  /// failure since Reset, sets status().
  STPQ_HOT PageView Access(PageId page);

  /// Forgets the session's traffic so it can account for another query:
  /// zeroes the counters, clears status() and empties an isolated
  /// session's private pool (Clear + ResetStats; its frames, page buffers
  /// and page-table slots are kept, so refilling it does not allocate).
  void Reset();

  /// Pages read (misses) and hits charged to this session so far.
  BufferPoolStats stats() const;

  /// The first fetch failure charged to this session since Reset, as a
  /// typed Status (IoError or Corruption); OK when every fetch succeeded.
  /// Cold: builds the message.
  [[nodiscard]] Status status() const;
  /// Whether a fetch failed since Reset (allocation-free status().ok()).
  [[nodiscard]] bool failed() const { return fault_.failed(); }

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
  FetchFault fault_;       ///< first fetch failure since Reset
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

inline void BufferPool::UnpinInternal(uint32_t f) {
  Frame& frame = frames_[f];
  if (--frame.pins == 0 && frame.detached) ReleaseFrame(f);
}

inline void BufferPool::UnpinSingleThreaded(uint32_t f) {
  // See AccessSingleThreaded: the private pool has one thread.
  UnpinInternal(f);
}

inline void PageView::Release() {
  if (pool_ == nullptr) return;
  if (locked_) {
    pool_->UnpinLocked(frame_);
  } else {
    pool_->UnpinSingleThreaded(frame_);
  }
  pool_ = nullptr;
}

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
