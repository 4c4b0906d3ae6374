// The buffer pool: an LRU cache of index pages in front of a PageStore.
//
// The paper evaluates over "large disk-resident data" and reports execution
// time split into I/O and CPU.  Every charged node access goes through a
// BufferPool: a miss counts as one page read (one I/O) and fetches the
// page from the pool's PageStore into a frame; a hit is served from the
// frame.  Benchmarks convert page reads to I/O time with a configurable
// per-read unit cost, reproducing the paper's dark/white bar breakdown.
//
// Access returns a PageView: the frame's page bytes — a view into the
// store's memory (the in-memory page array, the file mapping) or into a
// buffer the frame owns (pread) — with the frame pinned until the view is
// destroyed.  A pinned page is never evicted, so LRU eviction cannot
// recycle bytes a traversal is reading.  A pool whose every frame is
// pinned reads the new page through without caching it.
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
// Concurrency model (DESIGN.md §11).  A pool is single-threaded: each query
// reads through the two pools its ExecutionSession owns, so no pool is
// ever reached from two threads at once and none takes a lock.  What
// threads share is the PageStore under the pools, which is thread-safe.
//
// Failure.  A fetch the store cannot serve yields an empty view carrying
// the failure.  The failed frame is not admitted: like a read-through it
// is freed with its view, so the next access fetches the page again and a
// transient read error does not outlive the query that hit it.  The pool
// records the first failure since Reset as a typed Status (status()),
// which Engine::Execute returns instead of a result.
#ifndef STPQ_STORAGE_BUFFER_POOL_H_
#define STPQ_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "util/attributes.h"
#include "util/status.h"

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

/// Largest page: 256 times the default, and far above any fan-out the
/// paper's experiments use.  Bounds every node slot and page buffer.
inline constexpr uint32_t kMaxPageSizeBytes = uint32_t{1} << 20;

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
  bool hit_ = false;
};

/// LRU page cache.  capacity_pages == 0 means "unbounded": every page is
/// read from disk exactly once and then pinned forever (an infinite cache).
/// Not thread-safe: one thread at a time (see the file comment).
class BufferPool {
 public:
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
  /// displaced.  A failed fetch is counted as a read but never admitted;
  /// the first one since Reset sets status().
  STPQ_HOT PageView Access(PageId page);

  /// Drops all cached pages (simulates a cold cache between workloads).
  /// Must not be called with outstanding views.
  void Clear();

  /// Resets the counters without dropping pages.
  void ResetStats();

  /// Readies the pool for another query: Clear, ResetStats and forget the
  /// recorded fetch failure.  Frames, page buffers and page-table slots
  /// are kept, so refilling the pool does not allocate.
  void Reset();

  /// Counter snapshot.
  BufferPoolStats stats() const { return {reads_, hits_}; }

  /// The first fetch failure since Reset, as a typed Status (IoError or
  /// Corruption); OK when every fetch succeeded.  Cold: builds the message.
  [[nodiscard]] Status status() const;
  /// Whether a fetch failed since Reset (allocation-free status().ok()).
  [[nodiscard]] bool failed() const { return fault_.failed(); }

  [[nodiscard]] uint64_t capacity_pages() const { return capacity_; }
  /// The store serving misses, or nullptr (a counting-only pool).
  [[nodiscard]] PageStore* page_store() const { return store_; }
  [[nodiscard]] uint64_t resident_pages() const { return chain_size_; }
  /// Resident frames with pins > 0 (a walk of the LRU chain; cold).
  [[nodiscard]] uint64_t pinned_pages() const;

  /// Deliberate-corruption backdoor for invariant tests; never used by
  /// library code.
  struct Corrupter;

 private:
  friend Status ValidateBufferPool(const BufferPool& pool);
  friend struct Corrupter;
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

  /// Access body: finds or admits `page` and pins its frame once for the
  /// caller; returns the frame index.
  STPQ_HOT uint32_t PinInternal(PageId page, bool* hit);

  /// Drops one pin of frame `f`; a detached frame returns to the free list
  /// with its last pin.
  inline void UnpinInternal(uint32_t f);

  /// Evicts the least recently used unpinned page.  When every resident
  /// page is pinned, detaches `admitted` — the page just admitted, pinned
  /// by its view — instead: the read-through case.
  void EvictOneUnpinned(uint32_t admitted);

  // Intrusive-chain helpers.
  void Unlink(uint32_t f);
  void LinkFront(uint32_t f);
  /// Pops the free list or grows frames_.
  uint32_t AcquireFrame();
  /// Pushes a frame on the free list.
  void ReleaseFrame(uint32_t f);

  uint64_t capacity_;
  /// Physical backend (null = simulated).
  PageStore* store_;
  /// static_cast<uint8_t>(store_->backend()), or 0 when store_ is null;
  /// stamped into kPoolMiss trace events as arg_a.
  uint8_t backend_tag_;
  uint64_t reads_ = 0;
  uint64_t hits_ = 0;
  /// First fetch failure since Reset.
  FetchFault fault_;
  /// Total pages ever admitted to the pool; unlike the stats counters this
  /// is never reset, so `resident_pages() <= lifetime_admissions_` is an
  /// invariant that ValidateBufferPool can check across
  /// ResetStats()/Clear() calls.
  uint64_t lifetime_admissions_ = 0;
  std::vector<Frame> frames_;
  std::vector<FramePage> frame_pages_;
  /// Most recently used.
  uint32_t head_ = kNilFrame;
  /// Least recently used.
  uint32_t tail_ = kNilFrame;
  /// Free list, singly linked via next.
  uint32_t free_head_ = kNilFrame;
  /// Resident frames in the LRU chain.
  uint64_t chain_size_ = 0;
  PageTable table_;
};

inline void BufferPool::UnpinInternal(uint32_t f) {
  Frame& frame = frames_[f];
  if (--frame.pins == 0 && frame.detached) ReleaseFrame(f);
}

inline void PageView::Release() {
  if (pool_ == nullptr) return;
  pool_->UnpinInternal(frame_);
  pool_ = nullptr;
}

/// Deep structural check (also declared in debug/validate.h): LRU-chain
/// link and page-table bijection, pin-count consistency, capacity and
/// admission-counter invariants.  Returns a Status naming the first
/// violation.
[[nodiscard]] Status ValidateBufferPool(const BufferPool& pool);

struct BufferPool::Corrupter {
  /// Breaks the frame/page-table bijection: the LRU chain keeps the page
  /// but the table forgets it.
  static void DropTableEntry(BufferPool* pool, PageId page) {
    pool->table_.Erase(page);
  }
  /// Breaks the intrusive chain: the LRU tail's back-link points at
  /// itself instead of its predecessor.
  static void BreakLruBackLink(BufferPool* pool) {
    if (pool->tail_ != kNilFrame) {
      pool->frames_[pool->tail_].prev = pool->tail_;
    }
  }
  /// Rewinds the lifetime admission counter below the resident count.
  static void RewindAdmissions(BufferPool* pool) {
    pool->lifetime_admissions_ = 0;
  }
};

}  // namespace stpq

#endif  // STPQ_STORAGE_BUFFER_POOL_H_
