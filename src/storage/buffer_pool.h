// The buffer pool: one query's page table in front of a PageStore.
//
// The paper evaluates over "large disk-resident data" and reports execution
// time split into I/O and CPU.  Every charged node access goes through a
// BufferPool, and every query starts on a cold pool: the first access to a
// page counts as one page read (one I/O) and fetches the page from the
// pool's PageStore into a frame; every later access is a hit served from
// the frame.  So a query's reads are the distinct pages it touches.
// Benchmarks convert page reads to I/O time with a configurable per-read
// unit cost, reproducing the paper's dark/white bar breakdown.
//
// Access returns a PageView of the frame's page bytes: a view into the
// store's memory (the in-memory page array, the file mapping) or into a
// buffer the frame owns (pread).  Nothing is evicted within a query, so
// the bytes stay valid until the pool's next Reset.
//
// Representation (DESIGN.md §13).  A frame array plus an open-addressing
// page table mapping PageId to frame index.  Hits and misses are O(1);
// Reset forgets every page but keeps the frames, their page buffers and
// the table's slots, so a warm query refills the pool without allocating.
//
// Concurrency model (DESIGN.md §11).  A pool is single-threaded: each query
// reads through the one pool its ExecutionSession owns, so no pool is
// ever reached from two threads at once and none takes a lock.  What
// threads share is the PageStore under the pools, which is thread-safe.
//
// Failure.  A fetch the store cannot serve yields an empty view carrying
// the failure.  The failed page is not admitted, so the next access
// fetches it again and a transient read error does not outlive the query
// that hit it.  The pool records the first failure since Reset as a typed
// Status (status()), which Engine::Execute returns instead of a result.
#ifndef STPQ_STORAGE_BUFFER_POOL_H_
#define STPQ_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/attributes.h"
#include "util/status.h"

namespace stpq {

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
  /// The reads of feature-tree pages (ids from TreePageBase(1) up); the
  /// rest are object-tree reads.
  uint64_t feature_reads = 0;
  uint64_t hits = 0;   ///< accesses served from the pool

  /// Per-field saturating difference: subtracting a *newer* snapshot from
  /// an older one (a caller bug, or counters reset between snapshots)
  /// yields 0 instead of wrapping around to ~2^64 bogus reads.
  BufferPoolStats operator-(const BufferPoolStats& other) const {
    auto minus = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
    return {minus(reads, other.reads),
            minus(feature_reads, other.feature_reads),
            minus(hits, other.hits)};
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
/// BufferPool reads its frame, which keeps the page until the pool's next
/// Reset: nothing is evicted within a query, so the bytes outlive the view.
/// A view may also be unpooled: bytes read straight from a store, kept
/// alive by `owned` when the store had to copy them.  An empty view has no
/// bytes: a page that could not be fetched (see fault()).
class PageView {
 public:
  PageView() = default;
  /// A view of `bytes` that outlive it (nothing owned).
  explicit PageView(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  /// Reads `page` from `store` outside any pool, into a buffer the view
  /// owns when the store keeps no copy of the page (pread).
  static PageView Unpooled(const PageStore& store, PageId page);

  // Move-only: a copy of an owning view would view the original's buffer.
  PageView(PageView&&) = default;
  PageView& operator=(PageView&&) = default;
  PageView(const PageView&) = delete;
  PageView& operator=(const PageView&) = delete;

  [[nodiscard]] std::span<const uint8_t> bytes() const { return bytes_; }
  /// Whether the pool served the page from a resident frame.
  [[nodiscard]] bool hit() const { return hit_; }
  /// The pool frame holding the page (a hit, or a miss it admitted): the
  /// same index for every access to the page until the pool's next Reset.
  /// Meaningless for a failed fetch or an unpooled view.
  [[nodiscard]] uint32_t frame() const { return frame_; }
  /// Why the page has no bytes, when its fetch failed.
  [[nodiscard]] const FetchFault& fault() const { return fault_; }

 private:
  friend class BufferPool;

  std::span<const uint8_t> bytes_;
  FetchFault fault_;
  std::vector<uint8_t> owned_;
  uint32_t frame_ = 0;
  bool hit_ = false;
};

/// One query's page table over a PageStore: the first access to a page is
/// a read, every later one a hit.  Not thread-safe: one thread at a time
/// (see the file comment).
class BufferPool {
 public:
  /// Reads through `store`: every miss triggers one PageStore::FetchPage
  /// after it has been counted, so hit/miss accounting is identical
  /// across backends.  The store must be non-null, must outlive the pool,
  /// and may be shared between pools.
  explicit BufferPool(const PageStore* store);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Reads `page` and returns its view (PageView::hit() tells a hit from a
  /// miss, a read).  On a miss the page is fetched into a frame and
  /// admitted.  A failed fetch is counted as a read but never admitted;
  /// the first one since Reset sets status().
  STPQ_HOT PageView Access(PageId page);

  /// Readies the pool for another query: forgets every page, zeroes the
  /// counters and the recorded fetch failure.  Frames, page buffers and
  /// page-table slots are kept, so refilling the pool does not allocate.
  /// Must not be called while a view of the pool is still read.
  void Reset();

  /// Counter snapshot.
  BufferPoolStats stats() const { return {reads_, feature_reads_, hits_}; }

  /// The first fetch failure since Reset, as a typed Status (IoError or
  /// Corruption); OK when every fetch succeeded.  Cold: builds the message.
  [[nodiscard]] Status status() const;
  /// Whether a fetch failed since Reset (allocation-free status().ok()).
  [[nodiscard]] bool failed() const { return fault_.failed(); }

  /// The store serving misses.
  [[nodiscard]] const PageStore& page_store() const { return *store_; }
  /// Pages admitted since Reset.
  [[nodiscard]] uint64_t resident_pages() const { return table_.size(); }

  /// Deliberate-corruption backdoor for invariant tests; never used by
  /// library code.
  struct Corrupter;

 private:
  friend Status ValidateBufferPool(const BufferPool& pool);
  friend struct Corrupter;

  /// Sentinel frame index: an empty page-table slot.
  static constexpr uint32_t kNilFrame = 0xffffffffu;

  /// One page frame, as the access path reads it.
  struct Frame {
    PageId page = 0;
    /// The page's bytes: the store's memory or the frame's buffer.
    const uint8_t* data = nullptr;
    uint32_t size = 0;
  };

  /// The rest of what frame f holds, at frame_pages_[f]: kept apart from
  /// Frame so the access path reads one compact array.
  struct FramePage {
    FetchFault fault;
    /// Filled by stores that keep no copy of their pages (pread); kept
    /// across Reset, so refills reuse it.
    std::vector<uint8_t> buffer;
  };

  /// Open-addressing PageId -> frame-index map: linear probing over a
  /// power-of-two slot array.  Entries are only ever added until Clear,
  /// which keeps the slot array, so a warm pool re-fills without
  /// allocating.
  class PageTable {
   public:
    /// Frame index for `page`, or kNilFrame when absent.
    uint32_t Find(PageId page) const;
    /// `page` must not be present.
    void Insert(PageId page, uint32_t frame);
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

  /// Physical backend; never null.
  const PageStore* store_;
  /// static_cast<uint8_t>(store_->backend()); stamped into kPoolMiss trace
  /// events as arg_a.
  uint8_t backend_tag_ = 0;
  uint64_t reads_ = 0;
  uint64_t feature_reads_ = 0;
  uint64_t hits_ = 0;
  /// First fetch failure since Reset.
  FetchFault fault_;
  /// Frames [0, table_.size()) hold the pages admitted since Reset, in
  /// admission order; the rest keep their buffers for the next fill.
  std::vector<Frame> frames_;
  std::vector<FramePage> frame_pages_;
  PageTable table_;
};

/// Deep structural check (also declared in debug/validate.h): the
/// page-table <-> frame bijection, and no more resident pages than reads
/// since Reset.  Returns a Status naming the first violation.
[[nodiscard]] Status ValidateBufferPool(const BufferPool& pool);

struct BufferPool::Corrupter {
  /// Breaks the frame/page-table bijection: the frame holding `page`
  /// claims to hold `as` instead, which the table does not map.
  static void RelabelFrame(BufferPool* pool, PageId page, PageId as) {
    const uint32_t f = pool->table_.Find(page);
    if (f != kNilFrame) pool->frames_[f].page = as;
  }
  /// Rewinds the read counters below the resident count.
  static void RewindReads(BufferPool* pool) {
    pool->reads_ = 0;
    pool->feature_reads_ = 0;
  }
};

}  // namespace stpq

#endif  // STPQ_STORAGE_BUFFER_POOL_H_
