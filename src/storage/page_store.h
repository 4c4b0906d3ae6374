// PageStore: where index pages live.
//
// BufferPool decides *whether* a page access is a hit or a miss (exact LRU,
// pinning, counters); a PageStore serves the page on a miss.  Two
// backends hold the same node pages (rtree/node_page.h):
//   * SimulatedPageStore, an immutable in-memory page array — what
//     Engine::Build packs the trees into, and what Engine::Save writes;
//   * FilePageStore, over a persisted .stpqx index file (io/index_file.h),
//     mapped when it can be and read with pread otherwise.
// Hit/miss accounting never consults the store, so both backends report
// byte-identical page-read counts for the same workload.
//
// FetchPage runs inside the pool's access path, i.e. on the query hot path
// under the pool mutex (or an isolated session's private pool).  Every
// implementation must therefore be lock-free and allocation-free, apart
// from growing a frame's buffer the first time it is filled: the stores
// read through immutable extent tables built before the first query,
// return pointers into memory they own (or pread into the frame's
// buffer), and update relaxed atomics plus pre-registered metric handles.
// A failure is described by a FetchFault (plain data); FaultStatus turns
// it into a typed Status off the hot path.
#ifndef STPQ_STORAGE_PAGE_STORE_H_
#define STPQ_STORAGE_PAGE_STORE_H_

#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "util/attributes.h"
#include "util/result.h"
#include "util/status.h"

namespace stpq {

class Counter;
class HistogramMetric;

/// Which physical backend serves buffer-pool misses.
enum class StorageBackend : uint8_t {
  kSimulated = 0,  ///< pages in an in-memory page array (the default)
  kFile = 1,       ///< miss = page fetch from a persisted index file
};

/// Stable lowercase name ("simulated" / "file") for /statusz, metrics and
/// error messages.
const char* StorageBackendName(StorageBackend backend);

/// Counters exposed by a PageStore.  `bytes_read` and `io_errors` stay 0 on
/// the simulated backend.
struct PageStoreStats {
  uint64_t fetches = 0;     ///< FetchPage calls (== buffer-pool misses)
  uint64_t bytes_read = 0;  ///< physical bytes fetched
  uint64_t io_errors = 0;   ///< reads that failed (unmapped page, pread)
};

namespace page_store_internal {

/// Binary search over extents sorted by first_page (each with a
/// page_count); nullptr when `page` is outside every extent.
template <typename Extent>
const Extent* FindExtent(const std::vector<Extent>& extents, PageId page) {
  size_t lo = 0;
  size_t hi = extents.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const Extent& e = extents[mid];
    if (page < e.first_page) {
      hi = mid;
    } else if (page - e.first_page >= e.page_count) {
      lo = mid + 1;
    } else {
      return &e;
    }
  }
  return nullptr;
}

}  // namespace page_store_internal

/// Page source behind a BufferPool.  Implementations are immutable after
/// construction and safe to share between pools (the object pool and
/// every feature pool of one engine share one store; their page-id
/// namespaces are disjoint by the TreePageBase layout).
class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Serves `page` on a buffer-pool miss and counts one fetch.  Returns
  /// the page's bytes: a view of memory the store owns (the page array,
  /// the file mapping), or of `buffer`, which the store fills when it
  /// keeps no copy of the page (pread).  A page it cannot serve yields an
  /// empty span, with the failure described in `fault`.  Must not
  /// allocate (beyond growing `buffer` once) or block on anything but the
  /// read itself.
  STPQ_HOT virtual std::span<const uint8_t> FetchPage(
      PageId page, std::vector<uint8_t>* buffer, FetchFault* fault) = 0;

  /// The same bytes outside any pool, without counting a fetch: Save and
  /// the validators read pages this way.
  virtual std::span<const uint8_t> ReadPage(PageId page,
                                            std::vector<uint8_t>* buffer,
                                            FetchFault* fault) const = 0;

  /// Typed error for `fault`: Corruption for a page outside every extent
  /// (an index entry that points past its tree) or a torn page, IoError
  /// for a failed read.  Cold: allocates the message.
  [[nodiscard]] virtual STPQ_COLD Status
  FaultStatus(const FetchFault& fault) const = 0;

  [[nodiscard]] virtual StorageBackend backend() const = 0;
  [[nodiscard]] virtual PageStoreStats stats() const = 0;
};

/// The in-memory page array: every tree's node pages, packed once.  Built
/// engines read it through their pools, and Engine::Save writes it
/// verbatim.
class SimulatedPageStore final : public PageStore {
 public:
  /// One tree's pages: `page_count` slots of `slot_bytes` for page ids
  /// [first_page, first_page + page_count), in `bytes`.
  struct Extent {
    PageId first_page = 0;
    uint64_t page_count = 0;
    uint32_t slot_bytes = 0;
    std::vector<uint8_t> bytes;
  };

  /// A store that holds no pages: every fetch is counted and fails.
  SimulatedPageStore() = default;
  /// Adopts `extents` (non-overlapping; sorted here).
  explicit SimulatedPageStore(std::vector<Extent> extents);

  STPQ_HOT std::span<const uint8_t> FetchPage(PageId page,
                                              std::vector<uint8_t>* buffer,
                                              FetchFault* fault) override;
  std::span<const uint8_t> ReadPage(PageId page, std::vector<uint8_t>* buffer,
                                    FetchFault* fault) const override;
  [[nodiscard]] STPQ_COLD Status
  FaultStatus(const FetchFault& fault) const override;

  [[nodiscard]] StorageBackend backend() const override {
    return StorageBackend::kSimulated;
  }
  [[nodiscard]] PageStoreStats stats() const override {
    return {fetches_.load(std::memory_order_relaxed), 0, 0};
  }

  /// Writable bytes of `page` for deliberate-corruption tests; never used
  /// by library code.  Null when the store does not hold the page.
  [[nodiscard]] uint8_t* MutablePageForTest(PageId page);

 private:
  std::vector<Extent> extents_;  ///< sorted by first_page
  std::atomic<uint64_t> fetches_{0};
};

/// Store over a persisted index file: mmap when available, pread fallback.
/// The page-id space is sparse (object index at 0, feature index i at
/// TreePageBase(i + 1)), so the mapping to file offsets goes through a
/// sorted extent table: each extent covers one node segment's contiguous
/// page-id range and names its slot width (a node slot spans one or more
/// pages when the node exceeds the page size; the pool charges one read
/// per node, so one fetch serves one full slot).  A mapped fetch returns
/// a view of the slot in the mapping and reads its header, so a page
/// fault on a cold cache lands inside the timed fetch; a pread fetch
/// reads the slot into the frame's buffer.
class FilePageStore final : public PageStore {
 public:
  /// How fetches hit the file.  kAuto mmaps and falls back to pread when
  /// the mapping fails; the explicit modes exist for tests and benches.
  enum class IoMode : uint8_t { kAuto = 0, kMmap = 1, kPread = 2 };

  /// One contiguous page-id range backed by fixed-width slots in the file.
  struct Extent {
    PageId first_page = 0;      ///< pool-visible id of the first slot
    uint64_t page_count = 0;    ///< number of slots
    uint64_t file_offset = 0;   ///< byte offset of the first slot
    uint32_t slot_bytes = 0;    ///< bytes fetched per page access
  };

  /// Opens `path` read-only and validates the extent table (sorted by
  /// first_page, non-overlapping, inside the file).  Typed errors:
  /// IoError when the file cannot be opened or mapped (kMmap mode),
  /// InvalidArgument on a malformed extent table.
  [[nodiscard]] static Result<std::unique_ptr<FilePageStore>> Open(
      const std::string& path, std::vector<Extent> extents,
      IoMode mode = IoMode::kAuto);

  ~FilePageStore() override;

  FilePageStore(const FilePageStore&) = delete;
  FilePageStore& operator=(const FilePageStore&) = delete;

  STPQ_HOT std::span<const uint8_t> FetchPage(PageId page,
                                              std::vector<uint8_t>* buffer,
                                              FetchFault* fault) override;
  std::span<const uint8_t> ReadPage(PageId page, std::vector<uint8_t>* buffer,
                                    FetchFault* fault) const override;
  [[nodiscard]] STPQ_COLD Status
  FaultStatus(const FetchFault& fault) const override;

  [[nodiscard]] StorageBackend backend() const override {
    return StorageBackend::kFile;
  }
  [[nodiscard]] PageStoreStats stats() const override {
    return {fetches_.load(std::memory_order_relaxed),
            bytes_read_.load(std::memory_order_relaxed),
            io_errors_.load(std::memory_order_relaxed)};
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool using_mmap() const { return map_ != nullptr; }

  /// Typed view of the most recent read failure (FaultStatus of it): OK
  /// when io_errors is 0.  Cold: allocates the message; callers check
  /// after stats().io_errors != 0.
  [[nodiscard]] STPQ_COLD Status last_error() const;

  /// pread-compatible seam for fault-injection tests (EINTR, short reads,
  /// hard errors).  Not thread-safe against in-flight fetches; install
  /// before queries run.
  using PreadFn = ssize_t (*)(int fd, void* buf, size_t count, off_t offset);
  void SetPreadFnForTest(PreadFn fn) { pread_fn_ = fn; }

 private:
  FilePageStore(std::string path, std::vector<Extent> extents, int fd,
                const uint8_t* map, uint64_t file_bytes);

  /// Serves `page` (the body FetchPage times and counts).  `bytes_read`
  /// receives the bytes the read moved.
  std::span<const uint8_t> Serve(PageId page, std::vector<uint8_t>* buffer,
                                 FetchFault* fault,
                                 uint64_t* bytes_read) const;

  /// Fills `fault`, bumps io_errors and records it as the last failure
  /// (allocation-free).
  void RecordFault(FetchFault::Kind kind, PageId page, int err,
                   FetchFault* fault) const;

  const std::string path_;
  /// Sorted by first_page; immutable after Open, so fetches read it
  /// without synchronization.
  const std::vector<Extent> extents_;
  const int fd_;
  const uint8_t* const map_;  ///< nullptr in pread mode
  const uint64_t file_bytes_;

  PreadFn pread_fn_ = &::pread;

  std::atomic<uint64_t> fetches_{0};
  std::atomic<uint64_t> bytes_read_{0};
  mutable std::atomic<uint64_t> io_errors_{0};
  mutable std::atomic<uint8_t> last_error_kind_{0};
  mutable std::atomic<int> last_error_errno_{0};
  mutable std::atomic<uint64_t> last_error_page_{0};

  // Metric handles resolved once at Open (registry lookups allocate; the
  // hot path only does relaxed atomic updates on these).
  Counter& metric_fetches_;
  Counter& metric_bytes_;
  HistogramMetric& metric_latency_;
};

}  // namespace stpq

#endif  // STPQ_STORAGE_PAGE_STORE_H_
