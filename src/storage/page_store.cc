#include "storage/page_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics_registry.h"
#include "util/logging.h"
#include "util/timer.h"

namespace stpq {

const char* StorageBackendName(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kSimulated:
      return "simulated";
    case StorageBackend::kFile:
      return "file";
  }
  return "unknown";
}

// ---------------------------------------------------- SimulatedPageStore

SimulatedPageStore::SimulatedPageStore(std::vector<Extent> extents)
    : extents_(std::move(extents)) {
  std::sort(extents_.begin(), extents_.end(),
            [](const Extent& a, const Extent& b) {
              return a.first_page < b.first_page;
            });
  for (const Extent& e : extents_) {
    STPQ_CHECK(e.bytes.size() == e.page_count * uint64_t{e.slot_bytes});
  }
}

std::span<const uint8_t> SimulatedPageStore::FetchPage(
    PageId page, std::vector<uint8_t>* buffer, FetchFault* fault) const {
  fetches_.fetch_add(1, std::memory_order_relaxed);
  return ReadPage(page, buffer, fault);
}

std::span<const uint8_t> SimulatedPageStore::ReadPage(
    PageId page, std::vector<uint8_t>* /*buffer*/, FetchFault* fault) const {
  const Extent* e = page_store_internal::FindExtent(extents_, page);
  if (e == nullptr) {
    *fault = FetchFault{FetchFault::kUnmappedPage, 0, page};
    return {};
  }
  return {e->bytes.data() + (page - e->first_page) * e->slot_bytes,
          e->slot_bytes};
}

Status SimulatedPageStore::FaultStatus(const FetchFault& fault) const {
  return Status::Corruption("page " + std::to_string(fault.page) +
                            " is outside the in-memory page array");
}

uint8_t* SimulatedPageStore::MutablePageForTest(PageId page) {
  const Extent* e = page_store_internal::FindExtent(extents_, page);
  if (e == nullptr) return nullptr;
  return const_cast<uint8_t*>(e->bytes.data()) +
         (page - e->first_page) * e->slot_bytes;
}

// --------------------------------------------------------- FilePageStore

Result<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    const std::string& path, std::vector<Extent> extents, IoMode mode) {
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) {
              return a.first_page < b.first_page;
            });
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open index file '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot stat index file '" + path +
                           "': " + std::strerror(err));
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);

  PageId prev_end_page = 0;
  bool first = true;
  for (const Extent& e : extents) {
    if (e.page_count == 0 || e.slot_bytes == 0) {
      ::close(fd);
      return Status::InvalidArgument("page-store extent is empty");
    }
    if (!first && e.first_page < prev_end_page) {
      ::close(fd);
      return Status::InvalidArgument("page-store extents overlap");
    }
    first = false;
    prev_end_page = e.first_page + e.page_count;
    const uint64_t extent_bytes = e.page_count * uint64_t{e.slot_bytes};
    if (e.file_offset > file_bytes ||
        extent_bytes > file_bytes - e.file_offset) {
      ::close(fd);
      return Status::InvalidArgument(
          "page-store extent reaches past the end of '" + path + "'");
    }
  }

  const uint8_t* map = nullptr;
  if (mode != IoMode::kPread && file_bytes > 0) {
    void* m = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    if (m == MAP_FAILED) {
      if (mode == IoMode::kMmap) {
        const int err = errno;
        ::close(fd);
        return Status::IoError("cannot mmap index file '" + path +
                               "': " + std::strerror(err));
      }
      // kAuto degrades to pread.
    } else {
      // Index lookups jump between tree levels; readahead would fetch
      // neighbours the query never visits.
      ::madvise(m, file_bytes, MADV_RANDOM);
      map = static_cast<const uint8_t*>(m);
    }
  }
  return std::unique_ptr<FilePageStore>(
      new FilePageStore(path, std::move(extents), fd, map, file_bytes));
}

FilePageStore::FilePageStore(std::string path, std::vector<Extent> extents,
                             int fd, const uint8_t* map, uint64_t file_bytes)
    : path_(std::move(path)),
      extents_(std::move(extents)),
      fd_(fd),
      map_(map),
      file_bytes_(file_bytes),
      metric_fetches_(MetricsRegistry::Global().GetCounter(
          "stpq_store_file_fetches_total",
          "Page fetches served by the file-backed page store")),
      metric_bytes_(MetricsRegistry::Global().GetCounter(
          "stpq_store_file_read_bytes_total",
          "Bytes read from persisted index files")),
      metric_latency_(MetricsRegistry::Global().GetHistogram(
          "stpq_store_file_fetch_latency_ms",
          "Latency of file-backed page fetches in milliseconds")) {}

FilePageStore::~FilePageStore() {
  if (map_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(map_), file_bytes_);
  }
  ::close(fd_);
}

void FilePageStore::RecordFault(FetchFault::Kind kind, PageId page, int err,
                                FetchFault* fault) const {
  *fault = FetchFault{kind, err, page};
  last_error_kind_.store(static_cast<uint8_t>(kind),
                         std::memory_order_relaxed);
  last_error_errno_.store(err, std::memory_order_relaxed);
  last_error_page_.store(page, std::memory_order_relaxed);
  io_errors_.fetch_add(1, std::memory_order_relaxed);
}

Status FilePageStore::FaultStatus(const FetchFault& fault) const {
  switch (fault.kind) {
    case FetchFault::kNone:
      return Status::OK();
    case FetchFault::kUnmappedPage:
      return Status::Corruption("page " + std::to_string(fault.page) +
                                " is outside every extent of '" + path_ +
                                "'");
    case FetchFault::kPreadFailed:
      return Status::IoError("pread failed for page " +
                             std::to_string(fault.page) + " of '" + path_ +
                             "': " + std::strerror(fault.err));
    case FetchFault::kTornPage:
      return Status::Corruption("torn page " + std::to_string(fault.page) +
                                ": '" + path_ +
                                "' ends inside the slot (short read)");
  }
  return Status::Internal("unknown fetch fault kind");
}

Status FilePageStore::last_error() const {
  return FaultStatus(FetchFault{
      static_cast<FetchFault::Kind>(
          last_error_kind_.load(std::memory_order_relaxed)),
      last_error_errno_.load(std::memory_order_relaxed),
      last_error_page_.load(std::memory_order_relaxed)});
}

std::span<const uint8_t> FilePageStore::Serve(PageId page,
                                              std::vector<uint8_t>* buffer,
                                              FetchFault* fault,
                                              uint64_t* bytes_read) const {
  *bytes_read = 0;
  const Extent* extent = page_store_internal::FindExtent(extents_, page);
  if (extent == nullptr) {
    RecordFault(FetchFault::kUnmappedPage, page, 0, fault);
    return {};
  }
  const uint64_t offset =
      extent->file_offset + (page - extent->first_page) * extent->slot_bytes;
  if (map_ != nullptr) {
    // Read the slot header here: every view reads it anyway, and on a
    // cold cache its page fault then lands inside the timed fetch.
    const uint8_t* slot = map_ + offset;
    static_cast<void>(*static_cast<const volatile uint8_t*>(slot));
    *bytes_read = extent->slot_bytes;
    return {slot, extent->slot_bytes};
  }
  // Grows once per frame; a frame keeps its buffer across refills.
  if (buffer->size() < extent->slot_bytes) buffer->resize(extent->slot_bytes);
  uint64_t done = 0;
  while (done < extent->slot_bytes) {
    const ssize_t got =
        pread_fn_(fd_, buffer->data() + done, extent->slot_bytes - done,
                  static_cast<off_t>(offset + done));
    if (got < 0) {
      // EINTR is not a failure: the read was merely interrupted by a
      // signal and must be retried at the same position.
      if (errno == EINTR) continue;
      RecordFault(FetchFault::kPreadFailed, page, errno, fault);
      *bytes_read = done;
      return {};
    }
    if (got == 0) {
      // EOF inside a slot: the file is shorter than the extent table
      // promised.  A partially filled page must never be served as
      // complete — record it as a torn page.
      RecordFault(FetchFault::kTornPage, page, 0, fault);
      *bytes_read = done;
      return {};
    }
    done += static_cast<uint64_t>(got);
  }
  *bytes_read = done;
  return {buffer->data(), extent->slot_bytes};
}

std::span<const uint8_t> FilePageStore::FetchPage(
    PageId page, std::vector<uint8_t>* buffer, FetchFault* fault) const {
  Timer timer;
  uint64_t fetched = 0;
  const std::span<const uint8_t> bytes = Serve(page, buffer, fault, &fetched);
  if (fault->kind == FetchFault::kUnmappedPage) return bytes;
  fetches_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(fetched, std::memory_order_relaxed);
  metric_fetches_.Increment();
  metric_bytes_.Increment(fetched);
  metric_latency_.Record(timer.ElapsedMillis());
  return bytes;
}

std::span<const uint8_t> FilePageStore::ReadPage(PageId page,
                                                 std::vector<uint8_t>* buffer,
                                                 FetchFault* fault) const {
  uint64_t fetched = 0;
  return Serve(page, buffer, fault, &fetched);
}

}  // namespace stpq
