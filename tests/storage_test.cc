// Tests for storage/: the buffer pool, I/O accounting, and the PageStore
// backends behind the pools.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace stpq {
namespace {

/// One store fetch outside any pool; returns how it failed, if it did.
FetchFault Fetch(PageStore& store, PageId page) {
  std::vector<uint8_t> buffer;
  FetchFault fault;
  static_cast<void>(store.FetchPage(page, &buffer, &fault));
  return fault;
}

/// A small in-memory store behind every pool test: 128 pages from page 0
/// and 16 at each of the first two feature-tree bases, 64 bytes each.
class BufferPoolTest : public ::testing::Test {
 protected:
  static SimulatedPageStore MakeStore() {
    std::vector<SimulatedPageStore::Extent> extents;
    extents.push_back({0, 128, 64, std::vector<uint8_t>(128 * 64, 0)});
    for (uint64_t tree : {1, 2}) {
      extents.push_back(
          {TreePageBase(tree), 16, 64, std::vector<uint8_t>(16 * 64, 0)});
    }
    return SimulatedPageStore(std::move(extents));
  }

  SimulatedPageStore store_ = MakeStore();
  BufferPool pool_{&store_};
};

TEST_F(BufferPoolTest, MissThenHit) {
  EXPECT_FALSE(pool_.Access(1).hit());  // miss
  EXPECT_TRUE(pool_.Access(1).hit());   // hit
  EXPECT_EQ(pool_.stats().reads, 1u);
  EXPECT_EQ(pool_.stats().hits, 1u);
  EXPECT_EQ(store_.stats().fetches, 1u);
}

TEST_F(BufferPoolTest, NeverEvictsWithinAQuery) {
  for (PageId p = 0; p < 100; ++p) pool_.Access(p);
  for (PageId p = 0; p < 100; ++p) EXPECT_TRUE(pool_.Access(p).hit());
  EXPECT_EQ(pool_.stats().reads, 100u);
  EXPECT_EQ(pool_.stats().hits, 100u);
  EXPECT_EQ(pool_.resident_pages(), 100u);
  EXPECT_TRUE(ValidateBufferPool(pool_).ok());
}

TEST_F(BufferPoolTest, ResetColdCache) {
  pool_.Access(1);
  pool_.Access(2);
  pool_.Reset();
  EXPECT_EQ(pool_.resident_pages(), 0u);
  EXPECT_EQ(pool_.stats().reads, 0u);
  EXPECT_FALSE(pool_.Access(1).hit());  // cold again
  EXPECT_EQ(pool_.stats().reads, 1u);
  EXPECT_EQ(store_.stats().fetches, 3u);
  EXPECT_TRUE(ValidateBufferPool(pool_).ok());
}

TEST_F(BufferPoolTest, StatsDelta) {
  pool_.Access(1);
  BufferPoolStats before = pool_.stats();
  pool_.Access(1);
  pool_.Access(2);
  BufferPoolStats delta = pool_.stats() - before;
  EXPECT_EQ(delta.reads, 1u);
  EXPECT_EQ(delta.hits, 1u);
}

TEST_F(BufferPoolTest, StatsDeltaSaturatesOnUnderflow) {
  pool_.Access(1);
  pool_.Access(1);
  BufferPoolStats newer = pool_.stats();  // reads=1, hits=1
  pool_.Reset();
  // Subtracting the newer snapshot from the (reset) older one must clamp
  // at zero instead of wrapping around to ~2^64.
  BufferPoolStats delta = pool_.stats() - newer;
  EXPECT_EQ(delta.reads, 0u);
  EXPECT_EQ(delta.hits, 0u);
}

TEST_F(BufferPoolTest, DistinctNamespacesDontCollide) {
  // Two trees sharing one pool start at their TreePageBase; distinct ids
  // are distinct pages.
  EXPECT_FALSE(pool_.Access(TreePageBase(1) + 7).hit());
  EXPECT_FALSE(pool_.Access(TreePageBase(2) + 7).hit());
  EXPECT_TRUE(pool_.Access(TreePageBase(1) + 7).hit());
}

TEST(PageStoreTest, StorageBackendName) {
  EXPECT_STREQ(StorageBackendName(StorageBackend::kSimulated), "simulated");
  EXPECT_STREQ(StorageBackendName(StorageBackend::kFile), "file");
}

TEST(PageStoreTest, SimulatedStoreCountsMissesOnly) {
  // The store holds pages 1 and 2 (a store without a page fails its
  // fetch, and a failed fetch is not cached).
  std::vector<SimulatedPageStore::Extent> extents;
  extents.push_back({1, 2, 64, std::vector<uint8_t>(2 * 64, 0)});
  SimulatedPageStore store(std::move(extents));
  BufferPool pool(&store);
  pool.Access(1);  // miss -> fetch
  pool.Access(1);  // hit -> no fetch
  pool.Access(2);  // miss -> fetch
  EXPECT_EQ(store.stats().fetches, 2u);
  EXPECT_EQ(store.stats().bytes_read, 0u);
  EXPECT_EQ(store.backend(), StorageBackend::kSimulated);
  EXPECT_EQ(pool.stats().reads, 2u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

class FilePageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("stpq_storage_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `bytes` of a repeating pattern and returns the path.
  std::string MakeFile(const char* name, size_t bytes) {
    std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    for (size_t i = 0; i < bytes; ++i) {
      out.put(static_cast<char>(i & 0xff));
    }
    return path;
  }

  std::filesystem::path dir_;
};

TEST_F(FilePageStoreTest, OpenRejectsMissingFile) {
  Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
      (dir_ / "nope.bin").string(),
      {FilePageStore::Extent{0, 1, 0, 4096}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(FilePageStoreTest, OpenRejectsExtentPastEof) {
  std::string path = MakeFile("short.bin", 4096);
  Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
      path, {FilePageStore::Extent{0, 2, 0, 4096}});  // needs 8192 bytes
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FilePageStoreTest, OpenRejectsOverlappingExtents) {
  std::string path = MakeFile("two.bin", 16384);
  Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
      path, {FilePageStore::Extent{0, 2, 0, 4096},
             FilePageStore::Extent{1, 2, 8192, 4096}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FilePageStoreTest, FetchCountsBytesAndErrors) {
  for (FilePageStore::IoMode mode :
       {FilePageStore::IoMode::kMmap, FilePageStore::IoMode::kPread}) {
    std::string path = MakeFile("data.bin", 3 * 4096);
    Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
        path, {FilePageStore::Extent{10, 3, 0, 4096}}, mode);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    FilePageStore& store = *r.value();
    EXPECT_EQ(store.backend(), StorageBackend::kFile);
    EXPECT_EQ(store.using_mmap(), mode == FilePageStore::IoMode::kMmap);
    Fetch(store, 10);
    Fetch(store, 12);
    EXPECT_EQ(store.stats().fetches, 2u);
    EXPECT_EQ(store.stats().bytes_read, 2u * 4096);
    EXPECT_EQ(store.stats().io_errors, 0u);
    Fetch(store, 13);  // past the extent
    Fetch(store, 9);   // before the extent
    EXPECT_EQ(store.stats().io_errors, 2u);
    EXPECT_EQ(store.stats().fetches, 2u);
  }
}

TEST_F(FilePageStoreTest, PoolMissTriggersFetch) {
  std::string path = MakeFile("pool.bin", 2 * 4096);
  Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
      path, {FilePageStore::Extent{0, 2, 0, 4096}});
  ASSERT_TRUE(r.ok());
  BufferPool pool(r.value().get());
  pool.Access(0);  // miss -> file fetch
  pool.Access(0);  // hit -> no fetch
  pool.Access(1);  // miss -> file fetch
  EXPECT_EQ(r.value()->stats().fetches, 2u);
  EXPECT_EQ(r.value()->stats().bytes_read, 2u * 4096);
  // Another pool over the same store starts cold.
  BufferPool other(r.value().get());
  other.Access(0);  // miss -> file fetch
  EXPECT_EQ(r.value()->stats().fetches, 3u);
}

// ---------------------------------------------------------------------------
// Fault injection through the pread seam (pread mode only; mmap has no
// syscall to interrupt).  The seam functions are stateful file-statics:
// install, fetch once, inspect stats() + last_error().
// ---------------------------------------------------------------------------

int g_pread_calls = 0;

/// Fails with EINTR on every odd call; the retry loop must converge.
ssize_t PreadEintrEveryOther(int fd, void* buf, size_t count, off_t offset) {
  if (++g_pread_calls % 2 == 1) {
    errno = EINTR;
    return -1;
  }
  return ::pread(fd, buf, count, offset);
}

/// Hard I/O error: pread fails with EIO immediately.
ssize_t PreadEio(int, void*, size_t, off_t) {
  errno = EIO;
  return -1;
}

/// Transient I/O error: the first call fails with EIO, later calls read.
ssize_t PreadEioOnce(int fd, void* buf, size_t count, off_t offset) {
  if (++g_pread_calls == 1) {
    errno = EIO;
    return -1;
  }
  return ::pread(fd, buf, count, offset);
}

/// Torn page: half the slot, then EOF — as if the file were cut mid-slot.
ssize_t PreadTorn(int fd, void* buf, size_t count, off_t offset) {
  if (offset == 0) return ::pread(fd, buf, count > 2048 ? 2048 : count, offset);
  return 0;
}

TEST_F(FilePageStoreTest, EintrIsRetriedNotAnError) {
  std::string path = MakeFile("eintr.bin", 4096);
  Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
      path, {FilePageStore::Extent{0, 1, 0, 4096}},
      FilePageStore::IoMode::kPread);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  g_pread_calls = 0;
  r.value()->SetPreadFnForTest(&PreadEintrEveryOther);
  Fetch(*r.value(), 0);
  EXPECT_GT(g_pread_calls, 1) << "the EINTR attempt was not retried";
  EXPECT_EQ(r.value()->stats().fetches, 1u);
  EXPECT_EQ(r.value()->stats().bytes_read, 4096u);
  EXPECT_EQ(r.value()->stats().io_errors, 0u);
  EXPECT_TRUE(r.value()->last_error().ok());
}

TEST_F(FilePageStoreTest, PreadFailureIsTypedIoError) {
  std::string path = MakeFile("eio.bin", 4096);
  Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
      path, {FilePageStore::Extent{0, 1, 0, 4096}},
      FilePageStore::IoMode::kPread);
  ASSERT_TRUE(r.ok());
  r.value()->SetPreadFnForTest(&PreadEio);
  Fetch(*r.value(), 0);
  EXPECT_EQ(r.value()->stats().io_errors, 1u);
  // The attempt is still one fetch; no bytes were served.
  EXPECT_EQ(r.value()->stats().fetches, 1u);
  EXPECT_EQ(r.value()->stats().bytes_read, 0u);
  Status err = r.value()->last_error();
  EXPECT_EQ(err.code(), StatusCode::kIoError);
}

TEST_F(FilePageStoreTest, PoolViewsServeTheSlotBytes) {
  // Both I/O modes hand the pool the slot's bytes: a view into the
  // mapping, or the frame's buffer that pread filled.  Every view stays
  // valid while the pool admits more pages: nothing is evicted before
  // Reset, and a frame's buffer does not move when the frame array grows.
  for (FilePageStore::IoMode mode :
       {FilePageStore::IoMode::kMmap, FilePageStore::IoMode::kPread}) {
    std::string path = MakeFile("view.bin", 3 * 4096);
    Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
        path, {FilePageStore::Extent{10, 3, 0, 4096}}, mode);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    BufferPool pool(r.value().get());
    const std::vector<PageId> pages = {10, 12, 11, 12};
    std::vector<PageView> views;
    for (PageId page : pages) views.push_back(pool.Access(page));
    for (size_t v = 0; v < views.size(); ++v) {
      const PageView& view = views[v];
      ASSERT_EQ(view.bytes().size(), 4096u);
      EXPECT_FALSE(view.fault().failed());
      const size_t first = (pages[v] - 10) * 4096;
      for (size_t i : {size_t{0}, size_t{777}, size_t{4095}}) {
        EXPECT_EQ(view.bytes()[i], static_cast<uint8_t>((first + i) & 0xff))
            << "page " << pages[v] << " byte " << i;
      }
    }
  }
}

TEST_F(FilePageStoreTest, PoolFetchFailuresReachTheSession) {
  std::string path = MakeFile("faults.bin", 2 * 4096);
  Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
      path, {FilePageStore::Extent{0, 2, 0, 4096}},
      FilePageStore::IoMode::kPread);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Each pool records the first failure of its query; the session reads
  // it from its pools.
  BufferPool pool(r.value().get());

  r.value()->SetPreadFnForTest(&PreadEio);
  EXPECT_TRUE(pool.status().ok());
  {
    const PageView view = pool.Access(1);
    EXPECT_TRUE(view.bytes().empty());
    EXPECT_EQ(view.fault().kind, FetchFault::kPreadFailed);
  }
  EXPECT_TRUE(pool.failed());
  EXPECT_EQ(pool.status().code(), StatusCode::kIoError);
  // The store fails the page again on the next fetch, and the first
  // error sticks.
  EXPECT_TRUE(pool.Access(1).bytes().empty());
  EXPECT_EQ(pool.status().code(), StatusCode::kIoError);
  // Reset readies the pool for another query.
  pool.Reset();
  EXPECT_TRUE(pool.status().ok());
  EXPECT_FALSE(pool.failed());

  r.value()->SetPreadFnForTest(&PreadTorn);
  EXPECT_TRUE(pool.Access(0).bytes().empty());
  EXPECT_EQ(pool.status().code(), StatusCode::kCorruption);
  pool.Reset();

  // A page outside every extent: an index entry pointing past its tree.
  EXPECT_TRUE(pool.Access(5).bytes().empty());
  EXPECT_EQ(pool.status().code(), StatusCode::kCorruption);
}

TEST_F(FilePageStoreTest, TransientFetchFailureIsNotCached) {
  // A failed fetch is not admitted: one EIO fails the query that hit it,
  // and the next access, in the same pool, reads the page again.
  std::string path = MakeFile("transient.bin", 2 * 4096);
  Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
      path, {FilePageStore::Extent{0, 2, 0, 4096}},
      FilePageStore::IoMode::kPread);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  BufferPool pool(r.value().get());
  g_pread_calls = 0;
  r.value()->SetPreadFnForTest(&PreadEioOnce);
  {
    const PageView view = pool.Access(1);
    EXPECT_TRUE(view.bytes().empty());
    EXPECT_EQ(view.fault().kind, FetchFault::kPreadFailed);
  }
  EXPECT_EQ(pool.status().code(), StatusCode::kIoError);
  EXPECT_EQ(pool.stats().reads, 1u);  // the failed fetch counts
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_TRUE(ValidateBufferPool(pool).ok());

  {
    const PageView view = pool.Access(1);
    ASSERT_EQ(view.bytes().size(), 4096u);
    EXPECT_FALSE(view.hit());
    EXPECT_EQ(view.bytes()[0], static_cast<uint8_t>(4096 & 0xff));
    EXPECT_EQ(view.bytes()[4095], static_cast<uint8_t>((4096 + 4095) & 0xff));
  }
  // The first failure sticks until Reset.
  EXPECT_EQ(pool.status().code(), StatusCode::kIoError);
  EXPECT_TRUE(pool.Access(1).hit());  // admitted this time
  EXPECT_EQ(pool.stats().reads, 2u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.resident_pages(), 1u);

  // A failed fetch carries the store's typed error and leaves no resident
  // frame behind.
  r.value()->SetPreadFnForTest(&PreadEio);
  {
    const PageView view = pool.Access(0);
    EXPECT_EQ(r.value()->FaultStatus(view.fault()).code(),
              StatusCode::kIoError);
  }
  EXPECT_EQ(pool.resident_pages(), 1u);
  EXPECT_TRUE(ValidateBufferPool(pool).ok());

  // Reset readies the pool for another query, which fetches again.
  r.value()->SetPreadFnForTest(&::pread);
  pool.Reset();
  EXPECT_TRUE(pool.status().ok());
  EXPECT_EQ(pool.resident_pages(), 0u);
  {
    const PageView view = pool.Access(1);
    ASSERT_EQ(view.bytes().size(), 4096u);
    EXPECT_FALSE(view.hit());
  }
  EXPECT_TRUE(pool.status().ok());
  EXPECT_EQ(pool.stats().reads, 1u);
  EXPECT_TRUE(ValidateBufferPool(pool).ok());
}

TEST_F(FilePageStoreTest, ConcurrentPoolsReadStableFrames) {
  // Threads share the store, not a pool: each fetches pread frames
  // through a pool of its own over one FilePageStore, resetting it every
  // 16 accesses as a new query would; every view must read its own page's
  // bytes (run under the thread sanitizer in CI).
  constexpr PageId kPages = 16;
  std::string path = MakeFile("shared.bin", kPages * 4096);
  Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
      path, {FilePageStore::Extent{0, kPages, 0, 4096}},
      FilePageStore::IoMode::kPread);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      BufferPool pool(r.value().get());
      for (int i = 0; i < 400; ++i) {
        if (i % 16 == 0) pool.Reset();
        const PageId page = static_cast<PageId>((i * 7 + t * 3) % kPages);
        const PageView view = pool.Access(page);
        const size_t first = page * 4096;
        if (view.bytes().size() != 4096 ||
            view.bytes()[0] != static_cast<uint8_t>(first & 0xff) ||
            view.bytes()[4095] !=
                static_cast<uint8_t>((first + 4095) & 0xff)) {
          mismatches.fetch_add(1);
        }
      }
      if (!pool.status().ok() || pool.resident_pages() > kPages ||
          !ValidateBufferPool(pool).ok()) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(r.value()->stats().io_errors, 0u);
}

TEST_F(FilePageStoreTest, TornPageIsTypedCorruption) {
  // EOF inside a slot means the file is shorter than the extent table
  // promised — a corrupt index, not a transient I/O failure.
  std::string path = MakeFile("torn.bin", 4096);
  Result<std::unique_ptr<FilePageStore>> r = FilePageStore::Open(
      path, {FilePageStore::Extent{0, 1, 0, 4096}},
      FilePageStore::IoMode::kPread);
  ASSERT_TRUE(r.ok());
  r.value()->SetPreadFnForTest(&PreadTorn);
  Fetch(*r.value(), 0);
  EXPECT_EQ(r.value()->stats().io_errors, 1u);
  Status err = r.value()->last_error();
  EXPECT_EQ(err.code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace stpq
