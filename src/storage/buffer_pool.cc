#include "storage/buffer_pool.h"

#include <utility>
#include <vector>

#include "obs/trace.h"
#include "storage/page_store.h"
#include "util/logging.h"

namespace stpq {

// ------------------------------------------------------------- page table

uint64_t BufferPool::PageTable::Hash(PageId page) {
  // splitmix64 finalizer: full-avalanche over the 64-bit page id, so
  // TreePageBase strides (1 << 32 per tree) spread across the slots.
  uint64_t z = page + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint32_t BufferPool::PageTable::Find(PageId page) const {
  if (slots_.empty()) return kNilFrame;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Hash(page) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.frame == kNilFrame) return kNilFrame;
    if (slot.page == page) return slot.frame;
  }
}

void BufferPool::PageTable::Insert(PageId page, uint32_t frame) {
  if (slots_.empty() || (size_ + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = Hash(page) & mask;
  while (slots_[i].frame != kNilFrame) {
    STPQ_DCHECK(slots_[i].page != page);
    i = (i + 1) & mask;
  }
  slots_[i] = Slot{page, frame};
  ++size_;
}

void BufferPool::PageTable::Erase(PageId page) {
  if (slots_.empty()) return;
  const size_t mask = slots_.size() - 1;
  size_t i = Hash(page) & mask;
  while (slots_[i].page != page || slots_[i].frame == kNilFrame) {
    if (slots_[i].frame == kNilFrame) return;  // absent
    i = (i + 1) & mask;
  }
  // Backward-shift deletion: pull every displaced entry of the probe
  // cluster back over the hole, leaving no tombstones behind.
  size_t hole = i;
  for (size_t j = (i + 1) & mask; slots_[j].frame != kNilFrame;
       j = (j + 1) & mask) {
    const size_t home = Hash(slots_[j].page) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].frame = kNilFrame;
  --size_;
}

void BufferPool::PageTable::Clear() {
  for (Slot& slot : slots_) slot.frame = kNilFrame;
  size_ = 0;
}

// Amortized rehash: runs on cold admissions only, never on the warm hit
// path that the allocation contract covers.
// stpq-lint: allow(hot-alloc) amortized growth off the warm path
void BufferPool::PageTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.frame == kNilFrame) continue;
    size_t i = Hash(slot.page) & mask;
    while (slots_[i].frame != kNilFrame) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

// ------------------------------------------------------- intrusive chain

void BufferPool::Unlink(uint32_t f) {
  Frame& frame = frames_[f];
  if (frame.prev != kNilFrame) {
    frames_[frame.prev].next = frame.next;
  } else {
    head_ = frame.next;
  }
  if (frame.next != kNilFrame) {
    frames_[frame.next].prev = frame.prev;
  } else {
    tail_ = frame.prev;
  }
  --chain_size_;
}

void BufferPool::LinkFront(uint32_t f) {
  Frame& frame = frames_[f];
  frame.prev = kNilFrame;
  frame.next = head_;
  if (head_ != kNilFrame) frames_[head_].prev = f;
  head_ = f;
  if (tail_ == kNilFrame) tail_ = f;
  ++chain_size_;
}

uint32_t BufferPool::AcquireFrame() {
  if (free_head_ != kNilFrame) {
    const uint32_t f = free_head_;
    free_head_ = frames_[f].next;
    return f;
  }
  frames_.emplace_back();
  frame_pages_.emplace_back();
  return static_cast<uint32_t>(frames_.size() - 1);
}

void BufferPool::ReleaseFrame(uint32_t f) {
  frames_[f].next = free_head_;
  frames_[f].prev = kNilFrame;
  frames_[f].pins = 0;
  frames_[f].detached = false;
  free_head_ = f;
}

// ------------------------------------------------------------ public API

BufferPool::BufferPool(uint64_t capacity_pages, PageStore* store)
    : capacity_(capacity_pages),
      store_(store),
      backend_tag_(store == nullptr ? 0
                                    : static_cast<uint8_t>(store->backend())) {
}

PageView BufferPool::Access(PageId page) {
  bool hit = false;
  const uint32_t f = PinInternal(page, &hit);
  const Frame& frame = frames_[f];
  PageView view(std::span<const uint8_t>(frame.data, frame.size));
  if (frame.data == nullptr && store_ != nullptr) {
    view.fault_ = frame_pages_[f].fault;
  }
  view.pool_ = this;
  view.frame_ = f;
  view.hit_ = hit;
  return view;
}

uint32_t BufferPool::PinInternal(PageId page, bool* hit) {
  uint32_t f = table_.Find(page);
  *hit = f != kNilFrame;
  if (*hit) {
    ++hits_;
    STPQ_TRACE_INSTANT(TraceEventType::kPoolHit, 0, 0,
                       static_cast<uint32_t>(page & 0xffffffffu), page);
    if (capacity_ != 0 && head_ != f) {  // unbounded pools skip LRU upkeep
      Unlink(f);
      LinkFront(f);
    }
    ++frames_[f].pins;
    return f;
  }
  ++reads_;
  STPQ_TRACE_INSTANT(TraceEventType::kPoolMiss, backend_tag_, 0,
                     static_cast<uint32_t>(page & 0xffffffffu), page);
  // The miss has been counted; now the store serves the page into the
  // frame (a pointer into its memory, or a read into the frame's buffer).
  // Fetch before admission, like a disk read into the frame.
  f = AcquireFrame();
  Frame& frame = frames_[f];
  frame.page = page;
  frame.pins = 1;  // the caller's view
  frame.detached = false;
  FramePage& held = frame_pages_[f];
  held.fault = FetchFault{};
  const std::span<const uint8_t> bytes =
      store_ != nullptr ? store_->FetchPage(page, &held.buffer, &held.fault)
                        : std::span<const uint8_t>();
  frame.data = bytes.empty() ? nullptr : bytes.data();
  frame.size = static_cast<uint32_t>(bytes.size());
  if (held.fault.failed()) {
    if (!fault_.failed()) fault_ = held.fault;
    // Not admitted: the frame leaves with its view, so the next access
    // fetches the page again instead of replaying this failure.
    frame.detached = true;
    return f;
  }
  LinkFront(f);
  table_.Insert(page, f);
  ++lifetime_admissions_;
  if (capacity_ != 0 && chain_size_ > capacity_) {
    EvictOneUnpinned(f);
  }
  return f;
}

void BufferPool::EvictOneUnpinned(uint32_t admitted) {
  // Walk from the LRU tail toward the front; the first unpinned frame is
  // the victim.  The frame just admitted is pinned by its view, so when
  // every other resident is pinned too the walk finds none, and the new
  // page is read through: it leaves the cache now and its frame is freed
  // when the view lets go of it.
  for (uint32_t f = tail_; f != kNilFrame; f = frames_[f].prev) {
    if (frames_[f].pins == 0) {
      STPQ_TRACE_INSTANT(TraceEventType::kPoolEvict, 0, 0,
                         static_cast<uint32_t>(frames_[f].page & 0xffffffffu),
                         frames_[f].page);
      table_.Erase(frames_[f].page);
      Unlink(f);
      ReleaseFrame(f);
      return;
    }
  }
  STPQ_TRACE_INSTANT(TraceEventType::kPoolEvict, 0, 0,
                     static_cast<uint32_t>(frames_[admitted].page &
                                           0xffffffffu),
                     frames_[admitted].page);
  table_.Erase(frames_[admitted].page);
  Unlink(admitted);
  frames_[admitted].detached = true;
}

void BufferPool::Clear() {
  STPQ_DCHECK(pinned_pages() == 0);
  // Move every resident frame to the free list; the frame array and the
  // page-table slot array keep their allocations for the next fill.
  for (uint32_t f = head_; f != kNilFrame;) {
    const uint32_t next = frames_[f].next;
    ReleaseFrame(f);
    f = next;
  }
  head_ = tail_ = kNilFrame;
  chain_size_ = 0;
  table_.Clear();
}

void BufferPool::ResetStats() {
  reads_ = 0;
  hits_ = 0;
}

void BufferPool::Reset() {
  Clear();
  ResetStats();
  fault_ = {};
}

Status BufferPool::status() const {
  if (!fault_.failed()) return Status::OK();
  return store_->FaultStatus(fault_);
}

uint64_t BufferPool::pinned_pages() const {
  uint64_t pinned = 0;
  for (uint32_t f = head_; f != kNilFrame; f = frames_[f].next) {
    if (frames_[f].pins > 0) ++pinned;
  }
  return pinned;
}

PageView PageView::Unpooled(const PageStore& store, PageId page) {
  PageView view;
  view.bytes_ = store.ReadPage(page, &view.owned_, &view.fault_);
  return view;
}

}  // namespace stpq
