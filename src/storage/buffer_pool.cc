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

// ------------------------------------------------------------ public API

BufferPool::BufferPool(const PageStore* store) : store_(store) {
  STPQ_CHECK(store != nullptr);
  backend_tag_ = static_cast<uint8_t>(store->backend());
}

PageView BufferPool::Access(PageId page) {
  const uint32_t resident = table_.Find(page);
  if (resident != kNilFrame) {
    ++hits_;
    STPQ_TRACE_INSTANT(TraceEventType::kPoolHit, 0, 0,
                       static_cast<uint32_t>(page & 0xffffffffu), page);
    const Frame& frame = frames_[resident];
    PageView view(std::span<const uint8_t>(frame.data, frame.size));
    view.frame_ = resident;
    view.hit_ = true;
    return view;
  }
  ++reads_;
  if (page >= TreePageBase(1)) ++feature_reads_;
  STPQ_TRACE_INSTANT(TraceEventType::kPoolMiss, backend_tag_, 0,
                     static_cast<uint32_t>(page & 0xffffffffu), page);
  // The miss has been counted; now the store serves the page into the
  // next free frame (a pointer into its memory, or a read into the
  // frame's buffer).  Fetch before admission, like a disk read into the
  // frame.
  const auto f = static_cast<uint32_t>(table_.size());
  if (f == frames_.size()) {
    frames_.emplace_back();
    frame_pages_.emplace_back();
  }
  FramePage& held = frame_pages_[f];
  held.fault = FetchFault{};
  const std::span<const uint8_t> bytes =
      store_->FetchPage(page, &held.buffer, &held.fault);
  PageView view(bytes);
  if (held.fault.failed()) {
    if (!fault_.failed()) fault_ = held.fault;
    // Not admitted: the next access fetches the page again instead of
    // replaying this failure, and the next miss reuses the frame.
    view.fault_ = held.fault;
    return view;
  }
  frames_[f] = Frame{page, bytes.data(), static_cast<uint32_t>(bytes.size())};
  table_.Insert(page, f);
  view.frame_ = f;
  return view;
}

void BufferPool::Reset() {
  table_.Clear();
  reads_ = 0;
  feature_reads_ = 0;
  hits_ = 0;
  fault_ = {};
}

Status BufferPool::status() const {
  if (!fault_.failed()) return Status::OK();
  return store_->FaultStatus(fault_);
}

PageView PageView::Unpooled(const PageStore& store, PageId page) {
  PageView view;
  view.bytes_ = store.ReadPage(page, &view.owned_, &view.fault_);
  return view;
}

}  // namespace stpq
