// Node pages: the one representation of an index node (DESIGN.md §16.1).
//
// Every tree is packed once into fixed-width page images — an in-memory
// page array for built engines, the node segments of a .stpqx file for
// opened ones — and every reader after construction reads a node in place
// from its page through a NodeView.  A page is columnar, so a reader that
// filters entries by one field touches only that field's bytes:
//
//   header    level u16, reserved u16, entry count u32
//   keywords  count x keyword_words() u64   e.W (SRT) / signature (IR2)
//   scores    count x f64                   e.s (feature trees)
//   ids       count x u32                   child node id / record id
//   mbrs      count x 4 f64                 lo.x, lo.y, hi.x, hi.y
//
// zero-padded to the slot width.  Columns are packed for the node's own
// count, so a small node touches only the start of its slot.  A page
// keeps only the columns queries read: the SRT-index is packed in the
// paper's 4-D order (x, y, t.s, H(t.W)), but its bound reads e.s and e.W
// and spatial pruning the 2-D MBR, so its pages store no score or H(W)
// extents (DESIGN.md §3).  Every field is read and written through
// std::memcpy, never by casting the page bytes; like the rest of the
// .stpqx format, pages are little-endian.
#ifndef STPQ_RTREE_NODE_PAGE_H_
#define STPQ_RTREE_NODE_PAGE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "geom/rect.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"

namespace stpq {

/// A packed tree's shape, as the .stpqx tree metadata records it.
struct TreeMeta {
  NodeId root = kInvalidNodeId;
  uint32_t height = 0;
  uint64_t size = 0;  ///< leaf records
  uint64_t node_count = 0;
  uint32_t max_entries = 0;
};

/// Bytes of the node header (level, reserved, count).
inline constexpr uint32_t kNodeHeaderBytes = 8;

/// Bytes every slot keeps free for a per-slot checksum.
inline constexpr uint32_t kSlotChecksumBytes = 8;

/// The one entry format of a tree: which columns its node pages carry.
/// It alone decides an entry's width, how many entries fit a page and
/// how wide a node's slot is; the packer, the writer, the reader and the
/// external sort all ask it.
struct PageLayout {
  /// Width of the keyword column: the keyword universe (SRT), the
  /// signature width (IR2), 0 for the object tree.
  uint32_t keyword_bits = 0;
  /// Whether entries carry a max-score column (the feature trees).
  bool has_score = false;

  [[nodiscard]] uint32_t keyword_words() const {
    return (keyword_bits + 63) / 64;
  }
  [[nodiscard]] uint32_t entry_bytes() const {
    return 8 * keyword_words() + (has_score ? 8 : 0) + 4 + 32;
  }

  /// Fan-out on a page of `page_size` bytes: the entries that fit beside
  /// the node header and the slot checksum, at least 4.
  [[nodiscard]] uint32_t max_entries(uint32_t page_size) const {
    const uint32_t budget = kNodeHeaderBytes + kSlotChecksumBytes;
    const uint32_t fit =
        page_size > budget ? (page_size - budget) / entry_bytes() : 0;
    return std::max(fit, 4u);
  }

  /// Fixed slot width of a node on pages of `page_size` bytes: the header
  /// plus max_entries() entries, rounded up to the page.  That is one page
  /// unless the 4-entry floor fires.
  [[nodiscard]] uint32_t slot_bytes(uint32_t page_size) const {
    const uint64_t node_bytes =
        uint64_t{kNodeHeaderBytes} +
        uint64_t{max_entries(page_size)} * entry_bytes();
    return static_cast<uint32_t>((node_bytes + page_size - 1) / page_size *
                                 page_size);
  }
};

namespace node_page_internal {

/// Column start offsets of `count` entries laid out from byte `base`: a
/// page's columns follow its header, a spill row's start at 0.
struct Columns {
  uint32_t keywords, scores, ids, mbrs;

  Columns(const PageLayout& layout, uint32_t count,
          uint32_t base = kNodeHeaderBytes) {
    keywords = base;
    scores = keywords + count * 8 * layout.keyword_words();
    ids = scores + (layout.has_score ? count * 8 : 0);
    mbrs = ids + count * 4;
  }
};

template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void Store(uint8_t* p, const T& v) {
  std::memcpy(p, &v, sizeof(T));
}

}  // namespace node_page_internal

/// One node read in place from its page: pointers to its columns, its
/// level and entry count, plus the page's view for as long as it lives.  An empty page — a fetch that failed — reads
/// as a leaf with no entries.
class NodeView {
 public:
  NodeView() = default;

  /// Views the node on `page`, laid out as `layout`.  The entry count is
  /// clamped to `max_entries` and to the bytes the page holds, so a
  /// damaged header never sends a read outside the page.
  NodeView(PageView page, const PageLayout& layout, uint32_t max_entries)
      : page_(std::move(page)) {
    using node_page_internal::Load;
    words_ = layout.keyword_words();
    const std::span<const uint8_t> bytes = page_.bytes();
    if (bytes.size() < kNodeHeaderBytes) return;
    const uint8_t* base = bytes.data();
    level_ = Load<uint16_t>(base);
    count_ = std::min(Load<uint32_t>(base + 4), max_entries);
    if (kNodeHeaderBytes + uint64_t{count_} * layout.entry_bytes() >
        bytes.size()) {
      count_ = static_cast<uint32_t>((bytes.size() - kNodeHeaderBytes) /
                                     layout.entry_bytes());
    }
    const node_page_internal::Columns at(layout, count_);
    keywords_ = base + at.keywords;
    scores_ = base + at.scores;
    ids_ = base + at.ids;
    mbrs_ = base + at.mbrs;
  }

  [[nodiscard]] uint16_t level() const { return level_; }
  [[nodiscard]] bool IsLeaf() const { return level_ == 0; }
  [[nodiscard]] uint32_t size() const { return count_; }

  /// Child node id (internal) or record id (leaf) of entry `i`.
  [[nodiscard]] uint32_t id(uint32_t i) const {
    return node_page_internal::Load<uint32_t>(ids_ + 4 * size_t{i});
  }
  /// e.s of entry `i` (feature trees).
  [[nodiscard]] double score(uint32_t i) const {
    return node_page_internal::Load<double>(scores_ + 8 * size_t{i});
  }
  /// Word `w` of entry `i`'s keyword column.
  [[nodiscard]] uint64_t keyword_word(uint32_t i, uint32_t w) const {
    return node_page_internal::Load<uint64_t>(
        keywords_ + 8 * (size_t{i} * words_ + w));
  }
  /// Entry `i`'s keyword column: keyword_words() little-endian words.
  [[nodiscard]] const uint8_t* keyword_bytes(uint32_t i) const {
    return keywords_ + 8 * size_t{i} * words_;
  }
  [[nodiscard]] uint32_t keyword_words() const { return words_; }

  /// The 2-D (spatial) MBR of entry `i`.
  [[nodiscard]] Rect2 mbr(uint32_t i) const {
    using node_page_internal::Load;
    const uint8_t* p = mbrs_ + 32 * size_t{i};
    // Four scalar loads, so the rectangle can live in registers.
    return Rect2{{Load<double>(p), Load<double>(p + 8)},
                 {Load<double>(p + 16), Load<double>(p + 24)}};
  }

  /// The page this node was read from.
  [[nodiscard]] const PageView& page() const { return page_; }

 private:
  PageView page_;
  const uint8_t* keywords_ = nullptr;
  const uint8_t* scores_ = nullptr;
  const uint8_t* ids_ = nullptr;
  const uint8_t* mbrs_ = nullptr;
  uint32_t words_ = 0;
  uint32_t count_ = 0;
  uint16_t level_ = 0;
};

/// Writes a node page in place: the page encoder's only primitive, and the
/// deliberate-corruption tests' editor.
class NodePageWriter {
 public:
  /// Starts the node page at `page` (zero-filled, at least header + count
  /// entries long): writes the header and lays the columns out for
  /// `count` entries.
  NodePageWriter(uint8_t* page, const PageLayout& layout, uint16_t level,
                 uint32_t count)
      : page_(page), layout_(layout), at_(layout, count) {
    node_page_internal::Store<uint16_t>(page, level);
    node_page_internal::Store<uint16_t>(page + 2, 0);
    node_page_internal::Store<uint32_t>(page + 4, count);
  }

  /// Edits the encoded node page at `page`.
  NodePageWriter(uint8_t* page, const PageLayout& layout)
      : page_(page),
        layout_(layout),
        at_(layout, node_page_internal::Load<uint32_t>(page + 4)) {}

  /// Writes the spill row at `row` (EncodeEntryRow): one entry's columns
  /// from byte 0, no header.
  static NodePageWriter Row(uint8_t* row, const PageLayout& layout) {
    return NodePageWriter(row, layout,
                          node_page_internal::Columns(layout, 1, /*base=*/0));
  }

  /// Every column of entry `i`.
  void SetEntry(uint32_t i, const PageEntry& e) {
    SetKeywords(i, e.keywords);
    if (layout_.has_score) SetScore(i, e.score);
    SetId(i, e.id);
    SetMbr(i, e.mbr);
  }
  void SetId(uint32_t i, uint32_t id) {
    node_page_internal::Store(page_ + at_.ids + 4 * size_t{i}, id);
  }
  void SetScore(uint32_t i, double score) {
    node_page_internal::Store(page_ + at_.scores + 8 * size_t{i}, score);
  }
  /// Entry `i`'s keyword column from `words` (keyword_words() words; a
  /// shorter vector is zero-extended).
  void SetKeywords(uint32_t i, const std::vector<uint64_t>& words) {
    const uint32_t n = layout_.keyword_words();
    uint8_t* p = page_ + at_.keywords + 8 * size_t{i} * n;
    for (uint32_t w = 0; w < n; ++w) {
      node_page_internal::Store<uint64_t>(p + 8 * w,
                                          w < words.size() ? words[w] : 0);
    }
  }
  void SetMbr(uint32_t i, const Rect2& r) {
    uint8_t* p = page_ + at_.mbrs + 32 * size_t{i};
    std::memcpy(p, r.lo.data(), 16);
    std::memcpy(p + 16, r.hi.data(), 16);
  }

  /// Copies every column of entry `from` over entry `to`.
  void CopyEntry(uint32_t to, uint32_t from) {
    ForEachField([&](uint32_t column, uint32_t width) {
      std::memmove(page_ + column + size_t{to} * width,
                   page_ + column + size_t{from} * width, width);
    });
  }

  /// Exchanges entries `a` and `b`, column by column.
  void SwapEntries(uint32_t a, uint32_t b) {
    ForEachField([&](uint32_t column, uint32_t width) {
      std::swap_ranges(page_ + column + size_t{a} * width,
                       page_ + column + size_t{a} * width + width,
                       page_ + column + size_t{b} * width);
    });
  }

 private:
  NodePageWriter(uint8_t* page, const PageLayout& layout,
                 const node_page_internal::Columns& at)
      : page_(page), layout_(layout), at_(at) {}

  /// Calls `fn(column offset, field width)` for every column.
  template <typename Fn>
  void ForEachField(const Fn& fn) const {
    if (layout_.keyword_words() > 0) {
      fn(at_.keywords, 8 * layout_.keyword_words());
    }
    if (layout_.has_score) fn(at_.scores, 8);
    fn(at_.ids, 4);
    fn(at_.mbrs, 32);
  }

  uint8_t* page_;
  PageLayout layout_;
  node_page_internal::Columns at_;
};

/// The page encoder: writes `node` into the zero-filled slot at `page`.
inline void EncodeNodePage(const PageNode& node, const PageLayout& layout,
                           uint8_t* page) {
  NodePageWriter out(page, layout, node.level,
                     static_cast<uint32_t>(node.entries.size()));
  for (uint32_t i = 0; i < node.entries.size(); ++i) {
    out.SetEntry(i, node.entries[i]);
  }
}

/// The external sort's spill row: `e` alone in its page's column encoding
/// (a one-entry page without the header), entry_bytes() wide.
inline void EncodeEntryRow(const PageEntry& e, const PageLayout& layout,
                           uint8_t* row) {
  NodePageWriter::Row(row, layout).SetEntry(0, e);
}

/// The entry a spill row holds; the inverse of EncodeEntryRow.
inline PageEntry DecodeEntryRow(const uint8_t* row, const PageLayout& layout) {
  using node_page_internal::Load;
  const node_page_internal::Columns at(layout, 1, /*base=*/0);
  PageEntry e;
  e.keywords.resize(layout.keyword_words());
  for (uint32_t w = 0; w < e.keywords.size(); ++w) {
    e.keywords[w] = Load<uint64_t>(row + at.keywords + 8 * w);
  }
  if (layout.has_score) e.score = Load<double>(row + at.scores);
  e.id = Load<uint32_t>(row + at.ids);
  std::memcpy(e.mbr.lo.data(), row + at.mbrs, 16);
  std::memcpy(e.mbr.hi.data(), row + at.mbrs + 16, 16);
  return e;
}

/// A packed tree's pages (PackTree, rtree/bulk_load.h): node id i at
/// bytes [i * slot_bytes, (i + 1) * slot_bytes) of `pages`.
struct TreeImage {
  TreeMeta meta;
  uint32_t slot_bytes = 0;
  std::vector<uint8_t> pages;
};

}  // namespace stpq

#endif  // STPQ_RTREE_NODE_PAGE_H_
