// The one .stpqx writer (DESIGN.md §16.1, §17.2).
//
// Engine::Save (through WriteIndexFile) and the external bulk loader
// (BuildIndexFileExternal) both write through IndexFileWriter, so segment
// order, alignment, slot encoding, checksums and the header each have one
// definition, and the two paths write identical bytes by construction.
// A write runs in three stages:
//
//   plan     the caller sizes each record segment with the record
//            encoders over a ByteCounter and describes each tree by its
//            TreeMeta and page layout; Open lays every segment out at its
//            final offset and creates the crash-safe temp file.
//   content  record segments stream through a SegmentWriter at their
//            planned offsets, node slots — node pages, from the page
//            encoder (rtree/node_page.h) or verbatim from an engine's page
//            store — are written by id in any order, and each tree's
//            metadata follows once its slots are written.
//   commit   the header (superblock + catalog with every checksum, sealed
//            by the header checksum) goes last; then the file is sized
//            and committed atomically.
//
// Trees are numbered as in TreePageBase: 0 is the object tree, i + 1 is
// feature index i.  Nothing here holds more than one stream buffer and
// one node slot, so neither writer keeps the file image in memory.
#ifndef STPQ_IO_INDEX_WRITER_H_
#define STPQ_IO_INDEX_WRITER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/atomic_file.h"
#include "io/index_file.h"
#include "io/index_format.h"
#include "util/logging.h"
#include "util/status.h"

namespace stpq {
namespace index_format {

inline constexpr size_t kStreamBufferBytes = size_t{1} << 20;

/// Buffered appender for one record segment: accumulates bytes, flushes to
/// the AtomicFile at a running offset, and folds everything written into
/// the segment checksum.  Errors are sticky and surface at Finish.
class SegmentWriter {
 public:
  SegmentWriter(AtomicFile* out, uint64_t offset)
      : out_(out), offset_(offset) {}

  template <typename T>
  void Pod(const T& v) {
    PutPod(&buf_, v);
    MaybeFlush();
  }

  void Str(const std::string& s) {
    PutString(&buf_, s);
    MaybeFlush();
  }

  [[nodiscard]] Status Finish(uint64_t* bytes, uint64_t* checksum) {
    Flush();
    STPQ_RETURN_NOT_OK(status_);
    *bytes = written_;
    *checksum = fnv_.Digest();
    return Status::OK();
  }

 private:
  void MaybeFlush() {
    if (buf_.size() >= kStreamBufferBytes) Flush();
  }

  void Flush() {
    if (buf_.empty()) return;
    if (status_.ok()) {
      status_ = out_->WriteAt(offset_ + written_, buf_.data(), buf_.size());
      fnv_.Update(buf_.data(), buf_.size());
      written_ += buf_.size();
    }
    buf_.clear();
  }

  AtomicFile* out_;
  const uint64_t offset_;
  std::string buf_;
  Status status_ = Status::OK();
  Fnv1a64Stream fnv_;
  uint64_t written_ = 0;
};

class IndexFileWriter {
 public:
  /// Starts the plan of a file holding `object_count` objects and
  /// `table_count` feature tables.
  IndexFileWriter(const IndexBuildParams& params, uint64_t object_count,
                  uint32_t table_count)
      : params_(params),
        object_count_(object_count),
        table_count_(table_count) {
    catalog_.push_back({kSegObjects, 0});
    for (uint32_t i = 0; i < table_count; ++i) {
      catalog_.push_back({kSegVocabulary, i});
      catalog_.push_back({kSegFeatureTable, i});
    }
    for (uint32_t tree = 0; tree <= table_count; ++tree) {
      const TreeSegments segs = SegmentsOfTree(tree);
      catalog_.push_back({segs.meta_type, segs.ordinal});
      CatalogEntry nodes{segs.nodes_type, segs.ordinal};
      nodes.first_page = TreePageBase(tree);
      catalog_.push_back(nodes);
    }
    tree_meta_.resize(size_t{table_count} + 1);
  }

  /// Plans record segment (type, ordinal) at `bytes` bytes.
  void PlanRecords(uint32_t type, uint32_t ordinal, uint64_t bytes) {
    Row(type, ordinal).bytes = bytes;
  }

  /// Plans tree `tree`'s metadata and node segments.  InvalidArgument if
  /// the tree has more nodes than the format allows.
  [[nodiscard]] Status PlanTree(uint32_t tree, const TreeMeta& meta,
                                const PageLayout& layout) {
    if (meta.node_count > kMaxNodeCount) {
      return Status::InvalidArgument(
          std::string(tree == 0 ? "object" : "feature") +
          " tree too large to persist");
    }
    std::string& blob = tree_meta_[tree];
    blob.clear();
    AppendTreeMeta(&blob, meta, layout);
    MetaRow(tree).bytes = blob.size();
    CatalogEntry& nodes = NodesRow(tree);
    nodes.slot_count = meta.node_count;
    nodes.slot_bytes = layout.slot_bytes(params_.page_size_bytes);
    nodes.bytes = nodes.slot_count * nodes.slot_bytes;
    return Status::OK();
  }

  /// Lays out every planned segment in catalog order — node segments
  /// page-aligned, so slot offsets are page offsets — and creates the
  /// temp file that Commit publishes at `path`.
  [[nodiscard]] Status Open(const std::string& path) {
    header_bytes_ = kSuperblockBytes + catalog_.size() * kCatalogEntryBytes;
    file_end_ = header_bytes_;
    uint64_t cursor = header_bytes_;
    for (CatalogEntry& e : catalog_) {
      if (e.type == kSegObjectTreeNodes || e.type == kSegFeatureTreeNodes) {
        cursor = AlignUp(cursor, params_.page_size_bytes);
      }
      e.offset = cursor;
      cursor += e.bytes;
      // Empty segments do not extend the file.
      if (e.bytes > 0) file_end_ = std::max(file_end_, cursor);
    }
    Result<AtomicFile> out = AtomicFile::Create(path);
    if (!out.ok()) return out.status();
    out_.emplace(out.TakeValue());
    return Status::OK();
  }

  /// Streams record segment (type, ordinal): `fill(SegmentWriter*)`
  /// encodes its records and returns a Status.  IoError if they differ in
  /// size from the plan (the source changed after it was sized).
  template <typename Fill>
  [[nodiscard]] Status WriteRecords(uint32_t type, uint32_t ordinal,
                                    const Fill& fill) {
    CatalogEntry& row = Row(type, ordinal);
    SegmentWriter seg(&*out_, row.offset);
    STPQ_RETURN_NOT_OK(fill(&seg));
    uint64_t written = 0;
    STPQ_RETURN_NOT_OK(seg.Finish(&written, &row.checksum));
    if (written != row.bytes) {
      return Status::IoError("segment '" + std::string(SegmentName(type)) +
                             "' #" + std::to_string(ordinal) + " changed " +
                             "size between planning and writing");
    }
    return Status::OK();
  }

  /// Encodes `node` as slot `id` of tree `tree` with the page encoder and
  /// writes it.
  [[nodiscard]] Status WriteNode(uint32_t tree, NodeId id,
                                 const PageNode& node,
                                 const PageLayout& layout) {
    const CatalogEntry& row = NodesRow(tree);
    if (kNodeHeaderBytes + node.entries.size() * layout.entry_bytes() >
        row.slot_bytes) {
      return Status::Internal("index node overflows its " +
                              std::to_string(row.slot_bytes) + "-byte slot");
    }
    slot_.assign(row.slot_bytes, 0);
    EncodeNodePage(node, layout, slot_.data());
    return WritePage(tree, id, slot_);
  }

  /// Writes `page` verbatim as slot `id` of tree `tree`; IoError unless it
  /// is exactly one slot wide.
  [[nodiscard]] Status WritePage(uint32_t tree, NodeId id,
                                 std::span<const uint8_t> page) {
    const CatalogEntry& row = NodesRow(tree);
    STPQ_CHECK(id < row.slot_count);
    if (page.size() != row.slot_bytes) {
      return Status::IoError("node page " + std::to_string(id) + " is " +
                             std::to_string(page.size()) + " bytes, not one " +
                             std::to_string(row.slot_bytes) + "-byte slot");
    }
    return out_->WriteAt(row.offset + uint64_t{id} * row.slot_bytes,
                         page.data(), page.size());
  }

  /// Writes tree `tree`'s metadata and checksums its node segment by
  /// reading it back (slots may arrive in any order, and the read-back
  /// verifies every slot write).  Call once all its slots are written.
  [[nodiscard]] Status FinishTree(uint32_t tree) {
    const std::string& blob = tree_meta_[tree];
    CatalogEntry& meta = MetaRow(tree);
    STPQ_RETURN_NOT_OK(out_->WriteAt(meta.offset, blob.data(), blob.size()));
    meta.checksum = Fnv1a64(blob.data(), blob.size());
    CatalogEntry& nodes = NodesRow(tree);
    Fnv1a64Stream fnv;
    std::string buf;
    for (uint64_t done = 0; done < nodes.bytes;) {
      buf.resize(std::min<uint64_t>(kStreamBufferBytes, nodes.bytes - done));
      STPQ_RETURN_NOT_OK(out_->ReadAt(nodes.offset + done, buf.data(),
                                      buf.size()));
      fnv.Update(buf.data(), buf.size());
      done += buf.size();
    }
    nodes.checksum = fnv.Digest();
    return Status::OK();
  }

  /// Writes the superblock and the catalog, sealed by the header checksum,
  /// sizes the file and commits it atomically (AtomicFile: fsync, rename,
  /// directory fsync).
  [[nodiscard]] Status Commit() {
    std::string header;
    header.reserve(header_bytes_);
    AppendSuperblock(&header, params_, object_count_, table_count_,
                     static_cast<uint32_t>(catalog_.size()));
    for (const CatalogEntry& e : catalog_) AppendCatalogEntry(&header, e);
    STPQ_CHECK(header.size() == header_bytes_);
    SealHeader(&header);
    STPQ_RETURN_NOT_OK(out_->Truncate(file_end_));
    STPQ_RETURN_NOT_OK(out_->WriteAt(0, header.data(), header.size()));
    return out_->Commit();
  }

  /// Final file size; valid after Open.
  [[nodiscard]] uint64_t file_bytes() const { return file_end_; }

 private:
  CatalogEntry& Row(uint32_t type, uint32_t ordinal) {
    for (CatalogEntry& e : catalog_) {
      if (e.type == type && e.ordinal == ordinal) return e;
    }
    STPQ_CHECK(false && "no such segment in the plan");
    return catalog_.front();
  }
  // Tree rows follow the 1 + 2T record rows: metadata, then nodes.
  CatalogEntry& MetaRow(uint32_t tree) {
    return catalog_[1 + 2 * (size_t{table_count_} + tree)];
  }
  CatalogEntry& NodesRow(uint32_t tree) {
    return catalog_[2 + 2 * (size_t{table_count_} + tree)];
  }

  const IndexBuildParams params_;
  const uint64_t object_count_;
  const uint32_t table_count_;
  std::vector<CatalogEntry> catalog_;
  std::vector<std::string> tree_meta_;  ///< encoded metadata, per tree
  uint64_t header_bytes_ = 0;
  uint64_t file_end_ = 0;
  std::optional<AtomicFile> out_;
  std::vector<uint8_t> slot_;
};

}  // namespace index_format
}  // namespace stpq

#endif  // STPQ_IO_INDEX_WRITER_H_
