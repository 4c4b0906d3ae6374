#include "io/index_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string_view>
#include <utility>

#include "io/index_format.h"
#include "io/index_writer.h"
#include "util/logging.h"

namespace stpq {

using namespace index_format;  // NOLINT(build/namespaces) format primitives

namespace {

/// Decoded superblock, reader side.
struct Superblock {
  uint32_t version = 0;
  IndexBuildParams params;
  uint64_t object_count = 0;
  uint32_t table_count = 0;
  uint32_t segment_count = 0;
};

// -------------------------------------------------------- file plumbing
//
// The reader never loads the whole file: it preads the superblock and
// catalog, then each small segment, and streams each node segment once
// through verification.  The pages stay in the file, where the engine's
// FilePageStore reads them.

class IndexFileHandle {
 public:
  [[nodiscard]] static Result<std::unique_ptr<IndexFileHandle>> Open(
      const std::string& path) {
    int fd = -1;
    do {
      fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return Status::IoError("cannot open: " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IoError("cannot open: " + path);
    }
    return std::unique_ptr<IndexFileHandle>(
        new IndexFileHandle(path, fd, static_cast<uint64_t>(st.st_size)));
  }

  ~IndexFileHandle() { ::close(fd_); }

  IndexFileHandle(const IndexFileHandle&) = delete;
  IndexFileHandle& operator=(const IndexFileHandle&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] uint64_t size() const { return size_; }

  /// Reads exactly [offset, offset + n), retrying EINTR; a persistent
  /// short read (concurrent truncation) or hard error is an IoError.
  [[nodiscard]] Status PreadExact(uint64_t offset, char* out,
                                  uint64_t n) const {
    uint64_t done = 0;
    while (done < n) {
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(n - done, size_t{1} << 30));
      const ssize_t got =
          ::pread(fd_, out + done, want, static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("read failed: " + path_);
      }
      if (got == 0) return Status::IoError("read failed: " + path_);
      done += static_cast<uint64_t>(got);
    }
    return Status::OK();
  }

 private:
  IndexFileHandle(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  const std::string path_;
  const int fd_;
  const uint64_t size_;
};

/// Preads and parses superblock + catalog with bounds checks against the
/// physical file size.
Status ParseHeader(const IndexFileHandle& file, Superblock* sb,
                   std::vector<CatalogEntry>* catalog) {
  const std::string& path = file.path();
  if (file.size() < kSuperblockBytes) {
    return Status::IoError("truncated index file (no superblock): " + path);
  }
  char super[kSuperblockBytes];
  STPQ_RETURN_NOT_OK(file.PreadExact(0, super, kSuperblockBytes));
  ByteReader r(super, kSuperblockBytes);
  uint32_t magic = 0, index_kind = 0, packing = 0;
  r.Pod(&magic);
  if (magic != kIndexMagic) {
    return Status::InvalidArgument("not a stpq index file: " + path);
  }
  r.Pod(&sb->version);
  if (sb->version == 1 || sb->version == 2) {
    return Status::InvalidArgument(
        "index file '" + path + "' has format version " +
        std::to_string(sb->version) + "; this build reads version " +
        std::to_string(kIndexVersion) +
        " (columnar node pages without SRT score/H(W) extents) — rebuild "
        "it with stpq_cli build");
  }
  if (sb->version != kIndexVersion) {
    return Status::InvalidArgument("unsupported stpq index version " +
                                   std::to_string(sb->version));
  }
  r.Pod(&sb->params.page_size_bytes);
  r.Pod(&index_kind);
  r.Pod(&packing);
  r.Pod(&sb->params.signature_bits);
  r.Pod(&sb->params.signature_hashes);
  r.Pod(&sb->params.fill);
  r.Pod(&sb->object_count);
  r.Pod(&sb->table_count);
  if (!r.Pod(&sb->segment_count)) {
    return Status::IoError("truncated index superblock: " + path);
  }
  if (index_kind > static_cast<uint32_t>(FeatureIndexKind::kIr2)) {
    return Status::Corruption("unknown feature index kind " +
                              std::to_string(index_kind));
  }
  // Every tree is Hilbert-packed, recorded as 0.  Older builds could also
  // pack in STR (1) or insertion (2) order; their files are refused, as
  // versions 1 and 2 are.
  if (packing != 0) {
    return Status::InvalidArgument(
        "index file '" + path + "' records bulk-load order " +
        std::to_string(packing) +
        " in its superblock; this build reads only Hilbert-packed trees "
        "(bulk-load 0) — rebuild it with stpq_cli build");
  }
  sb->params.index_kind = static_cast<FeatureIndexKind>(index_kind);
  // Every reader refuses what every writer refuses, before any layout is
  // derived from these values.
  STPQ_RETURN_NOT_OK(CheckBuildParams(sb->params, sb->table_count));
  if (sb->object_count > kMaxRecordCount) {
    return Status::Corruption("implausible index superblock counts");
  }
  const uint32_t expected_segments = 3 + 4 * sb->table_count;
  if (sb->segment_count != expected_segments) {
    return Status::Corruption(
        "superblock names " + std::to_string(sb->segment_count) +
        " segments; " + std::to_string(sb->table_count) + " tables need " +
        std::to_string(expected_segments));
  }
  const uint64_t catalog_bytes =
      uint64_t{sb->segment_count} * kCatalogEntryBytes;
  if (file.size() - kSuperblockBytes < catalog_bytes) {
    return Status::IoError("truncated index catalog: " + path);
  }
  std::string raw(catalog_bytes, '\0');
  STPQ_RETURN_NOT_OK(
      file.PreadExact(kSuperblockBytes, raw.data(), catalog_bytes));
  ByteReader c(raw.data(), raw.size());
  catalog->reserve(sb->segment_count);
  for (uint32_t i = 0; i < sb->segment_count; ++i) {
    CatalogEntry e;
    uint32_t reserved = 0;
    c.Pod(&e.type);
    c.Pod(&e.ordinal);
    c.Pod(&e.offset);
    c.Pod(&e.bytes);
    c.Pod(&e.first_page);
    c.Pod(&e.slot_count);
    c.Pod(&e.slot_bytes);
    c.Pod(&reserved);
    if (!c.Pod(&e.checksum)) {
      return Status::IoError("truncated index catalog: " + path);
    }
    if (e.offset > file.size() || e.bytes > file.size() - e.offset) {
      return Status::IoError("truncated index file: segment '" +
                             std::string(SegmentName(e.type)) +
                             "' reaches past the end of " + path);
    }
    catalog->push_back(e);
  }
  return Status::OK();
}

const CatalogEntry* FindEntry(const std::vector<CatalogEntry>& cat,
                              uint32_t type, uint32_t ordinal) {
  for (const CatalogEntry& e : cat) {
    if (e.type == type && e.ordinal == ordinal) return &e;
  }
  return nullptr;
}

Status MissingSegment(uint32_t type, uint32_t ordinal) {
  return Status::Corruption("missing segment '" +
                            std::string(SegmentName(type)) + "' #" +
                            std::to_string(ordinal));
}

Status ChecksumMismatch(uint32_t type, uint32_t ordinal) {
  return Status::Corruption("checksum mismatch in segment '" +
                            std::string(SegmentName(type)) + "' #" +
                            std::to_string(ordinal));
}

/// Locates a small segment, preads its payload and verifies the checksum.
Result<std::string> VerifiedSegment(const IndexFileHandle& file,
                                    const std::vector<CatalogEntry>& cat,
                                    uint32_t type, uint32_t ordinal) {
  const CatalogEntry* e = FindEntry(cat, type, ordinal);
  if (e == nullptr) return MissingSegment(type, ordinal);
  std::string payload(e->bytes, '\0');
  STPQ_RETURN_NOT_OK(file.PreadExact(e->offset, payload.data(), e->bytes));
  if (Fnv1a64(payload.data(), payload.size()) != e->checksum) {
    return ChecksumMismatch(type, ordinal);
  }
  return payload;
}

// The fewest bytes a record takes (an empty name, no keyword blocks).  A
// count that needs more bytes than its segment holds is damage, rejected
// before anything is sized from it.
constexpr uint64_t kMinObjectBytes = 4 + 8 + 8 + 4;
constexpr uint64_t kMinFeatureBytes = 4 + 8 + 8 + 8 + 4 + 4;

Status ParseObjects(std::string_view sv, uint64_t expected_count,
                    std::vector<DataObject>* out) {
  ByteReader r(sv.data(), sv.size());
  uint64_t count = 0;
  if (!r.Pod(&count) || count != expected_count ||
      count > r.remaining() / kMinObjectBytes) {
    return Status::Corruption("objects segment header mismatch");
  }
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    DataObject o;
    if (!r.Pod(&o.id) || !r.Pod(&o.pos.x) || !r.Pod(&o.pos.y) ||
        !r.Str(&o.name)) {
      return Status::Corruption("object record truncated");
    }
    out->push_back(std::move(o));
  }
  return Status::OK();
}

Status ParseVocabulary(std::string_view sv, Vocabulary* out) {
  ByteReader r(sv.data(), sv.size());
  uint32_t n = 0;
  if (!r.Pod(&n)) return Status::Corruption("vocabulary segment truncated");
  for (uint32_t i = 0; i < n; ++i) {
    std::string term;
    if (!r.Str(&term)) return Status::Corruption("vocabulary term truncated");
    out->Intern(term);
  }
  return Status::OK();
}

Status ParseFeatureTable(std::string_view sv, FeatureTable* out) {
  ByteReader r(sv.data(), sv.size());
  uint32_t universe = 0;
  uint64_t count = 0;
  if (!r.Pod(&universe) || !r.Pod(&count)) {
    return Status::Corruption("feature-table segment header truncated");
  }
  if (universe > kMaxUniverse) {
    return Status::Corruption("feature-table universe " +
                              std::to_string(universe) + " exceeds the cap " +
                              std::to_string(kMaxUniverse));
  }
  const uint32_t expected_blocks = (universe + 63) / 64;
  if (count > r.remaining() / (kMinFeatureBytes + 8 * expected_blocks)) {
    return Status::Corruption("feature-table segment claims " +
                              std::to_string(count) +
                              " records, more than its bytes hold");
  }
  std::vector<FeatureObject> features;
  features.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    FeatureObject f;
    uint32_t block_count = 0;
    if (!r.Pod(&f.id) || !r.Pod(&f.pos.x) || !r.Pod(&f.pos.y) ||
        !r.Pod(&f.score) || !r.Pod(&block_count)) {
      return Status::Corruption("feature record truncated");
    }
    if (block_count != expected_blocks) {
      return Status::Corruption("feature keyword blocks do not match the "
                                "universe size");
    }
    if (uint64_t{block_count} * 8 > r.remaining()) {
      return Status::Corruption("feature keyword blocks truncated");
    }
    std::vector<uint64_t> blocks(block_count, 0);
    for (uint32_t b = 0; b < block_count; ++b) {
      if (!r.Pod(&blocks[b])) {
        return Status::Corruption("feature keyword blocks truncated");
      }
    }
    f.keywords = KeywordSet::FromBlocks(universe, std::move(blocks));
    if (!r.Str(&f.name)) {
      return Status::Corruption("feature name truncated");
    }
    features.push_back(std::move(f));
  }
  *out = FeatureTable(std::move(features), universe);
  return Status::OK();
}

// --------------------------------------------------------- tree reader
//
// Opening a tree parses its metadata and makes one streaming verification
// pass over its node segment (so a damaged file is rejected with a typed
// error at open), then maps the segment into the page-id namespace.  No
// node is decoded or kept: queries read the pages in place.

/// Parses the tree-metadata payload and cross-checks it against the node
/// segment's catalog entry and the layout the parameters derive.
Status ParseTreeMeta(std::string_view meta, const CatalogEntry& nodes_entry,
                     const PageLayout& layout, uint32_t expected_max_entries,
                     uint32_t page_size, TreeMeta* out) {
  ByteReader m(meta.data(), meta.size());
  uint32_t root = 0, height = 0, node_count = 0, max_entries = 0;
  uint32_t aug_bits = 0, aug_words = 0, free_count = 0;
  uint64_t size = 0;
  if (!m.Pod(&root) || !m.Pod(&height) || !m.Pod(&size) ||
      !m.Pod(&node_count) || !m.Pod(&max_entries) || !m.Pod(&aug_bits) ||
      !m.Pod(&aug_words) || !m.Pod(&free_count)) {
    return Status::Corruption("tree metadata segment too short");
  }
  if (aug_bits != layout.keyword_bits ||
      aug_words != layout.keyword_words()) {
    return Status::Corruption(
        "keyword column mismatch: file says " + std::to_string(aug_bits) +
        " bits / " + std::to_string(aug_words) + " words, parameters derive " +
        std::to_string(layout.keyword_bits) + " / " +
        std::to_string(layout.keyword_words()));
  }
  if (max_entries != expected_max_entries) {
    return Status::Corruption(
        "node fan-out mismatch: file says " + std::to_string(max_entries) +
        ", page-size parameters derive " +
        std::to_string(expected_max_entries));
  }
  if (node_count > kMaxNodeCount) {
    return Status::Corruption("implausible tree node counts");
  }
  // Every slot of a packed tree holds a node, so the writer always
  // records 0 here.
  if (free_count != 0) {
    return Status::Corruption("tree metadata lists " +
                              std::to_string(free_count) +
                              " free nodes; a packed tree has none");
  }
  if (node_count != nodes_entry.slot_count) {
    return Status::Corruption("tree metadata and catalog disagree on the "
                              "node count");
  }
  if (nodes_entry.bytes !=
      nodes_entry.slot_count * uint64_t{nodes_entry.slot_bytes}) {
    return Status::Corruption("node segment size does not match its slots");
  }
  // Page reads trust the catalog's fixed slot width, so it must equal the
  // width the page-size parameters derive (the catalog itself is not
  // checksummed).
  const uint32_t expected_slot_bytes =
      SlotBytesFor(max_entries, layout.entry_bytes(), page_size);
  if (nodes_entry.slot_bytes != expected_slot_bytes) {
    return Status::Corruption(
        "node slot width mismatch: catalog says " +
        std::to_string(nodes_entry.slot_bytes) +
        " bytes, page-size parameters derive " +
        std::to_string(expected_slot_bytes));
  }
  if (root != kInvalidNodeId && root >= node_count) {
    return Status::Corruption("tree root id out of range");
  }
  out->root = root;
  out->height = height;
  out->size = size;
  out->node_count = node_count;
  out->max_entries = max_entries;
  return Status::OK();
}

/// Checks one slot: it holds at least one entry and no more than the
/// fan-out, its level fits the tree height, and a leaf's record ids the
/// record set they index.  An internal entry's child id is checked where
/// it is followed: a child past the node segment is a page outside every
/// extent, which the page fetch reports as Corruption.
Status VerifySlot(const uint8_t* slot, uint32_t slot_bytes, NodeId id,
                  const PageLayout& layout, const TreeMeta& meta,
                  uint64_t record_count) {
  uint16_t level = 0;
  uint32_t count = 0;
  std::memcpy(&level, slot, sizeof(level));
  std::memcpy(&count, slot + 4, sizeof(count));
  if (count > meta.max_entries) {
    return Status::Corruption(
        "node " + std::to_string(id) + " claims " + std::to_string(count) +
        " entries, above the fan-out of " + std::to_string(meta.max_entries));
  }
  if (count == 0) {
    return Status::Corruption("node " + std::to_string(id) +
                              " has no entries");
  }
  if (level >= meta.height) {
    return Status::Corruption("node " + std::to_string(id) + " has level " +
                              std::to_string(level) + " in a tree of height " +
                              std::to_string(meta.height));
  }
  if (level > 0) return Status::OK();
  const NodeView leaf(PageView(std::span<const uint8_t>(slot, slot_bytes)),
                      layout, meta.max_entries);
  for (uint32_t i = 0; i < leaf.size(); ++i) {
    if (leaf.id(i) >= record_count) {
      return Status::Corruption(
          "leaf " + std::to_string(id) + " entry " + std::to_string(i) +
          " names record " + std::to_string(leaf.id(i)) + " of " +
          std::to_string(record_count));
    }
  }
  return Status::OK();
}

/// One streaming pass over a node segment: checksums every byte and
/// checks each slot (VerifySlot) without retaining the payload.  A
/// checksum mismatch outranks a slot violation (damaged bytes usually
/// trip both, and the checksum names the real cause).
Status VerifyNodeSegment(const IndexFileHandle& file, const CatalogEntry& e,
                         const PageLayout& layout, const TreeMeta& meta,
                         uint64_t record_count) {
  Fnv1a64Stream fnv;
  Status bad_slot = Status::OK();
  if (e.slot_count > 0) {
    const uint32_t slot_bytes = e.slot_bytes;
    const uint64_t chunk_slots =
        std::max<uint64_t>(1, (uint64_t{1} << 20) / slot_bytes);
    std::vector<char> buf(static_cast<size_t>(chunk_slots) * slot_bytes);
    for (uint64_t i = 0; i < e.slot_count;) {
      const uint64_t n = std::min(chunk_slots, e.slot_count - i);
      STPQ_RETURN_NOT_OK(file.PreadExact(e.offset + i * slot_bytes,
                                         buf.data(), n * slot_bytes));
      fnv.Update(buf.data(), static_cast<size_t>(n * slot_bytes));
      for (uint64_t j = 0; bad_slot.ok() && j < n; ++j) {
        bad_slot = VerifySlot(
            reinterpret_cast<const uint8_t*>(buf.data()) + j * slot_bytes,
            slot_bytes, static_cast<NodeId>(i + j), layout, meta,
            record_count);
      }
      i += n;
    }
  }
  if (fnv.Digest() != e.checksum) {
    return ChecksumMismatch(e.type, e.ordinal);
  }
  return bad_slot;
}

/// Verifies tree `tree` (meta + node segment, numbered as in
/// TreePageBase) holding `record_count` leaf records, and maps its node
/// segment into the page-id namespace.
Status LoadTree(const IndexFileHandle& file,
                const std::vector<CatalogEntry>& catalog, uint32_t tree,
                const PageLayout& layout, uint32_t expected_max_entries,
                uint32_t page_size, uint64_t record_count, TreeMeta* out,
                std::vector<FilePageStore::Extent>* extents) {
  const TreeSegments segs = SegmentsOfTree(tree);
  Result<std::string> meta =
      VerifiedSegment(file, catalog, segs.meta_type, segs.ordinal);
  if (!meta.ok()) return meta.status();
  const CatalogEntry* entry = FindEntry(catalog, segs.nodes_type, segs.ordinal);
  if (entry == nullptr) return MissingSegment(segs.nodes_type, segs.ordinal);
  STPQ_RETURN_NOT_OK(ParseTreeMeta(meta.value(), *entry, layout,
                                   expected_max_entries, page_size, out));
  STPQ_RETURN_NOT_OK(
      VerifyNodeSegment(file, *entry, layout, *out, record_count));
  // The catalog is not checksummed, and a wrong base would send every
  // page fetch of this tree outside its extent.
  if (entry->first_page != TreePageBase(tree)) {
    return Status::Corruption(std::string(SegmentName(segs.nodes_type)) +
                              " segment #" + std::to_string(segs.ordinal) +
                              " has the wrong page-id base");
  }
  if (entry->slot_count > 0) {
    extents->push_back(FilePageStore::Extent{
        entry->first_page, entry->slot_count, entry->offset,
        entry->slot_bytes});
  }
  return Status::OK();
}

/// Calls `fn(tree, paged_tree)` for the object tree and then every
/// feature tree of `request`, in tree order (TreePageBase numbering).
template <typename Fn>
Status ForEachTree(const IndexFileWriteRequest& request, const Fn& fn) {
  STPQ_RETURN_NOT_OK(fn(0u, request.object_index->tree()));
  const FeatureIndexKind kind = request.params.index_kind;
  for (uint32_t i = 0; i < request.feature_indexes.size(); ++i) {
    const FeatureIndex* index = request.feature_indexes[i];
    const auto* srt = dynamic_cast<const SrtIndex*>(index);
    const auto* ir2 = dynamic_cast<const Ir2Tree*>(index);
    if (kind == FeatureIndexKind::kSrt && srt != nullptr) {
      STPQ_RETURN_NOT_OK(fn(i + 1, srt->tree()));
    } else if (kind == FeatureIndexKind::kIr2 && ir2 != nullptr) {
      STPQ_RETURN_NOT_OK(fn(i + 1, ir2->tree()));
    } else {
      return Status::InvalidArgument(
          "feature index " + std::to_string(i) + " is not the " +
          (kind == FeatureIndexKind::kSrt ? "SrtIndex" : "Ir2Tree") +
          " that params.index_kind names");
    }
  }
  return Status::OK();
}

/// Calls `fn(type, ordinal, encode)` for every record segment of
/// `request`, in catalog order; `encode(out)` writes the segment's bytes
/// to any record sink (ByteCounter or SegmentWriter).
template <typename Fn>
Status ForEachRecordSegment(const IndexFileWriteRequest& request,
                            const Fn& fn) {
  const std::vector<DataObject>& objects = *request.objects;
  STPQ_RETURN_NOT_OK(fn(kSegObjects, 0u, [&](auto* out) {
    EncodeObjectsHeader(out, objects.size());
    for (const DataObject& o : objects) EncodeObject(out, o.id, o);
    return Status::OK();
  }));
  for (uint32_t i = 0; i < request.feature_tables->size(); ++i) {
    const Vocabulary& vocab = (*request.vocabularies)[i];
    STPQ_RETURN_NOT_OK(fn(kSegVocabulary, i, [&](auto* out) {
      EncodeVocabularyHeader(out, vocab.size());
      for (TermId t = 0; t < vocab.size(); ++t) EncodeTerm(out, vocab.Term(t));
      return Status::OK();
    }));
    const FeatureTable& table = (*request.feature_tables)[i];
    STPQ_RETURN_NOT_OK(fn(kSegFeatureTable, i, [&](auto* out) {
      EncodeFeatureTableHeader(out, table.universe_size(), table.size());
      for (const FeatureObject& f : table.All()) EncodeFeature(out, f.id, f);
      return Status::OK();
    }));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------- writer

Status WriteIndexFile(const std::string& path,
                      const IndexFileWriteRequest& request) {
  if (request.objects == nullptr || request.feature_tables == nullptr ||
      request.vocabularies == nullptr || request.object_index == nullptr) {
    return Status::InvalidArgument("index write request is missing a part");
  }
  const size_t num_tables = request.feature_tables->size();
  if (request.vocabularies->size() != num_tables ||
      request.feature_indexes.size() != num_tables) {
    return Status::InvalidArgument(
        "index write request needs one vocabulary and one feature index per "
        "table");
  }
  STPQ_RETURN_NOT_OK(CheckBuildParams(request.params, num_tables));

  IndexFileWriter writer(request.params, request.objects->size(),
                         static_cast<uint32_t>(num_tables));
  const auto plan_records = [&](uint32_t type, uint32_t ordinal,
                                const auto& encode) {
    ByteCounter counter;
    STPQ_RETURN_NOT_OK(encode(&counter));
    writer.PlanRecords(type, ordinal, counter.bytes());
    return Status::OK();
  };
  const auto plan_tree = [&](uint32_t t, const PagedTree& tree) {
    return writer.PlanTree(t, tree.meta(), tree.layout());
  };
  const auto write_records = [&](uint32_t type, uint32_t ordinal,
                                 const auto& encode) {
    return writer.WriteRecords(type, ordinal, encode);
  };
  const auto write_tree = [&](uint32_t t, const PagedTree& tree) {
    // The pages are written verbatim, read outside the buffer pools.
    for (NodeId id = 0; id < tree.node_count(); ++id) {
      const PageView page = tree.PeekPage(id);
      if (page.fault().failed()) {
        return tree.pages().FaultStatus(page.fault());
      }
      STPQ_RETURN_NOT_OK(writer.WritePage(t, id, page.bytes()));
    }
    return writer.FinishTree(t);
  };
  STPQ_RETURN_NOT_OK(ForEachRecordSegment(request, plan_records));
  STPQ_RETURN_NOT_OK(ForEachTree(request, plan_tree));
  STPQ_RETURN_NOT_OK(writer.Open(path));
  STPQ_RETURN_NOT_OK(ForEachRecordSegment(request, write_records));
  STPQ_RETURN_NOT_OK(ForEachTree(request, write_tree));
  return writer.Commit();
}

// ---------------------------------------------------------------- reader

Result<LoadedIndex> LoadIndexFile(const std::string& path) {
  Result<std::unique_ptr<IndexFileHandle>> file_r = IndexFileHandle::Open(path);
  if (!file_r.ok()) return file_r.status();
  const std::unique_ptr<IndexFileHandle> file = file_r.TakeValue();

  Superblock sb;
  std::vector<CatalogEntry> catalog;
  STPQ_RETURN_NOT_OK(ParseHeader(*file, &sb, &catalog));

  LoadedIndex out;
  out.params = sb.params;

  {
    Result<std::string> sv = VerifiedSegment(*file, catalog, kSegObjects, 0);
    if (!sv.ok()) return sv.status();
    STPQ_RETURN_NOT_OK(ParseObjects(sv.value(), sb.object_count, &out.objects));
  }
  out.vocabularies.resize(sb.table_count);
  out.feature_tables.resize(sb.table_count);
  for (uint32_t i = 0; i < sb.table_count; ++i) {
    Result<std::string> vv =
        VerifiedSegment(*file, catalog, kSegVocabulary, i);
    if (!vv.ok()) return vv.status();
    STPQ_RETURN_NOT_OK(ParseVocabulary(vv.value(), &out.vocabularies[i]));
    Result<std::string> tv =
        VerifiedSegment(*file, catalog, kSegFeatureTable, i);
    if (!tv.ok()) return tv.status();
    STPQ_RETURN_NOT_OK(ParseFeatureTable(tv.value(), &out.feature_tables[i]));
  }

  // Trees: the object tree, then one feature tree per table matching the
  // persisted index kind.
  const uint32_t page = sb.params.page_size_bytes;
  out.trees.resize(size_t{sb.table_count} + 1);
  STPQ_RETURN_NOT_OK(LoadTree(*file, catalog, 0, ObjectIndex::Layout(),
                              ObjectIndex::FanOut(page), page,
                              out.objects.size(), &out.trees[0],
                              &out.extents));
  for (uint32_t i = 0; i < sb.table_count; ++i) {
    const uint32_t universe = out.feature_tables[i].universe_size();
    const uint64_t records = out.feature_tables[i].size();
    if (sb.params.index_kind == FeatureIndexKind::kSrt) {
      STPQ_RETURN_NOT_OK(LoadTree(*file, catalog, i + 1,
                                  SrtIndex::Layout(universe),
                                  SrtIndex::FanOut(page, universe), page,
                                  records, &out.trees[i + 1], &out.extents));
    } else {
      const uint32_t bits =
          Ir2Tree::SignatureBits(sb.params.signature_bits, universe);
      STPQ_RETURN_NOT_OK(LoadTree(*file, catalog, i + 1,
                                  Ir2Tree::Layout(bits),
                                  Ir2Tree::FanOut(page, bits), page, records,
                                  &out.trees[i + 1], &out.extents));
    }
  }
  return out;
}

Result<IndexFileInfo> ReadIndexFileInfo(const std::string& path) {
  Result<std::unique_ptr<IndexFileHandle>> file_r = IndexFileHandle::Open(path);
  if (!file_r.ok()) return file_r.status();
  const std::unique_ptr<IndexFileHandle> file = file_r.TakeValue();
  Superblock sb;
  std::vector<CatalogEntry> catalog;
  STPQ_RETURN_NOT_OK(ParseHeader(*file, &sb, &catalog));
  IndexFileInfo info;
  info.version = sb.version;
  info.params = sb.params;
  info.object_count = sb.object_count;
  info.table_count = sb.table_count;
  info.file_bytes = file->size();
  info.segments.reserve(catalog.size());
  for (const CatalogEntry& e : catalog) {
    IndexSegmentInfo s;
    s.name = SegmentName(e.type);
    s.ordinal = e.ordinal;
    s.offset = e.offset;
    s.bytes = e.bytes;
    s.slots = e.slot_count;
    s.slot_bytes = e.slot_bytes;
    info.segments.push_back(std::move(s));
  }
  return info;
}

Result<std::vector<Vocabulary>> ReadIndexVocabularies(
    const std::string& path) {
  Result<std::unique_ptr<IndexFileHandle>> file_r = IndexFileHandle::Open(path);
  if (!file_r.ok()) return file_r.status();
  const std::unique_ptr<IndexFileHandle> file = file_r.TakeValue();
  Superblock sb;
  std::vector<CatalogEntry> catalog;
  STPQ_RETURN_NOT_OK(ParseHeader(*file, &sb, &catalog));
  std::vector<Vocabulary> vocabs(sb.table_count);
  for (uint32_t i = 0; i < sb.table_count; ++i) {
    Result<std::string> sv =
        VerifiedSegment(*file, catalog, kSegVocabulary, i);
    if (!sv.ok()) return sv.status();
    STPQ_RETURN_NOT_OK(ParseVocabulary(sv.value(), &vocabs[i]));
  }
  return vocabs;
}

}  // namespace stpq
