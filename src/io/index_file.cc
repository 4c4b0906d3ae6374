#include "io/index_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>

#include "hilbert/keyword_hilbert.h"
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
// catalog, then each small segment, and leaves the node segments on disk
// behind lazy per-node decoders.  The handle is shared (shared_ptr) with
// every decoder closure so the fd outlives the LoadedIndex parts.

class IndexFileHandle {
 public:
  [[nodiscard]] static Result<std::shared_ptr<IndexFileHandle>> Open(
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
    return std::shared_ptr<IndexFileHandle>(
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
  uint32_t magic = 0, index_kind = 0, bulk_load = 0;
  r.Pod(&magic);
  if (magic != kIndexMagic) {
    return Status::InvalidArgument("not a stpq index file: " + path);
  }
  r.Pod(&sb->version);
  if (sb->version != kIndexVersion) {
    return Status::InvalidArgument("unsupported stpq index version " +
                                   std::to_string(sb->version));
  }
  r.Pod(&sb->params.page_size_bytes);
  r.Pod(&index_kind);
  r.Pod(&bulk_load);
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
  if (bulk_load > static_cast<uint32_t>(BulkLoadKind::kInsert)) {
    return Status::Corruption("unknown bulk-load kind " +
                              std::to_string(bulk_load));
  }
  sb->params.index_kind = static_cast<FeatureIndexKind>(index_kind);
  sb->params.bulk_load = static_cast<BulkLoadKind>(bulk_load);
  if (sb->params.page_size_bytes == 0 || sb->table_count > kMaxTables ||
      sb->object_count > kMaxRecordCount) {
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

Status ParseObjects(std::string_view sv, uint64_t expected_count,
                    std::vector<DataObject>* out) {
  ByteReader r(sv.data(), sv.size());
  uint64_t count = 0;
  if (!r.Pod(&count) || count != expected_count ||
      count > kMaxRecordCount) {
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
  if (!r.Pod(&universe) || !r.Pod(&count) || count > kMaxRecordCount) {
    return Status::Corruption("feature-table segment header truncated");
  }
  const uint32_t expected_blocks = (universe + 63) / 64;
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
// Split in two: the metadata parse + one streaming verification pass over
// the node segment run eagerly at open (so a damaged file is rejected with
// the same typed errors as the old whole-file loader), while the node
// records themselves stay on disk behind a per-node decoder closure.

/// Parses the tree-metadata payload and cross-checks it against the node
/// segment's catalog entry.  Fills everything in `out` except `nodes`.
template <typename Codec>
Status ParseTreeMeta(std::string_view meta, const CatalogEntry& nodes_entry,
                     const Codec& codec, uint32_t expected_max_entries,
                     uint32_t page_size,
                     RestoredTreeData<Codec::kDims, typename Codec::Aug>* out) {
  ByteReader m(meta.data(), meta.size());
  uint32_t root = 0, height = 0, node_count = 0, max_entries = 0;
  uint32_t aug_bits = 0, aug_words = 0, free_count = 0;
  uint64_t size = 0;
  if (!m.Pod(&root) || !m.Pod(&height) || !m.Pod(&size) ||
      !m.Pod(&node_count) || !m.Pod(&max_entries) || !m.Pod(&aug_bits) ||
      !m.Pod(&aug_words) || !m.Pod(&free_count)) {
    return Status::Corruption("tree metadata segment too short");
  }
  if (aug_bits != codec.aug.aug_bits() || aug_words != codec.aug.aug_words()) {
    return Status::Corruption(
        "augmentation layout mismatch: file says " + std::to_string(aug_bits) +
        " bits / " + std::to_string(aug_words) + " words, parameters derive " +
        std::to_string(codec.aug.aug_bits()) + " / " +
        std::to_string(codec.aug.aug_words()));
  }
  if (max_entries != expected_max_entries) {
    return Status::Corruption(
        "node fan-out mismatch: file says " + std::to_string(max_entries) +
        ", page-size parameters derive " +
        std::to_string(expected_max_entries));
  }
  if (node_count > kMaxNodeCount || free_count > node_count) {
    return Status::Corruption("implausible tree node counts");
  }
  if (node_count != nodes_entry.slot_count) {
    return Status::Corruption("tree metadata and catalog disagree on the "
                              "node count");
  }
  if (nodes_entry.bytes !=
      nodes_entry.slot_count * uint64_t{nodes_entry.slot_bytes}) {
    return Status::Corruption("node segment size does not match its slots");
  }
  // The lazy decoder trusts the catalog's fixed slot width, so it must
  // equal the width the page-size parameters derive (the catalog itself
  // is not checksummed).
  const uint32_t expected_slot_bytes =
      SlotBytesFor(max_entries, codec.bytes(), page_size);
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
  out->free_nodes.reserve(free_count);
  for (uint32_t i = 0; i < free_count; ++i) {
    uint32_t id = 0;
    if (!m.Pod(&id)) return Status::Corruption("tree free list truncated");
    if (id >= node_count) {
      return Status::Corruption("free-list node id out of range");
    }
    out->free_nodes.push_back(id);
  }
  out->root = root;
  out->height = height;
  out->size = size;
  out->node_count = node_count;
  return Status::OK();
}

/// One streaming pass over a node segment: checksums every byte and
/// validates each slot header without retaining the payload.  A checksum
/// mismatch outranks a slot-header violation (the old whole-file loader
/// checksummed before parsing; damaged bytes usually trip both).
Status VerifyNodeSegment(const IndexFileHandle& file, const CatalogEntry& e,
                         uint32_t max_entries) {
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
        uint32_t count = 0;
        std::memcpy(&count, buf.data() + j * slot_bytes + 4, sizeof(count));
        if (count > max_entries) {
          bad_slot = Status::Corruption(
              "node " + std::to_string(i + j) + " claims " +
              std::to_string(count) + " entries, above the fan-out of " +
              std::to_string(max_entries));
        }
      }
      i += n;
    }
  }
  if (fnv.Digest() != e.checksum) {
    return ChecksumMismatch(e.type, e.ordinal);
  }
  return bad_slot;
}

/// Builds the per-node decoder closure for RTree::RestoreLazy.  Decoding
/// cannot fail on a verified segment: slots are fixed-width, every slot
/// header was validated (count <= max_entries implies every fixed-width
/// entry fits the slot), and the codecs read exact widths — so a failure
/// here means the file changed underneath us, which is a crash, not a
/// Status.
template <typename Codec>
std::function<void(NodeId, typename Codec::Tree::Node*)> MakeNodeDecoder(
    std::shared_ptr<IndexFileHandle> file, const CatalogEntry& entry,
    Codec codec) {
  const uint64_t offset = entry.offset;
  const uint32_t slot_bytes = entry.slot_bytes;
  return [file = std::move(file), offset, slot_bytes,
          codec](NodeId id, typename Codec::Tree::Node* node) {
    std::vector<char> buf(slot_bytes);
    const Status read =
        file->PreadExact(offset + uint64_t{id} * slot_bytes, buf.data(),
                         slot_bytes);
    STPQ_CHECK(read.ok() && "index node slot read failed");
    ByteReader r(buf.data(), slot_bytes);
    uint16_t level = 0, reserved = 0;
    uint32_t count = 0;
    STPQ_CHECK(r.Pod(&level) && r.Pod(&reserved) && r.Pod(&count));
    node->level = level;
    node->entries.reserve(count);
    for (uint32_t j = 0; j < count; ++j) {
      typename Codec::Entry e;
      STPQ_CHECK(codec.Read(r, &e) &&
                 "index node entry decode failed after verification");
      node->entries.push_back(std::move(e));
    }
  };
}

/// Eagerly verifies tree `tree` (meta + node segment, numbered as in
/// TreePageBase), wires up its lazy restore payload and maps its node
/// segment into the page-id namespace.
template <typename Codec>
Status LoadTree(const std::shared_ptr<IndexFileHandle>& file,
                const std::vector<CatalogEntry>& catalog, uint32_t tree,
                const Codec& codec, uint32_t expected_max_entries,
                uint32_t page_size,
                RestoredTreeData<Codec::kDims, typename Codec::Aug>* out,
                std::vector<FilePageStore::Extent>* extents) {
  const TreeSegments segs = SegmentsOfTree(tree);
  Result<std::string> meta =
      VerifiedSegment(*file, catalog, segs.meta_type, segs.ordinal);
  if (!meta.ok()) return meta.status();
  const CatalogEntry* entry = FindEntry(catalog, segs.nodes_type, segs.ordinal);
  if (entry == nullptr) return MissingSegment(segs.nodes_type, segs.ordinal);
  STPQ_RETURN_NOT_OK(ParseTreeMeta(meta.value(), *entry, codec,
                                   expected_max_entries, page_size, out));
  STPQ_RETURN_NOT_OK(VerifyNodeSegment(*file, *entry, expected_max_entries));
  // The catalog is not checksummed, and a wrong base would send every
  // page fetch of this tree outside its extent.
  if (entry->first_page != TreePageBase(tree)) {
    return Status::Corruption(std::string(SegmentName(segs.nodes_type)) +
                              " segment #" + std::to_string(segs.ordinal) +
                              " has the wrong page-id base");
  }
  out->decoder = MakeNodeDecoder(file, *entry, codec);
  if (entry->slot_count > 0) {
    extents->push_back(FilePageStore::Extent{
        entry->first_page, entry->slot_count, entry->offset,
        entry->slot_bytes});
  }
  return Status::OK();
}

/// Calls `fn(tree, rtree, codec)` for the object tree and then every
/// feature tree of `request`, in tree order (TreePageBase numbering).
template <typename Fn>
Status ForEachTree(const IndexFileWriteRequest& request, const Fn& fn) {
  STPQ_RETURN_NOT_OK(fn(0u, request.object_index->tree(), ObjectEntryCodec{}));
  const FeatureIndexKind kind = request.params.index_kind;
  for (uint32_t i = 0; i < request.feature_indexes.size(); ++i) {
    const FeatureIndex* index = request.feature_indexes[i];
    const auto* srt = dynamic_cast<const SrtIndex*>(index);
    const auto* ir2 = dynamic_cast<const Ir2Tree*>(index);
    if (kind == FeatureIndexKind::kSrt && srt != nullptr) {
      const uint32_t universe = (*request.feature_tables)[i].universe_size();
      STPQ_RETURN_NOT_OK(fn(i + 1, srt->tree(), SrtEntryCodec{{universe}}));
    } else if (kind == FeatureIndexKind::kIr2 && ir2 != nullptr) {
      const uint32_t bits = ir2->scheme().signature_bits();
      STPQ_RETURN_NOT_OK(fn(i + 1, ir2->tree(), Ir2EntryCodec{{bits}}));
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
  if (num_tables > kMaxTables) {
    return Status::InvalidArgument("too many feature tables to persist");
  }
  if (request.params.page_size_bytes == 0) {
    return Status::InvalidArgument("page_size_bytes must be nonzero");
  }

  IndexFileWriter writer(request.params, request.objects->size(),
                         static_cast<uint32_t>(num_tables));
  const auto plan_records = [&](uint32_t type, uint32_t ordinal,
                                const auto& encode) {
    ByteCounter counter;
    STPQ_RETURN_NOT_OK(encode(&counter));
    writer.PlanRecords(type, ordinal, counter.bytes());
    return Status::OK();
  };
  const auto plan_tree = [&](uint32_t t, const auto& tree, const auto& codec) {
    return writer.PlanTree(
        t,
        TreeMeta{tree.root_id(), tree.height(), tree.size(), tree.node_count(),
                 tree.options().max_entries, tree.free_nodes()},
        codec);
  };
  const auto write_records = [&](uint32_t type, uint32_t ordinal,
                                 const auto& encode) {
    return writer.WriteRecords(type, ordinal, encode);
  };
  const auto write_tree = [&](uint32_t t, const auto& tree,
                              const auto& codec) {
    // PeekNode decodes a lazily restored node in place without charging
    // the buffer pool.
    for (NodeId id = 0; id < tree.node_count(); ++id) {
      STPQ_RETURN_NOT_OK(writer.WriteNode(t, id, tree.PeekNode(id), codec));
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
  Result<std::shared_ptr<IndexFileHandle>> file_r = IndexFileHandle::Open(path);
  if (!file_r.ok()) return file_r.status();
  std::shared_ptr<IndexFileHandle> file = file_r.TakeValue();

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
  STPQ_RETURN_NOT_OK(LoadTree(file, catalog, 0, ObjectEntryCodec{},
                              ObjectIndex::FanOut(page), page,
                              &out.object_tree, &out.extents));
  for (uint32_t i = 0; i < sb.table_count; ++i) {
    const uint32_t universe = out.feature_tables[i].universe_size();
    switch (sb.params.index_kind) {
      case FeatureIndexKind::kSrt: {
        RestoredTreeData<4, SrtAug> tree;
        STPQ_RETURN_NOT_OK(LoadTree(file, catalog, i + 1,
                                    SrtEntryCodec{{universe}},
                                    SrtIndex::FanOut(page, universe), page,
                                    &tree, &out.extents));
        out.srt_trees.push_back(std::move(tree));
        break;
      }
      case FeatureIndexKind::kIr2: {
        const uint32_t bits =
            Ir2Tree::SignatureBits(sb.params.signature_bits, universe);
        RestoredTreeData<2, Ir2Aug> tree;
        STPQ_RETURN_NOT_OK(LoadTree(file, catalog, i + 1,
                                    Ir2EntryCodec{{bits}},
                                    Ir2Tree::FanOut(page, bits), page, &tree,
                                    &out.extents));
        out.ir2_trees.push_back(std::move(tree));
        break;
      }
    }
  }
  return out;
}

Result<IndexFileInfo> ReadIndexFileInfo(const std::string& path) {
  Result<std::shared_ptr<IndexFileHandle>> file_r = IndexFileHandle::Open(path);
  if (!file_r.ok()) return file_r.status();
  const std::shared_ptr<IndexFileHandle> file = file_r.TakeValue();
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
  Result<std::shared_ptr<IndexFileHandle>> file_r = IndexFileHandle::Open(path);
  if (!file_r.ok()) return file_r.status();
  const std::shared_ptr<IndexFileHandle> file = file_r.TakeValue();
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
