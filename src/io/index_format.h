// On-disk .stpqx format primitives shared by the writer (io/index_writer.h)
// and the reader (io/index_file.cc).
//
// Everything here is layout: magic numbers, segment naming, checksums,
// byte-buffer serializers, the record encoders and the header structs.
// Node slots are node pages (rtree/node_page.h: the page encoder, NodeView
// and the slot width).  Each is defined once; the one writer and the
// reader both use these definitions, so they agree on every byte.
#ifndef STPQ_IO_INDEX_FORMAT_H_
#define STPQ_IO_INDEX_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "index/build_params.h"
#include "index/feature.h"
#include "rtree/node_page.h"

namespace stpq {
namespace index_format {

inline constexpr uint32_t kIndexMagic = 0x58515453;  // "STQX" little-endian
/// Version 4 sizes every tree's nodes by the entry its page stores
/// (PageLayout::max_entries), so an IR2 node fits its page whatever the
/// signature width, and seals the superblock and catalog with a header
/// checksum.  Version 3 sized IR2 nodes by an older entry model, version 2
/// pages also carried the SRT entries' score and H(W) extents, and version
/// 1 stored row-wise entries; each is rejected with a request to rebuild.
inline constexpr uint32_t kIndexVersion = 4;

/// Fixed superblock / catalog-entry widths; the catalog starts right after
/// the superblock, segments after the catalog (node segments page-aligned).
inline constexpr size_t kSuperblockBytes = 52;
inline constexpr size_t kCatalogEntryBytes = 56;
/// Offset of the header checksum, a u32 in the superblock (the field
/// version 3 kept for its bulk-load order).
inline constexpr size_t kHeaderChecksumOffset = 16;
/// Offset of the segment count, the superblock's last field.
inline constexpr size_t kSegmentCountOffset = 48;

/// Sanity caps against absurd counts in damaged headers (checksums cover
/// the segments, these cover the header itself).  CheckBuildParams bounds
/// the superblock's build parameters and table count, and kMaxUniverse a
/// feature table's keyword universe.
inline constexpr uint32_t kMaxNodeCount = 1u << 28;
inline constexpr uint64_t kMaxRecordCount = uint64_t{1} << 33;

enum SegmentType : uint32_t {
  kSegObjects = 0,
  kSegVocabulary = 1,
  kSegFeatureTable = 2,
  kSegObjectTreeMeta = 3,
  kSegObjectTreeNodes = 4,
  kSegFeatureTreeMeta = 5,
  kSegFeatureTreeNodes = 6,
};

/// Catalog identity of tree `tree`, numbered as in TreePageBase: the
/// object tree is tree 0, feature index i is tree i + 1.
struct TreeSegments {
  uint32_t meta_type;
  uint32_t nodes_type;
  uint32_t ordinal;
};

inline TreeSegments SegmentsOfTree(uint32_t tree) {
  if (tree == 0) return {kSegObjectTreeMeta, kSegObjectTreeNodes, 0};
  return {kSegFeatureTreeMeta, kSegFeatureTreeNodes, tree - 1};
}

inline const char* SegmentName(uint32_t type) {
  switch (type) {
    case kSegObjects:
      return "objects";
    case kSegVocabulary:
      return "vocabulary";
    case kSegFeatureTable:
      return "feature_table";
    case kSegObjectTreeMeta:
      return "object_tree_meta";
    case kSegObjectTreeNodes:
      return "object_tree_nodes";
    case kSegFeatureTreeMeta:
      return "feature_tree_meta";
    case kSegFeatureTreeNodes:
      return "feature_tree_nodes";
  }
  return "unknown";
}

inline uint64_t Fnv1a64(const char* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Incremental FNV-1a64: feeding a segment through Update in any chunking
/// yields the same digest as one Fnv1a64 call over the whole payload.
class Fnv1a64Stream {
 public:
  void Update(const char* data, size_t n) {
    uint64_t h = h_;
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<uint8_t>(data[i]);
      h *= 1099511628211ULL;
    }
    h_ = h;
  }
  uint64_t Digest() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// The header checksum over `n` bytes of superblock and catalog: FNV-1a64
/// with the checksum field read as 0, folded to 32 bits.
inline uint32_t HeaderChecksum(const char* header, size_t n) {
  static constexpr char kZero[4] = {};
  Fnv1a64Stream fnv;
  fnv.Update(header, kHeaderChecksumOffset);
  fnv.Update(kZero, sizeof(kZero));
  fnv.Update(header + kHeaderChecksumOffset + sizeof(kZero),
             n - kHeaderChecksumOffset - sizeof(kZero));
  const uint64_t h = fnv.Digest();
  return static_cast<uint32_t>(h ^ (h >> 32));
}

/// Writes the checksum of `header` (superblock and catalog) into it.
inline void SealHeader(std::string* header) {
  const uint32_t checksum = HeaderChecksum(header->data(), header->size());
  std::memcpy(header->data() + kHeaderChecksumOffset, &checksum,
              sizeof(checksum));
}

inline uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

// Byte-buffer writers, mirroring dataset_io's stream helpers.
template <typename T>
void PutPod(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

inline void PutString(std::string* out, const std::string& s) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked reader over one segment's bytes.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Pod(T* v) {
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Bytes not yet read.
  [[nodiscard]] size_t remaining() const { return size_ - pos_; }

  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!Pod(&n)) return false;
    if (n > (1u << 24) || size_ - pos_ < n) return false;  // sanity cap
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ------------------------------------------------------ record encoders
//
// One encoder per record segment part, the only definition of its bytes.
// `Out` is a byte sink with Pod/Str: the writer's SegmentWriter streams
// records into the file, a ByteCounter sizes a segment before it is laid
// out.  The reader's Parse* functions (io/index_file.cc) are the inverses.

template <typename Out>
void EncodeObjectsHeader(Out* out, uint64_t count) {
  out->Pod(count);
}

template <typename Out>
void EncodeObject(Out* out, uint32_t id, const DataObject& o) {
  out->Pod(id);
  out->Pod(o.pos.x);
  out->Pod(o.pos.y);
  out->Str(o.name);
}

template <typename Out>
void EncodeVocabularyHeader(Out* out, uint32_t terms) {
  out->Pod(terms);
}

template <typename Out>
void EncodeTerm(Out* out, const std::string& term) {
  out->Str(term);
}

template <typename Out>
void EncodeFeatureTableHeader(Out* out, uint32_t universe, uint64_t count) {
  out->Pod(universe);
  out->Pod(count);
}

template <typename Out>
void EncodeFeature(Out* out, uint32_t id, const FeatureObject& f) {
  out->Pod(id);
  out->Pod(f.pos.x);
  out->Pod(f.pos.y);
  out->Pod(f.score);
  const std::vector<uint64_t>& blocks = f.keywords.blocks();
  out->Pod(static_cast<uint32_t>(blocks.size()));
  for (uint64_t b : blocks) out->Pod(b);
  out->Str(f.name);
}

/// Byte sink that only counts: sizes a record segment before layout.
class ByteCounter {
 public:
  template <typename T>
  void Pod(const T&) {
    bytes_ += sizeof(T);
  }
  void Str(const std::string& s) { bytes_ += 4 + s.size(); }
  [[nodiscard]] uint64_t bytes() const { return bytes_; }

 private:
  uint64_t bytes_ = 0;
};

// ------------------------------------------------------ header structs

struct CatalogEntry {
  uint32_t type = 0;
  uint32_t ordinal = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t first_page = 0;
  uint64_t slot_count = 0;
  uint32_t slot_bytes = 0;
  uint64_t checksum = 0;
};

/// Appends one 56-byte catalog row in file order.
inline void AppendCatalogEntry(std::string* out, const CatalogEntry& e) {
  PutPod<uint32_t>(out, e.type);
  PutPod<uint32_t>(out, e.ordinal);
  PutPod<uint64_t>(out, e.offset);
  PutPod<uint64_t>(out, e.bytes);
  PutPod<uint64_t>(out, e.first_page);
  PutPod<uint64_t>(out, e.slot_count);
  PutPod<uint32_t>(out, e.slot_bytes);
  PutPod<uint32_t>(out, 0u);  // reserved
  PutPod<uint64_t>(out, e.checksum);
}

/// Appends the 52-byte superblock: the build parameters, with the index
/// kind as its raw enum value.  The u32 after the kind is the header
/// checksum, written as 0 here and sealed (SealHeader) once the catalog
/// follows.
inline void AppendSuperblock(std::string* out, const IndexBuildParams& params,
                             uint64_t object_count, uint32_t table_count,
                             uint32_t segment_count) {
  PutPod<uint32_t>(out, kIndexMagic);
  PutPod<uint32_t>(out, kIndexVersion);
  PutPod<uint32_t>(out, params.page_size_bytes);
  PutPod<uint32_t>(out, static_cast<uint32_t>(params.index_kind));
  PutPod<uint32_t>(out, 0u);  // header checksum
  PutPod<uint32_t>(out, params.signature_bits);
  PutPod<uint32_t>(out, params.signature_hashes);
  PutPod<double>(out, params.fill);
  PutPod<uint64_t>(out, object_count);
  PutPod<uint32_t>(out, table_count);
  PutPod<uint32_t>(out, segment_count);
}

/// Appends a tree-metadata payload: root, height, record count, node
/// count, fan-out, keyword-column layout, then a free-node count that is
/// always 0 (every slot of a packed tree holds a node; the field keeps
/// the version 2 layout of the metadata).
inline void AppendTreeMeta(std::string* out, const TreeMeta& m,
                           const PageLayout& layout) {
  PutPod<uint32_t>(out, m.root);
  PutPod<uint32_t>(out, m.height);
  PutPod<uint64_t>(out, m.size);
  PutPod<uint32_t>(out, static_cast<uint32_t>(m.node_count));
  PutPod<uint32_t>(out, m.max_entries);
  PutPod<uint32_t>(out, layout.keyword_bits);
  PutPod<uint32_t>(out, layout.keyword_words());
  PutPod<uint32_t>(out, 0u);
}

}  // namespace index_format
}  // namespace stpq

#endif  // STPQ_IO_INDEX_FORMAT_H_
