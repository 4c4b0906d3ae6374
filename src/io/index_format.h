// On-disk .stpqx format primitives shared by the writer (io/index_writer.h)
// and the reader (io/index_file.cc).
//
// Everything here is layout: magic numbers, segment naming, checksums,
// byte-buffer serializers, the record encoders, the node-entry codec with
// its per-index augmentation codecs, and the fixed-width node-slot
// geometry.  Each is defined once; the one writer and the reader both use
// these definitions, so they agree on every byte.
#ifndef STPQ_IO_INDEX_FORMAT_H_
#define STPQ_IO_INDEX_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "hilbert/keyword_hilbert.h"
#include "index/ir2_tree.h"
#include "index/srt_index.h"
#include "rtree/rtree.h"

namespace stpq {
namespace index_format {

inline constexpr uint32_t kIndexMagic = 0x58515453;  // "STQX" little-endian
inline constexpr uint32_t kIndexVersion = 1;

/// Fixed superblock / catalog-entry widths; the catalog starts right after
/// the superblock, segments after the catalog (node segments page-aligned).
inline constexpr size_t kSuperblockBytes = 52;
inline constexpr size_t kCatalogEntryBytes = 56;

/// Sanity caps against absurd counts in damaged headers (checksums cover
/// the segments, these cover the header itself).
inline constexpr uint32_t kMaxTables = 4096;
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

// ------------------------------------------------- augmentation codecs
//
// Fixed-width per-entry payloads; the word counts are derivable from the
// superblock parameters and double-checked against the tree metadata.

struct NoAugCodec {
  using Aug = NoAug;

  uint32_t aug_bits() const { return 0; }
  uint32_t aug_words() const { return 0; }
  uint32_t payload_bytes() const { return 0; }
  void Write(std::string*, const NoAug&) const {}
  bool Read(ByteReader&, NoAug*) const { return true; }
};

/// SrtAug persists {max score, aggregated Hilbert words}; the decoded
/// keyword cache is re-derived on read (DecodeKeywords is the exact
/// inverse of the encoding, so the rebuilt aug is identical).
struct SrtAugCodec {
  using Aug = SrtAug;

  uint32_t universe = 0;

  uint32_t aug_bits() const { return universe; }
  uint32_t aug_words() const { return (universe + 63) / 64; }
  uint32_t payload_bytes() const { return 8 + 8 * aug_words(); }

  void Write(std::string* out, const SrtAug& aug) const {
    PutPod(out, aug.max_score);
    const std::vector<uint64_t>& words = aug.keyword_hilbert.words();
    for (uint32_t w = 0; w < aug_words(); ++w) {
      PutPod<uint64_t>(out, w < words.size() ? words[w] : 0);
    }
  }

  bool Read(ByteReader& in, SrtAug* aug) const {
    if (!in.Pod(&aug->max_score)) return false;
    HilbertValue hv(universe);
    for (uint32_t w = 0; w < aug_words(); ++w) {
      uint64_t word = 0;
      if (!in.Pod(&word)) return false;
      if (w < hv.words().size()) hv.words()[w] = word;
    }
    aug->keywords = DecodeKeywords(hv, universe);
    aug->keyword_hilbert = std::move(hv);
    return true;
  }
};

/// Ir2Aug persists {max score, signature words}.
struct Ir2AugCodec {
  using Aug = Ir2Aug;

  uint32_t signature_bits = 0;

  uint32_t aug_bits() const { return signature_bits; }
  uint32_t aug_words() const { return (signature_bits + 63) / 64; }
  uint32_t payload_bytes() const { return 8 + 8 * aug_words(); }

  void Write(std::string* out, const Ir2Aug& aug) const {
    PutPod(out, aug.max_score);
    const std::vector<uint64_t>& words = aug.signature.words();
    for (uint32_t w = 0; w < aug_words(); ++w) {
      PutPod<uint64_t>(out, w < words.size() ? words[w] : 0);
    }
  }

  bool Read(ByteReader& in, Ir2Aug* aug) const {
    if (!in.Pod(&aug->max_score)) return false;
    std::vector<uint64_t> words(aug_words(), 0);
    for (uint32_t w = 0; w < aug_words(); ++w) {
      if (!in.Pod(&words[w])) return false;
    }
    aug->signature = Signature::FromWords(signature_bits, std::move(words));
    return true;
  }
};

/// The node-entry codec: D lo-doubles, D hi-doubles, the uint32
/// child/record id, then the augmentation payload.  Node slots, the
/// external loader's sort runs and the lazy node decoder all encode and
/// decode entries through it.
template <int D, typename AugCodec>
struct EntryCodec {
  static constexpr int kDims = D;
  using Aug = typename AugCodec::Aug;
  using Tree = RTree<D, Aug>;
  using Entry = typename Tree::Entry;

  AugCodec aug;

  uint32_t bytes() const { return 16u * D + 4u + aug.payload_bytes(); }

  void Write(std::string* out, const Entry& e) const {
    for (int d = 0; d < D; ++d) PutPod(out, e.rect.lo[d]);
    for (int d = 0; d < D; ++d) PutPod(out, e.rect.hi[d]);
    PutPod<uint32_t>(out, e.id);
    aug.Write(out, e.aug);
  }

  bool Read(ByteReader& in, Entry* e) const {
    bool ok = true;
    for (int d = 0; d < D && ok; ++d) ok = in.Pod(&e->rect.lo[d]);
    for (int d = 0; d < D && ok; ++d) ok = in.Pod(&e->rect.hi[d]);
    return ok && in.Pod(&e->id) && aug.Read(in, &e->aug);
  }
};

using ObjectEntryCodec = EntryCodec<2, NoAugCodec>;
using SrtEntryCodec = EntryCodec<4, SrtAugCodec>;
using Ir2EntryCodec = EntryCodec<2, Ir2AugCodec>;

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

// ------------------------------------------------------- slot geometry

/// Page-aligned fixed slot width for a node segment: the worst-case node
/// record (8-byte header + max_entries entries) rounded up to the page.
inline uint32_t SlotBytesFor(uint32_t max_entries, uint32_t entry_bytes,
                             uint32_t page_size) {
  const uint64_t max_node_bytes = 8ull + uint64_t{max_entries} * entry_bytes;
  return static_cast<uint32_t>(AlignUp(max_node_bytes, page_size));
}

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

/// Appends the 52-byte superblock.  `index_kind` / `bulk_load` are the raw
/// enum values so this header does not depend on io/index_file.h.
inline void AppendSuperblock(std::string* out, uint32_t page_size,
                             uint32_t index_kind, uint32_t bulk_load,
                             uint32_t signature_bits, uint32_t signature_hashes,
                             double fill, uint64_t object_count,
                             uint32_t table_count, uint32_t segment_count) {
  PutPod<uint32_t>(out, kIndexMagic);
  PutPod<uint32_t>(out, kIndexVersion);
  PutPod<uint32_t>(out, page_size);
  PutPod<uint32_t>(out, index_kind);
  PutPod<uint32_t>(out, bulk_load);
  PutPod<uint32_t>(out, signature_bits);
  PutPod<uint32_t>(out, signature_hashes);
  PutPod<double>(out, fill);
  PutPod<uint64_t>(out, object_count);
  PutPod<uint32_t>(out, table_count);
  PutPod<uint32_t>(out, segment_count);
}

/// What a tree-metadata segment records besides the augmentation layout.
struct TreeMeta {
  NodeId root = kInvalidNodeId;
  uint32_t height = 0;
  uint64_t size = 0;  ///< leaf records
  uint64_t node_count = 0;
  uint32_t max_entries = 0;
  std::vector<NodeId> free_nodes;
};

/// Appends a tree-metadata payload: root, height, record count, node
/// count, fan-out, aug layout, then the free list.
inline void AppendTreeMeta(std::string* out, const TreeMeta& m,
                           uint32_t aug_bits, uint32_t aug_words) {
  PutPod<uint32_t>(out, m.root);
  PutPod<uint32_t>(out, m.height);
  PutPod<uint64_t>(out, m.size);
  PutPod<uint32_t>(out, static_cast<uint32_t>(m.node_count));
  PutPod<uint32_t>(out, m.max_entries);
  PutPod<uint32_t>(out, aug_bits);
  PutPod<uint32_t>(out, aug_words);
  PutPod<uint32_t>(out, static_cast<uint32_t>(m.free_nodes.size()));
  for (NodeId id : m.free_nodes) PutPod<uint32_t>(out, id);
}

}  // namespace index_format
}  // namespace stpq

#endif  // STPQ_IO_INDEX_FORMAT_H_
