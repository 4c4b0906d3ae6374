// Persistent index storage: one versioned file holding a whole index set.
//
// A .stpqx file packages everything an engine needs to answer queries
// without rebuilding (DESIGN.md §16): the data objects, every feature
// table, the vocabularies, and the node pages of the object R-tree and the
// per-table feature indexes (SRT or IR2).  Node segments are laid out in
// page-aligned fixed-width slots where slot index == NodeId, each slot one
// columnar node page (rtree/node_page.h), so a reopened engine reproduces
// the builder's page ids — and therefore its golden I/O counts — bit for
// bit, and reads every node in place from the mapped file.
//
// Layout (little-endian throughout, like the .stpq dataset format):
//
//   superblock   magic "STQX", version, build parameters, counts
//   catalog      one entry per segment: type, ordinal, offset, length,
//                page-id range + slot width (node segments), FNV-1a64
//                checksum
//   segments     objects | vocabulary/i | feature_table/i |
//                tree meta + page-aligned tree nodes (object tree and one
//                pair per feature table)
//
// Versioning policy: the major version is bumped on any change an older
// reader cannot skip; readers reject files whose version they do not know
// (InvalidArgument — a version 1 or 2 file is named as such, with a
// request to rebuild it), a superblock whose bulk-load field is not 0 (the
// STR- or insertion-built trees of older builds; InvalidArgument with the
// same request), build parameters or a table count CheckBuildParams
// refuses (InvalidArgument), bad magic (InvalidArgument), short reads
// (IoError), and checksum mismatches or structural damage (Corruption).
#ifndef STPQ_IO_INDEX_FILE_H_
#define STPQ_IO_INDEX_FILE_H_

#include <string>
#include <vector>

#include "index/build_params.h"
#include "index/feature_index.h"
#include "index/ir2_tree.h"
#include "index/object_index.h"
#include "index/srt_index.h"
#include "storage/page_store.h"
#include "text/vocabulary.h"
#include "util/result.h"
#include "util/status.h"

namespace stpq {

/// Borrowed views of everything WriteIndexFile persists.  The feature
/// indexes must match `params.index_kind` (SrtIndex / Ir2Tree), one per
/// table, in table order; `vocabularies` needs one entry per table.  The
/// indexes' node pages are written verbatim.
struct IndexFileWriteRequest {
  IndexBuildParams params;
  const std::vector<DataObject>* objects = nullptr;
  const std::vector<FeatureTable>* feature_tables = nullptr;
  const std::vector<Vocabulary>* vocabularies = nullptr;
  const ObjectIndex* object_index = nullptr;
  std::vector<const FeatureIndex*> feature_indexes;
};

/// Serializes the whole index set to `path` (overwriting, crash-safe)
/// through the one .stpqx writer (io/index_writer.h).  Typed errors:
/// InvalidArgument on a malformed request or on what CheckBuildParams
/// refuses (nothing is written then), IoError on write failure.
[[nodiscard]] Status WriteIndexFile(const std::string& path,
                                    const IndexFileWriteRequest& request);

/// Everything LoadIndexFile recovers.  `trees` holds each tree's shape in
/// tree order (TreePageBase numbering: the object tree, then one per
/// table); `extents` maps the node segments into the engine's page-id
/// namespace for FilePageStore, which serves the pages themselves.
struct LoadedIndex {
  IndexBuildParams params;
  std::vector<DataObject> objects;
  std::vector<FeatureTable> feature_tables;
  std::vector<Vocabulary> vocabularies;
  std::vector<TreeMeta> trees;
  std::vector<FilePageStore::Extent> extents;
};

/// Reads and verifies a file written by WriteIndexFile.  The superblock's
/// build parameters and table count must pass CheckBuildParams
/// (InvalidArgument otherwise, before any segment is read).  Every
/// segment's checksum is validated before parsing, and one pass over each
/// node segment checks every slot header and every leaf's record ids; no
/// node is kept.  See the file comment for the error taxonomy.
[[nodiscard]] Result<LoadedIndex> LoadIndexFile(const std::string& path);

/// One catalog row, decoded for display (`stpq_cli load`) and for the
/// crash-safety tests' segment-boundary truncation sweeps.
struct IndexSegmentInfo {
  std::string name;      ///< "objects", "feature_table", "srt_nodes", ...
  uint32_t ordinal = 0;  ///< table index for per-table segments
  uint64_t offset = 0;   ///< byte offset of the segment payload
  uint64_t bytes = 0;
  uint64_t slots = 0;       ///< node segments: slot (node) count
  uint32_t slot_bytes = 0;  ///< node segments: page-aligned slot width
};

/// Superblock + catalog summary without loading any segment payloads.
struct IndexFileInfo {
  uint32_t version = 0;
  IndexBuildParams params;
  uint64_t object_count = 0;
  uint32_t table_count = 0;
  uint64_t file_bytes = 0;
  std::vector<IndexSegmentInfo> segments;
};

[[nodiscard]] Result<IndexFileInfo> ReadIndexFileInfo(const std::string& path);

/// Reads only the vocabulary segments (checksum-verified): what a CLI
/// needs to parse query keywords against a prebuilt index.
[[nodiscard]] Result<std::vector<Vocabulary>> ReadIndexVocabularies(
    const std::string& path);

}  // namespace stpq

#endif  // STPQ_IO_INDEX_FILE_H_
