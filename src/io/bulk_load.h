// External-memory bulk loader: builds a .stpqx index file directly from a
// .stpq dataset in bounded memory.
//
// The in-memory path (Engine::Build + Engine::Save) materializes every
// record and every tree's page image before serializing; this loader
// never does.
// It streams the dataset twice:
//
//   survey pass    counts, record-segment sizes (the record encoders over
//                  a byte counter) and the sort domains — enough for the
//                  shared packer to fix every tree's shape and node ids,
//                  and for the writer to lay out the whole file up front.
//   content pass   streams the record segments into place and feeds each
//                  tree's leaf entries (the index classes' LeafEntry, the
//                  entry the page stores) through an external merge sort
//                  keyed by the HilbertSortKey of their sort points
//                  (LeafSortPoint), spilled as rows in their page's
//                  column encoding, into the shared packer
//                  (rtree/bulk_load.h), whose sink writes each node's
//                  fixed-width slot as it closes.
//
// Output: identical bytes to Engine::Build + Engine::Save over the same
// dataset and parameters, by construction — both builds pack through
// TreePacker, write through IndexFileWriter (io/index_writer.h), and take
// page layouts, leaf entries, sort points and signature widths from the
// index classes.  tests/bulk_load_test.cc guards it.
#ifndef STPQ_IO_BULK_LOAD_H_
#define STPQ_IO_BULK_LOAD_H_

#include <cstdint>
#include <string>

#include "io/index_file.h"
#include "util/result.h"
#include "util/status.h"

namespace stpq {

/// Knobs for BuildIndexFileExternal.
struct ExternalBuildOptions {
  /// Same parameters the in-memory writer records in the superblock.
  IndexBuildParams params;
  /// Approximate ceiling on working memory: bounds the sort buffer and
  /// the merge fan-in read buffers.  Must be at least 4096 bytes; small
  /// values force runs to spill, which the tests use to exercise the
  /// multi-pass merge.
  uint64_t memory_budget_bytes = uint64_t{256} << 20;
  /// Where sorted runs spill; empty = next to the output index.
  std::string temp_dir;
};

/// What the build did; surfaced by `stpq_cli build --external` and
/// mirrored into the stpq_bulk_* metrics.
struct ExternalBuildStats {
  uint64_t objects = 0;
  uint64_t features = 0;  ///< across all tables
  uint32_t tables = 0;
  uint64_t runs_written = 0;   ///< sorted run files (spills + merges)
  uint64_t merge_passes = 0;   ///< merge rounds, including the final one
  uint64_t spilled_bytes = 0;  ///< bytes written to run files
  uint64_t output_bytes = 0;   ///< final .stpqx size
};

/// Builds `index_path` from the .stpq dataset at `dataset_path` without
/// materializing the dataset or any tree in memory.  The write is
/// crash-safe (AtomicFile: tmp + fsync + rename).  Typed errors:
/// InvalidArgument for what CheckBuildParams refuses (the parameters, or
/// more feature tables than Engine::Open accepts; found by the survey
/// pass, before any file is created), for a memory budget below 4096
/// bytes or a malformed dataset, IoError for read/write failures.
[[nodiscard]] Result<ExternalBuildStats> BuildIndexFileExternal(
    const std::string& dataset_path, const std::string& index_path,
    const ExternalBuildOptions& options);

}  // namespace stpq

#endif  // STPQ_IO_BULK_LOAD_H_
