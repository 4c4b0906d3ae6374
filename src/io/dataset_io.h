// Dataset serialization: CSV for interchange, a binary format for speed.
//
// The paper's corpora (factual.com extracts, synthetic sets) are flat
// tables; these readers/writers let users bring their own data instead of
// the built-in generators:
//
//   objects CSV:   id,x,y,name
//   features CSV:  id,x,y,score,keywords,name    (keywords = 'a|b|c')
//
// The binary format (.stpq) stores a whole Dataset (objects + all feature
// tables + vocabularies) with a magic/version header and explicit sizes;
// it is byte-order dependent (little-endian hosts) like most page formats.
#ifndef STPQ_IO_DATASET_IO_H_
#define STPQ_IO_DATASET_IO_H_

#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "gen/dataset.h"
#include "util/result.h"
#include "util/status.h"

namespace stpq {

// ---------------------------------------------------------------- CSV

/// Writes data objects as CSV (with header).
[[nodiscard]] Status WriteObjectsCsv(const std::string& path,
                       const std::vector<DataObject>& objects);

/// Reads data objects from CSV produced by WriteObjectsCsv (or compatible).
[[nodiscard]] Result<std::vector<DataObject>> ReadObjectsCsv(const std::string& path);

/// Writes one feature table as CSV; keyword ids are rendered through
/// `vocab` and joined with '|'.
[[nodiscard]] Status WriteFeaturesCsv(const std::string& path, const FeatureTable& table,
                        const Vocabulary& vocab);

/// Reads a feature table from CSV.  Keywords are interned into `vocab`
/// (which may start empty); the resulting table's universe is
/// `universe_size` if nonzero, else the final vocabulary size.
[[nodiscard]] Result<FeatureTable> ReadFeaturesCsv(const std::string& path,
                                     Vocabulary* vocab,
                                     uint32_t universe_size = 0);

// -------------------------------------------------------------- binary

/// Serializes a whole dataset to a .stpq binary file.  InvalidArgument,
/// and no file, for a table CheckUniverses refuses.
[[nodiscard]] Status WriteDatasetBinary(const std::string& path, const Dataset& dataset);

/// Loads a dataset written by WriteDatasetBinary, reading it through
/// DatasetBinaryScanner; rejects bad magic, unsupported versions, and
/// truncated files (a record count past the end of the file included).
[[nodiscard]] Result<Dataset> ReadDatasetBinary(const std::string& path);

/// Streaming cursor over a .stpq binary file: one sequential pass, record
/// by record, without ever materializing the Dataset.  The external bulk
/// loader opens two of these (a survey pass for counts/domains, then a
/// content pass), so its resident set stays bounded by its sort buffers.
///
/// Methods must be called in file order:
///
///   Open -> ForEachObject -> ReadTableCount ->
///   per table: ForEachVocabTerm -> ReadTableHeader -> ForEachFeature
///
/// ReadDatasetBinary is this scanner driven to the end, so both report
/// the same error codes and messages.
class DatasetBinaryScanner {
 public:
  struct TableHeader {
    uint32_t universe = 0;
    uint64_t feature_count = 0;
  };

  /// Opens `path` and consumes the magic/version/object-count header.
  [[nodiscard]] static Result<DatasetBinaryScanner> Open(
      const std::string& path);

  DatasetBinaryScanner(DatasetBinaryScanner&&) = default;
  DatasetBinaryScanner& operator=(DatasetBinaryScanner&&) = default;

  [[nodiscard]] uint64_t object_count() const { return object_count_; }

  /// Streams every object record through `fn` (the record is reused).
  [[nodiscard]] Status ForEachObject(
      const std::function<void(const DataObject&)>& fn);

  /// Reads the table count that follows the object records.
  [[nodiscard]] Result<uint32_t> ReadTableCount();

  /// Streams the next table's vocabulary terms, in TermId order.
  [[nodiscard]] Status ForEachVocabTerm(
      const std::function<void(const std::string&)>& fn);

  /// Reads the universe size + feature count of the next table; a
  /// universe above kMaxUniverse is InvalidArgument.
  [[nodiscard]] Result<TableHeader> ReadTableHeader();

  /// Streams the table's feature records; call with the header values
  /// ReadTableHeader just returned.
  [[nodiscard]] Status ForEachFeature(
      uint32_t universe, uint64_t count,
      const std::function<void(const FeatureObject&)>& fn);

 private:
  explicit DatasetBinaryScanner(std::ifstream in) : in_(std::move(in)) {}

  std::ifstream in_;
  uint64_t object_count_ = 0;
};

}  // namespace stpq

#endif  // STPQ_IO_DATASET_IO_H_
