#include "io/bulk_load.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "index/ir2_tree.h"
#include "index/object_index.h"
#include "index/srt_index.h"
#include "io/dataset_io.h"
#include "io/index_format.h"
#include "io/index_writer.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "rtree/bulk_load.h"
#include "text/signature.h"
#include "util/logging.h"

namespace stpq {

using namespace index_format;  // NOLINT(build/namespaces) format primitives

namespace {

constexpr uint64_t kMinMemoryBudget = 4096;

// -------------------------------------------------------- external sort
//
// Fixed-width records [key u64][seq u64][entry blob]; the key is
// HilbertSortKey, `seq` the record's arrival position, so the (key, seq)
// order is exactly SortByHilbertKey's (key, original index) total order,
// and the blob the leaf entry in its page's column encoding
// (EncodeEntryRow, rtree/node_page.h).  Records accumulate in a bounded
// buffer; full buffers sort and spill to run files, runs merge with a
// bounded fan-in until one streaming pass can feed the consumer.

class ExternalSorter {
 public:
  ExternalSorter(uint32_t blob_bytes, uint64_t memory_budget,
                 std::string run_prefix)
      : blob_bytes_(blob_bytes),
        rec_bytes_(16 + blob_bytes),
        budget_(memory_budget),
        run_prefix_(std::move(run_prefix)) {
    const uint64_t sort_budget = std::max<uint64_t>(budget_ / 2, 4096);
    records_per_spill_ = std::clamp<uint64_t>(sort_budget / rec_bytes_, 1,
                                              uint64_t{1} << 30);
    buffer_.reserve(static_cast<size_t>(
        std::min<uint64_t>(records_per_spill_ * rec_bytes_, sort_budget)));
  }

  ~ExternalSorter() {
    for (const std::string& run : runs_) std::remove(run.c_str());
  }

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  [[nodiscard]] Status Add(uint64_t key, const char* blob) {
    const uint64_t seq = seq_++;
    buffer_.append(reinterpret_cast<const char*>(&key), 8);
    buffer_.append(reinterpret_cast<const char*>(&seq), 8);
    buffer_.append(blob, blob_bytes_);
    ++buffered_;
    if (buffered_ >= records_per_spill_) return SpillRun();
    return Status::OK();
  }

  /// Streams every record's blob in (key, seq) order.
  [[nodiscard]] Status Drain(
      const std::function<Status(const char*)>& fn) {
    if (runs_.empty()) {
      const std::vector<uint32_t> order = SortedOrder();
      for (uint32_t idx : order) {
        STPQ_RETURN_NOT_OK(fn(buffer_.data() + size_t{idx} * rec_bytes_ + 16));
      }
      buffer_.clear();
      buffered_ = 0;
      return Status::OK();
    }
    if (buffered_ > 0) STPQ_RETURN_NOT_OK(SpillRun());
    const size_t fan_in = static_cast<size_t>(
        std::clamp<uint64_t>(budget_ / (64 * 1024), 2, 64));
    // Reduction rounds: merge groups of fan_in runs into single runs
    // until one streaming pass can take them all.
    while (runs_.size() > fan_in) {
      std::vector<std::string> next;
      for (size_t i = 0; i < runs_.size(); i += fan_in) {
        const size_t end = std::min(runs_.size(), i + fan_in);
        if (end - i == 1) {
          next.push_back(runs_[i]);
          continue;
        }
        std::vector<std::string> group(runs_.begin() + i, runs_.begin() + end);
        std::string merged = NextRunPath();
        STPQ_RETURN_NOT_OK(MergeToRun(group, merged));
        next.push_back(std::move(merged));
      }
      runs_ = std::move(next);
      ++merge_passes_;
    }
    ++merge_passes_;  // the final streaming merge
    std::vector<std::string> last = std::move(runs_);
    runs_.clear();
    return MergeToSink(last, fn);
  }

  [[nodiscard]] uint64_t runs_written() const { return runs_written_; }
  [[nodiscard]] uint64_t merge_passes() const { return merge_passes_; }
  [[nodiscard]] uint64_t spilled_bytes() const { return spilled_bytes_; }

 private:
  /// Buffered reader over one sorted run file.
  class RunReader {
   public:
    RunReader(std::string path, uint32_t rec_bytes, size_t buf_records)
        : path_(std::move(path)),
          rec_bytes_(rec_bytes),
          in_(path_, std::ios::binary),
          buf_(std::max<size_t>(1, buf_records) * rec_bytes) {}

    [[nodiscard]] Status Open() {
      if (!in_.is_open()) {
        return Status::IoError("cannot open bulk-load run: " + path_);
      }
      return Refill();
    }

    [[nodiscard]] bool HasRecord() const { return pos_ < filled_; }
    [[nodiscard]] const char* Record() const { return buf_.data() + pos_; }
    [[nodiscard]] uint64_t Key() const { return PodAt(0); }
    [[nodiscard]] uint64_t Seq() const { return PodAt(8); }

    [[nodiscard]] Status Advance() {
      pos_ += rec_bytes_;
      if (pos_ >= filled_) return Refill();
      return Status::OK();
    }

    const std::string& path() const { return path_; }

   private:
    uint64_t PodAt(size_t off) const {
      uint64_t v = 0;
      std::memcpy(&v, buf_.data() + pos_ + off, 8);
      return v;
    }

    [[nodiscard]] Status Refill() {
      pos_ = 0;
      filled_ = 0;
      if (in_.eof()) return Status::OK();
      in_.read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
      if (in_.bad()) {
        return Status::IoError("bulk-load run read failed: " + path_);
      }
      filled_ = static_cast<size_t>(in_.gcount());
      if (filled_ % rec_bytes_ != 0) {
        return Status::IoError("bulk-load run truncated: " + path_);
      }
      return Status::OK();
    }

    std::string path_;
    uint32_t rec_bytes_;
    std::ifstream in_;
    std::vector<char> buf_;
    size_t pos_ = 0;
    size_t filled_ = 0;
  };

  std::string NextRunPath() {
    return run_prefix_ + ".run" + std::to_string(run_counter_++) + ".tmp";
  }

  std::vector<uint32_t> SortedOrder() const {
    std::vector<uint32_t> order(buffered_);
    for (uint64_t i = 0; i < buffered_; ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    const char* base = buffer_.data();
    const uint32_t rec = rec_bytes_;
    std::sort(order.begin(), order.end(), [base, rec](uint32_t a, uint32_t b) {
      uint64_t ka = 0, kb = 0, sa = 0, sb = 0;
      std::memcpy(&ka, base + size_t{a} * rec, 8);
      std::memcpy(&kb, base + size_t{b} * rec, 8);
      if (ka != kb) return ka < kb;
      std::memcpy(&sa, base + size_t{a} * rec + 8, 8);
      std::memcpy(&sb, base + size_t{b} * rec + 8, 8);
      return sa < sb;
    });
    return order;
  }

  [[nodiscard]] Status SpillRun() {
    const std::vector<uint32_t> order = SortedOrder();
    const std::string path = NextRunPath();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::IoError("cannot create bulk-load run: " + path);
    }
    for (uint32_t idx : order) {
      out.write(buffer_.data() + size_t{idx} * rec_bytes_, rec_bytes_);
    }
    out.flush();
    if (!out.good()) {
      std::remove(path.c_str());
      return Status::IoError("bulk-load run write failed: " + path);
    }
    runs_.push_back(path);
    ++runs_written_;
    spilled_bytes_ += buffered_ * uint64_t{rec_bytes_};
    buffer_.clear();
    buffered_ = 0;
    return Status::OK();
  }

  /// K-way merge of sorted runs into `fn`, smallest (key, seq) first.
  [[nodiscard]] Status MergeToSink(
      const std::vector<std::string>& inputs,
      const std::function<Status(const char*)>& fn) {
    const size_t per_reader_bytes = static_cast<size_t>(std::max<uint64_t>(
        rec_bytes_,
        std::min<uint64_t>(budget_ / (2 * std::max<size_t>(1, inputs.size())),
                           uint64_t{4} << 20)));
    std::vector<RunReader> readers;
    readers.reserve(inputs.size());
    for (const std::string& path : inputs) {
      readers.emplace_back(path, rec_bytes_, per_reader_bytes / rec_bytes_);
      STPQ_RETURN_NOT_OK(readers.back().Open());
    }
    struct HeapItem {
      uint64_t key;
      uint64_t seq;
      size_t src;
    };
    // Min-heap on (key, seq) via the standard heap algorithms with a
    // reversed comparator.
    const auto later = [](const HeapItem& a, const HeapItem& b) {
      return a.key != b.key ? a.key > b.key : a.seq > b.seq;
    };
    std::vector<HeapItem> heap;
    heap.reserve(readers.size());
    for (size_t i = 0; i < readers.size(); ++i) {
      if (readers[i].HasRecord()) {
        heap.push_back({readers[i].Key(), readers[i].Seq(), i});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const size_t src = heap.back().src;
      heap.pop_back();
      RunReader& reader = readers[src];
      STPQ_RETURN_NOT_OK(fn(reader.Record() + 16));
      STPQ_RETURN_NOT_OK(reader.Advance());
      if (reader.HasRecord()) {
        heap.push_back({reader.Key(), reader.Seq(), src});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    for (const std::string& path : inputs) std::remove(path.c_str());
    return Status::OK();
  }

  [[nodiscard]] Status MergeToRun(const std::vector<std::string>& inputs,
                                  const std::string& out_path) {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::IoError("cannot create bulk-load run: " + out_path);
    }
    uint64_t merged_bytes = 0;
    Status st = MergeToSink(inputs, [&](const char* blob) -> Status {
      // The sink gets the blob; the run needs the full record.  The key
      // and seq sit immediately before the blob in the reader's buffer.
      out.write(blob - 16, rec_bytes_);
      if (!out.good()) {
        return Status::IoError("bulk-load run write failed: " + out_path);
      }
      merged_bytes += rec_bytes_;
      return Status::OK();
    });
    if (!st.ok()) {
      std::remove(out_path.c_str());
      return st;
    }
    out.flush();
    if (!out.good()) {
      std::remove(out_path.c_str());
      return Status::IoError("bulk-load run write failed: " + out_path);
    }
    ++runs_written_;
    spilled_bytes_ += merged_bytes;  // intermediate merges re-spill
    return Status::OK();
  }

  const uint32_t blob_bytes_;
  const uint32_t rec_bytes_;
  const uint64_t budget_;
  const std::string run_prefix_;
  uint64_t records_per_spill_ = 0;

  std::string buffer_;
  uint64_t buffered_ = 0;
  uint64_t seq_ = 0;
  std::vector<std::string> runs_;
  uint64_t run_counter_ = 0;
  uint64_t runs_written_ = 0;
  uint64_t merge_passes_ = 0;
  uint64_t spilled_bytes_ = 0;
};

// ------------------------------------------------------------- survey

struct TableSurvey {
  uint32_t universe = 0;
  uint64_t feature_count = 0;
  uint32_t vocab_terms = 0;
  uint64_t vocab_bytes = 0;  ///< vocabulary segment size
  uint64_t table_bytes = 0;  ///< feature_table segment size
  Rect4 domain = Rect4::Empty();  ///< the feature tree's sort domain
};

struct Survey {
  uint64_t object_count = 0;
  uint64_t objects_bytes = 0;
  Rect4 object_domain = Rect4::Empty();
  uint32_t table_count = 0;
  std::vector<TableSurvey> tables;
};

/// A feature tree's build rules for the index kind: its page layout, and
/// the index class's sort point and leaf entry of each feature.
class FeatureRules {
 public:
  FeatureRules(const IndexBuildParams& params, uint32_t universe)
      : srt_(params.index_kind == FeatureIndexKind::kSrt),
        scheme_(Ir2Tree::SignatureBits(params.signature_bits, universe),
                params.signature_hashes),
        layout_(FeatureTreeLayout(params, universe)) {}

  [[nodiscard]] const PageLayout& layout() const { return layout_; }

  [[nodiscard]] SortPoint Point(const FeatureObject& f) const {
    return srt_ ? SrtIndex::LeafSortPoint(f) : Ir2Tree::LeafSortPoint(f);
  }

  [[nodiscard]] PageEntry Entry(uint32_t id, const FeatureObject& f) const {
    return srt_ ? SrtIndex::LeafEntry(id, f)
                : Ir2Tree::LeafEntry(id, f, scheme_);
  }

 private:
  bool srt_;
  SignatureScheme scheme_;
  PageLayout layout_;
};

/// First pass: counts, segment sizes (the record encoders over a
/// ByteCounter) and the sort domains, which fold the index classes' sort
/// points in dataset order exactly as the in-memory builds'
/// SortByHilbertKey does.
Status RunSurvey(const std::string& dataset_path,
                 const IndexBuildParams& params, Survey* survey) {
  Result<DatasetBinaryScanner> scan_r = DatasetBinaryScanner::Open(dataset_path);
  if (!scan_r.ok()) return scan_r.status();
  DatasetBinaryScanner scan = scan_r.TakeValue();
  survey->object_count = scan.object_count();
  ByteCounter objects;
  EncodeObjectsHeader(&objects, survey->object_count);
  STPQ_RETURN_NOT_OK(scan.ForEachObject([&](const DataObject& o) {
    EncodeObject(&objects, o.id, o);
    survey->object_domain.EnlargePoint(
        ObjectIndex::LeafSortPoint(o).coords);
  }));
  survey->objects_bytes = objects.bytes();
  Result<uint32_t> tables_r = scan.ReadTableCount();
  if (!tables_r.ok()) return tables_r.status();
  survey->table_count = tables_r.value();
  // The first use of `params` is below: refuse them, and the table count,
  // exactly as Engine::Build and Engine::Open do.
  STPQ_RETURN_NOT_OK(CheckBuildParams(params, survey->table_count));
  survey->tables.resize(survey->table_count);
  for (TableSurvey& t : survey->tables) {
    ByteCounter vocab;
    EncodeVocabularyHeader(&vocab, 0);  // sizes the header; count unknown
    STPQ_RETURN_NOT_OK(scan.ForEachVocabTerm([&](const std::string& term) {
      ++t.vocab_terms;
      EncodeTerm(&vocab, term);
    }));
    t.vocab_bytes = vocab.bytes();
    Result<DatasetBinaryScanner::TableHeader> h = scan.ReadTableHeader();
    if (!h.ok()) return h.status();
    t.universe = h.value().universe;
    t.feature_count = h.value().feature_count;
    if (t.feature_count > kMaxRecordCount) {
      return Status::InvalidArgument("feature table too large to persist");
    }
    const FeatureRules rules(params, t.universe);
    ByteCounter table;
    EncodeFeatureTableHeader(&table, t.universe, t.feature_count);
    STPQ_RETURN_NOT_OK(scan.ForEachFeature(
        t.universe, t.feature_count, [&](const FeatureObject& f) {
          EncodeFeature(&table, f.id, f);
          t.domain.EnlargePoint(rules.Point(f).coords);
        }));
    t.table_bytes = table.bytes();
  }
  return Status::OK();
}

// ------------------------------------------------------------- content

Status DatasetDrifted(const std::string& dataset_path) {
  return Status::IoError("dataset changed between bulk-load passes: " +
                         dataset_path);
}

std::string RunPrefix(const std::string& index_path,
                      const std::string& temp_dir, uint32_t ordinal) {
  std::string base = index_path;
  if (!temp_dir.empty()) {
    const size_t slash = index_path.find_last_of('/');
    base = temp_dir + "/" +
           (slash == std::string::npos ? index_path
                                       : index_path.substr(slash + 1));
  }
  return base + ".s" + std::to_string(ordinal);
}

/// Plans tree `tree` of `count` leaf entries laid out as `layout`, as the
/// shared packer shapes it.
Status PlanPackedTree(IndexFileWriter* writer, uint32_t tree, uint64_t count,
                      const PageLayout& layout,
                      const IndexBuildParams& params) {
  const TreePacker packer(count, layout.max_entries(params.page_size_bytes),
                          params.fill);
  return writer->PlanTree(tree, packer.meta(), layout);
}

/// One tree of the external build.  Its leaf entries go through an
/// external merge sort keyed by the HilbertSortKey of their sort points,
/// as rows in their page's column encoding, then through the shared
/// packer, whose sink writes each closed node's slot.
class ExternalTree {
 public:
  ExternalTree(uint32_t tree, uint64_t count, const PageLayout& layout,
               const IndexBuildParams& params, const Rect4& domain,
               uint64_t memory_budget, std::string run_prefix)
      : tree_(tree),
        layout_(layout),
        packer_(count, layout.max_entries(params.page_size_bytes),
                params.fill),
        domain_(domain),
        sorter_(layout.entry_bytes(), memory_budget, std::move(run_prefix)),
        row_(layout.entry_bytes()) {}

  /// Feeds one leaf entry, sorted by `point`, to the sort.
  [[nodiscard]] Status Add(const SortPoint& point, const PageEntry& e) {
    EncodeEntryRow(e, layout_, row_.data());
    return sorter_.Add(HilbertSortKey(point, domain_),
                       reinterpret_cast<const char*>(row_.data()));
  }

  /// Drains the sort through the packer into `writer`, finishes the tree
  /// and adds the sort's counters to `stats`.
  [[nodiscard]] Status Pack(IndexFileWriter* writer,
                            ExternalBuildStats* stats) {
    Status written = Status::OK();
    const auto sink = [&](NodeId id, const PageNode& node) {
      if (written.ok()) written = writer->WriteNode(tree_, id, node, layout_);
    };
    STPQ_RETURN_NOT_OK(sorter_.Drain([&](const char* row) {
      packer_.Add(
          DecodeEntryRow(reinterpret_cast<const uint8_t*>(row), layout_),
          sink);
      return written;
    }));
    packer_.Finish(sink);
    STPQ_RETURN_NOT_OK(written);
    stats->runs_written += sorter_.runs_written();
    stats->merge_passes += sorter_.merge_passes();
    stats->spilled_bytes += sorter_.spilled_bytes();
    return writer->FinishTree(tree_);
  }

 private:
  const uint32_t tree_;
  const PageLayout layout_;
  TreePacker packer_;
  const Rect4 domain_;
  ExternalSorter sorter_;
  std::vector<uint8_t> row_;
};

}  // namespace

Result<ExternalBuildStats> BuildIndexFileExternal(
    const std::string& dataset_path, const std::string& index_path,
    const ExternalBuildOptions& options) {
  const IndexBuildParams& params = options.params;
  if (options.memory_budget_bytes < kMinMemoryBudget) {
    return Status::InvalidArgument(
        "memory_budget_bytes must be at least " +
        std::to_string(kMinMemoryBudget));
  }

  ExternalBuildStats stats;

  // Phase 0: survey the dataset (counts, segment sizes, sort domains).
  Survey survey;
  {
    Span span(TraceEventType::kBuildPhase, 0);
    STPQ_RETURN_NOT_OK(RunSurvey(dataset_path, params, &survey));
  }
  if (survey.object_count > kMaxRecordCount) {
    return Status::InvalidArgument("too many objects to persist");
  }
  stats.objects = survey.object_count;
  stats.tables = survey.table_count;
  for (const TableSurvey& t : survey.tables) stats.features += t.feature_count;

  // Plan every segment and lay the file out.
  IndexFileWriter writer(params, survey.object_count, survey.table_count);
  writer.PlanRecords(kSegObjects, 0, survey.objects_bytes);
  STPQ_RETURN_NOT_OK(PlanPackedTree(&writer, 0, survey.object_count,
                                    ObjectIndex::Layout(), params));
  for (uint32_t i = 0; i < survey.table_count; ++i) {
    const TableSurvey& t = survey.tables[i];
    writer.PlanRecords(kSegVocabulary, i, t.vocab_bytes);
    writer.PlanRecords(kSegFeatureTable, i, t.table_bytes);
    STPQ_RETURN_NOT_OK(PlanPackedTree(&writer, i + 1, t.feature_count,
                                      FeatureTreeLayout(params, t.universe),
                                      params));
  }
  STPQ_RETURN_NOT_OK(writer.Open(index_path));

  // The content pass re-scans the dataset once; one sequential scanner
  // feeds phase 1 (objects) and phase 2 (tables) in file order.  One tree
  // sorts at a time, so each gets the whole memory budget.
  Result<DatasetBinaryScanner> scan_r =
      DatasetBinaryScanner::Open(dataset_path);
  if (!scan_r.ok()) return scan_r.status();
  DatasetBinaryScanner scan = scan_r.TakeValue();
  if (scan.object_count() != survey.object_count) {
    return DatasetDrifted(dataset_path);
  }
  const uint64_t budget = options.memory_budget_bytes;

  // Phase 1: stream the objects segment and pack the object tree.
  {
    Span span(TraceEventType::kBuildPhase, 1, survey.object_count);
    ExternalTree tree(0, survey.object_count, ObjectIndex::Layout(), params,
                      survey.object_domain, budget,
                      RunPrefix(index_path, options.temp_dir, 0));
    const auto objects = [&](SegmentWriter* seg) -> Status {
      EncodeObjectsHeader(seg, survey.object_count);
      uint64_t position = 0;
      Status fed = Status::OK();
      STPQ_RETURN_NOT_OK(scan.ForEachObject([&](const DataObject& o) {
        // Ids become positions, as Engine::Build assigns them.
        const auto id = static_cast<uint32_t>(position++);
        EncodeObject(seg, id, o);
        if (fed.ok()) {
          fed = tree.Add(ObjectIndex::LeafSortPoint(o),
                         ObjectIndex::LeafEntry(id, o));
        }
      }));
      STPQ_RETURN_NOT_OK(fed);
      if (position != survey.object_count) return DatasetDrifted(dataset_path);
      return Status::OK();
    };
    STPQ_RETURN_NOT_OK(writer.WriteRecords(kSegObjects, 0, objects));
    STPQ_RETURN_NOT_OK(tree.Pack(&writer, &stats));
  }

  // Phase 2: per table, stream the vocabulary and feature records and
  // pack the feature tree.
  {
    Span span(TraceEventType::kBuildPhase, 2, stats.features);
    Result<uint32_t> tables_r = scan.ReadTableCount();
    if (!tables_r.ok()) return tables_r.status();
    if (tables_r.value() != survey.table_count) {
      return DatasetDrifted(dataset_path);
    }
    for (uint32_t i = 0; i < survey.table_count; ++i) {
      const TableSurvey& t = survey.tables[i];
      const auto vocabulary = [&](SegmentWriter* seg) -> Status {
        EncodeVocabularyHeader(seg, t.vocab_terms);
        uint32_t terms = 0;
        STPQ_RETURN_NOT_OK(scan.ForEachVocabTerm([&](const std::string& term) {
          ++terms;
          EncodeTerm(seg, term);
        }));
        if (terms != t.vocab_terms) return DatasetDrifted(dataset_path);
        return Status::OK();
      };
      STPQ_RETURN_NOT_OK(writer.WriteRecords(kSegVocabulary, i, vocabulary));
      Result<DatasetBinaryScanner::TableHeader> h = scan.ReadTableHeader();
      if (!h.ok()) return h.status();
      if (h.value().universe != t.universe ||
          h.value().feature_count != t.feature_count) {
        return DatasetDrifted(dataset_path);
      }
      const FeatureRules rules(params, t.universe);
      ExternalTree tree(i + 1, t.feature_count, rules.layout(), params,
                        t.domain, budget,
                        RunPrefix(index_path, options.temp_dir, i + 1));
      const auto records = [&](SegmentWriter* seg) -> Status {
        EncodeFeatureTableHeader(seg, t.universe, t.feature_count);
        uint64_t position = 0;
        Status fed = Status::OK();
        STPQ_RETURN_NOT_OK(scan.ForEachFeature(
            t.universe, t.feature_count, [&](const FeatureObject& f) {
              // FeatureTable reassigns ids to positions.
              const auto id = static_cast<uint32_t>(position++);
              EncodeFeature(seg, id, f);
              if (fed.ok()) fed = tree.Add(rules.Point(f), rules.Entry(id, f));
            }));
        STPQ_RETURN_NOT_OK(fed);
        if (position != t.feature_count) return DatasetDrifted(dataset_path);
        return Status::OK();
      };
      STPQ_RETURN_NOT_OK(writer.WriteRecords(kSegFeatureTable, i, records));
      STPQ_RETURN_NOT_OK(tree.Pack(&writer, &stats));
    }
  }

  // Phase 3: header (superblock + catalog with the final checksums),
  // exact file size, durable commit.
  {
    Span span(TraceEventType::kBuildPhase, 3);
    STPQ_RETURN_NOT_OK(writer.Commit());
  }
  stats.output_bytes = writer.file_bytes();

  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics
      .GetCounter("stpq_bulk_runs_written_total",
                  "Sorted run files written by external bulk loads")
      .Increment(stats.runs_written);
  metrics
      .GetCounter("stpq_bulk_merge_passes_total",
                  "Merge passes performed by external bulk loads")
      .Increment(stats.merge_passes);
  metrics
      .GetCounter("stpq_bulk_spilled_bytes_total",
                  "Bytes spilled to sorted runs by external bulk loads")
      .Increment(stats.spilled_bytes);
  return stats;
}

}  // namespace stpq
