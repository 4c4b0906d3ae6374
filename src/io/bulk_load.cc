#include "io/bulk_load.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "geom/rect.h"
#include "hilbert/hilbert.h"
#include "hilbert/keyword_hilbert.h"
#include "index/ir2_tree.h"
#include "index/srt_index.h"
#include "io/atomic_file.h"
#include "io/dataset_io.h"
#include "io/index_format.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "rtree/rtree.h"
#include "text/signature.h"
#include "util/logging.h"

namespace stpq {

using namespace index_format;  // NOLINT(build/namespaces) format primitives

namespace {

constexpr uint32_t kMinExternalPageSize = 64;  // engine.cc kMinPageSizeBytes
constexpr uint64_t kMinMemoryBudget = 4096;
constexpr size_t kStreamBufferBytes = size_t{1} << 20;

// --------------------------------------------------------- tree geometry
//
// BulkLoadSorted's shape is fully determined by (entry count, fan-out,
// fill): leaves take `per_node` sorted records each, every parent level
// chunks its children `per_node` at a time, node ids are assigned level by
// level bottom-up.  Computing that shape up front lets the packer write
// every slot at its final id the moment the node closes.

struct TreeLayout {
  uint64_t entry_count = 0;
  uint32_t max_entries = 0;
  uint32_t per_node = 0;
  uint32_t entry_bytes = 0;
  uint32_t slot_bytes = 0;
  std::vector<uint64_t> level_counts;  ///< nodes per level, leaves first
  std::vector<uint64_t> level_base;    ///< first node id of each level
  uint64_t node_count = 0;
  uint32_t height = 0;
  uint32_t root = kInvalidNodeId;
};

TreeLayout ComputeTreeLayout(uint64_t entry_count, uint32_t max_entries,
                             double fill, uint32_t entry_bytes,
                             uint32_t page_size) {
  TreeLayout l;
  l.entry_count = entry_count;
  l.max_entries = max_entries;
  l.entry_bytes = entry_bytes;
  l.slot_bytes = SlotBytesFor(max_entries, entry_bytes, page_size);
  // Mirrors RTree: min_entries = max(2, max_entries * min_fill) with the
  // default min_fill of 0.4, then per_node clamped into [min, max].
  const uint32_t min_entries =
      std::max<uint32_t>(2, static_cast<uint32_t>(max_entries * 0.4));
  uint32_t per_node = std::max<uint32_t>(
      min_entries, static_cast<uint32_t>(max_entries * fill));
  l.per_node = std::min(per_node, max_entries);
  if (entry_count == 0) return l;  // root stays invalid, height 0
  l.level_counts.push_back((entry_count + l.per_node - 1) / l.per_node);
  while (l.level_counts.back() > 1) {
    const uint64_t prev = l.level_counts.back();
    l.level_counts.push_back((prev + l.per_node - 1) / l.per_node);
  }
  l.level_base.resize(l.level_counts.size());
  uint64_t base = 0;
  for (size_t i = 0; i < l.level_counts.size(); ++i) {
    l.level_base[i] = base;
    base += l.level_counts[i];
  }
  l.node_count = base;
  l.height = static_cast<uint32_t>(l.level_counts.size());
  l.root = static_cast<uint32_t>(l.node_count - 1);
  return l;
}

/// Hilbert key of a rectangle center within `domain`, exactly as
/// SortByHilbertKey computes it (bits_per_dim = 16 in every builder).
template <int D>
uint64_t HilbertKeyForRect(const Rect<D>& rect, const Rect<D>& domain) {
  double unit[D];
  for (int d = 0; d < D; ++d) {
    const double extent = domain.hi[d] - domain.lo[d];
    unit[d] =
        extent > 0.0 ? (rect.Center(d) - domain.lo[d]) / extent : 0.0;
  }
  return HilbertKeyFromUnit(unit, /*b=*/16, D);
}

// -------------------------------------------------------- external sort
//
// Fixed-width records [key u64][seq u64][entry blob]; `seq` is the
// record's arrival position, so the (key, seq) order is exactly
// SortByHilbertKey's (key, original index) total order.  Records
// accumulate in a bounded buffer; full buffers sort and spill to run
// files, runs merge with a bounded fan-in until one streaming pass can
// feed the consumer.

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

// --------------------------------------------------------- level packer
//
// Consumes leaf entries in sorted order and emits finished node slots
// bottom-up: a node closes the moment it holds `per_node` entries, its
// summary entry (MBR union + Aug merge, exactly RTree::SummarizeNode)
// cascades into the parent level's buffer.  Node ids come from the
// precomputed level bases, so the interleaved close order still writes
// every slot exactly where BulkLoadSorted's level-synchronous pass would.

template <int D, typename Aug, typename Codec>
class LevelPacker {
 public:
  using Entry = typename RTree<D, Aug>::Entry;

  LevelPacker(AtomicFile* out, uint64_t seg_offset, const TreeLayout* layout,
              Codec codec)
      : out_(out),
        seg_offset_(seg_offset),
        layout_(layout),
        codec_(std::move(codec)),
        buffers_(layout->height),
        closed_(layout->height, 0) {
    for (auto& b : buffers_) b.reserve(layout->per_node);
  }

  /// Parses one serialized leaf entry (the sorter blob) and adds it.
  [[nodiscard]] Status AddLeafBlob(const char* blob) {
    ByteReader r(blob, layout_->entry_bytes);
    Entry e;
    bool ok = true;
    for (int d = 0; d < D && ok; ++d) ok = r.Pod(&e.rect.lo[d]);
    for (int d = 0; d < D && ok; ++d) ok = r.Pod(&e.rect.hi[d]);
    ok = ok && r.Pod(&e.id) && codec_.Read(r, &e.aug);
    STPQ_CHECK(ok && "bulk-load entry blob decode failed");
    ++leaves_added_;
    return AddEntry(0, std::move(e));
  }

  /// Flushes every partially filled level, cascading summaries upward.
  [[nodiscard]] Status Finish() {
    if (leaves_added_ != layout_->entry_count) {
      return Status::Internal("bulk load fed " +
                              std::to_string(leaves_added_) +
                              " records to a tree laid out for " +
                              std::to_string(layout_->entry_count));
    }
    for (uint32_t level = 0; level < layout_->height; ++level) {
      if (!buffers_[level].empty()) STPQ_RETURN_NOT_OK(CloseNode(level));
    }
    for (uint32_t level = 0; level < layout_->height; ++level) {
      if (closed_[level] != layout_->level_counts[level]) {
        return Status::Internal("bulk load closed " +
                                std::to_string(closed_[level]) +
                                " nodes at level " + std::to_string(level) +
                                ", layout expects " +
                                std::to_string(layout_->level_counts[level]));
      }
    }
    return Status::OK();
  }

 private:
  [[nodiscard]] Status AddEntry(uint32_t level, Entry e) {
    buffers_[level].push_back(std::move(e));
    if (buffers_[level].size() == layout_->per_node) return CloseNode(level);
    return Status::OK();
  }

  [[nodiscard]] Status CloseNode(uint32_t level) {
    std::vector<Entry>& buf = buffers_[level];
    const uint64_t id = layout_->level_base[level] + closed_[level];
    ++closed_[level];
    slot_.clear();
    PutPod<uint16_t>(&slot_, static_cast<uint16_t>(level));
    PutPod<uint16_t>(&slot_, 0);
    PutPod<uint32_t>(&slot_, static_cast<uint32_t>(buf.size()));
    for (const Entry& e : buf) {
      for (int d = 0; d < D; ++d) PutPod(&slot_, e.rect.lo[d]);
      for (int d = 0; d < D; ++d) PutPod(&slot_, e.rect.hi[d]);
      PutPod<uint32_t>(&slot_, e.id);
      codec_.Write(&slot_, e.aug);
    }
    if (slot_.size() > layout_->slot_bytes) {
      return Status::Internal("index node overflows its slot: " +
                              std::to_string(slot_.size()) + " > " +
                              std::to_string(layout_->slot_bytes) + " bytes");
    }
    slot_.resize(layout_->slot_bytes);  // zero-pad to the slot boundary
    STPQ_RETURN_NOT_OK(out_->WriteAt(seg_offset_ + id * layout_->slot_bytes,
                                     slot_.data(), slot_.size()));
    Entry summary;
    summary.id = static_cast<uint32_t>(id);
    summary.rect = buf.front().rect;
    summary.aug = buf.front().aug;
    for (size_t i = 1; i < buf.size(); ++i) {
      summary.rect.Enlarge(buf[i].rect);
      summary.aug = Aug::Merge(summary.aug, buf[i].aug);
    }
    buf.clear();
    if (level + 1 < layout_->height) {
      return AddEntry(level + 1, std::move(summary));
    }
    return Status::OK();  // the root's summary has no parent
  }

  AtomicFile* out_;
  const uint64_t seg_offset_;
  const TreeLayout* layout_;
  const Codec codec_;
  std::vector<std::vector<Entry>> buffers_;
  std::vector<uint64_t> closed_;
  std::string slot_;
  uint64_t leaves_added_ = 0;
};

// ------------------------------------------------------ segment writing

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

/// Checksums `[offset, offset + bytes)` of the temp file by reading it
/// back in chunks — node slots are written out of level order, so their
/// segment digest is only computable after the fact.  Doubles as a
/// read-back verification of every node write.
Result<uint64_t> ChecksumRange(const AtomicFile& out, uint64_t offset,
                               uint64_t bytes) {
  Fnv1a64Stream fnv;
  std::vector<char> buf(kStreamBufferBytes);
  uint64_t done = 0;
  while (done < bytes) {
    const uint64_t n = std::min<uint64_t>(buf.size(), bytes - done);
    STPQ_RETURN_NOT_OK(out.ReadAt(offset + done, buf.data(), n));
    fnv.Update(buf.data(), static_cast<size_t>(n));
    done += n;
  }
  return fnv.Digest();
}

// ------------------------------------------------------- survey + plan

struct TableSurvey {
  uint32_t universe = 0;
  uint64_t feature_count = 0;
  uint32_t vocab_terms = 0;
  uint64_t vocab_bytes = 0;  ///< vocabulary segment payload size
  uint64_t table_bytes = 0;  ///< feature_table segment payload size
  Rect4 srt_domain = Rect4::Empty();
  Rect2 ir2_domain = Rect2::Empty();
};

struct Survey {
  uint64_t object_count = 0;
  uint64_t objects_bytes = 0;
  Rect2 object_domain = Rect2::Empty();
  uint32_t table_count = 0;
  std::vector<TableSurvey> tables;
};

/// First pass: counts, serialized segment sizes, and sort domains.  The
/// domains fold in dataset order, matching the in-memory builders'
/// ComputeDomain folds bit for bit.
Status RunSurvey(const std::string& dataset_path,
                 const IndexBuildParams& params, Survey* survey) {
  Result<DatasetBinaryScanner> scan_r = DatasetBinaryScanner::Open(dataset_path);
  if (!scan_r.ok()) return scan_r.status();
  DatasetBinaryScanner scan = scan_r.TakeValue();
  survey->object_count = scan.object_count();
  survey->objects_bytes = 8;
  STPQ_RETURN_NOT_OK(scan.ForEachObject([&](const DataObject& o) {
    survey->objects_bytes += 4 + 8 + 8 + 4 + o.name.size();
    survey->object_domain.EnlargePoint({o.pos.x, o.pos.y});
  }));
  Result<uint32_t> tables_r = scan.ReadTableCount();
  if (!tables_r.ok()) return tables_r.status();
  survey->table_count = tables_r.value();
  if (survey->table_count > kMaxTables) {
    return Status::InvalidArgument("too many feature tables to persist");
  }
  survey->tables.resize(survey->table_count);
  for (uint32_t i = 0; i < survey->table_count; ++i) {
    TableSurvey& t = survey->tables[i];
    t.vocab_bytes = 4;
    STPQ_RETURN_NOT_OK(scan.ForEachVocabTerm([&](const std::string& term) {
      ++t.vocab_terms;
      t.vocab_bytes += 4 + term.size();
    }));
    Result<DatasetBinaryScanner::TableHeader> h = scan.ReadTableHeader();
    if (!h.ok()) return h.status();
    t.universe = h.value().universe;
    t.feature_count = h.value().feature_count;
    if (t.feature_count > kMaxRecordCount) {
      return Status::InvalidArgument("feature table too large to persist");
    }
    const uint64_t blocks = (t.universe + 63) / 64;
    t.table_bytes = 4 + 8;
    const bool srt = params.index_kind == FeatureIndexKind::kSrt;
    STPQ_RETURN_NOT_OK(scan.ForEachFeature(
        t.universe, t.feature_count, [&](const FeatureObject& f) {
          t.table_bytes += 4 + 8 + 8 + 8 + 4 + 8 * blocks + 4 + f.name.size();
          if (srt) {
            const HilbertValue hv = EncodeKeywords(f.keywords);
            t.srt_domain.EnlargePoint(
                {f.pos.x, f.pos.y, f.score, hv.ToUnitDouble()});
          } else {
            t.ir2_domain.EnlargePoint({f.pos.x, f.pos.y});
          }
        }));
  }
  return Status::OK();
}

struct SegmentPlan {
  uint32_t type = 0;
  uint32_t ordinal = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t first_page = 0;
  uint64_t slot_count = 0;
  uint32_t slot_bytes = 0;
  uint64_t checksum = 0;  // filled during the content pass
  bool page_aligned = false;
};

constexpr uint64_t kTreeMetaBytes = 36;  // AppendTreeMeta, empty free list

struct BuildPlan {
  std::vector<SegmentPlan> segments;
  TreeLayout object_layout;
  std::vector<TreeLayout> feature_layouts;
  uint64_t header_bytes = 0;
  uint64_t file_end = 0;
  // Catalog positions (segment order is fixed by the in-memory writer).
  size_t objects_seg = 0;
  size_t obj_meta_seg = 0;
  size_t obj_nodes_seg = 0;
  size_t VocabSeg(uint32_t i) const { return 1 + 2 * size_t{i}; }
  size_t TableSeg(uint32_t i) const { return 2 + 2 * size_t{i}; }
  size_t FeatMetaSeg(uint32_t i) const {
    return obj_nodes_seg + 1 + 2 * size_t{i};
  }
  size_t FeatNodesSeg(uint32_t i) const {
    return obj_nodes_seg + 2 + 2 * size_t{i};
  }
};

/// Lays out every segment at its final offset, exactly reproducing the
/// in-memory writer's catalog order and alignment walk.
Status ComputePlan(const Survey& survey, const IndexBuildParams& params,
                   BuildPlan* plan) {
  const uint32_t page = params.page_size_bytes;
  const uint32_t T = survey.table_count;
  auto& segs = plan->segments;
  segs.reserve(3 + 4 * size_t{T});

  plan->objects_seg = segs.size();
  segs.push_back({kSegObjects, 0, 0, survey.objects_bytes});
  for (uint32_t i = 0; i < T; ++i) {
    segs.push_back({kSegVocabulary, i, 0, survey.tables[i].vocab_bytes});
    segs.push_back({kSegFeatureTable, i, 0, survey.tables[i].table_bytes});
  }

  // Object tree geometry.
  plan->object_layout = ComputeTreeLayout(
      survey.object_count, FanOutForPage(page, 2, 0), params.fill,
      EntryBytes(2, 0), page);
  if (plan->object_layout.node_count > kMaxNodeCount) {
    return Status::InvalidArgument("object tree too large to persist");
  }
  plan->obj_meta_seg = segs.size();
  segs.push_back({kSegObjectTreeMeta, 0, 0, kTreeMetaBytes});
  plan->obj_nodes_seg = segs.size();
  {
    SegmentPlan nodes{kSegObjectTreeNodes, 0, 0,
                      plan->object_layout.node_count *
                          uint64_t{plan->object_layout.slot_bytes}};
    nodes.first_page = 0;
    nodes.slot_count = plan->object_layout.node_count;
    nodes.slot_bytes = plan->object_layout.slot_bytes;
    nodes.page_aligned = true;
    segs.push_back(nodes);
  }

  plan->feature_layouts.resize(T);
  for (uint32_t i = 0; i < T; ++i) {
    const TableSurvey& t = survey.tables[i];
    TreeLayout& layout = plan->feature_layouts[i];
    switch (params.index_kind) {
      case FeatureIndexKind::kSrt: {
        const uint32_t aug_bytes = 8 + 8 * ((t.universe + 63) / 64);
        layout = ComputeTreeLayout(t.feature_count,
                                   FanOutForPage(page, 4, aug_bytes),
                                   params.fill, EntryBytes(4, aug_bytes), page);
        break;
      }
      case FeatureIndexKind::kIr2: {
        const uint32_t sig_bits =
            EffectiveIr2SignatureBits(params.signature_bits, t.universe);
        // Fan-out charges the raw signature bytes; the serialized payload
        // is word-padded (Ir2AugCodec) — the same split LoadIndexFile uses.
        const uint32_t fanout_aug = 8 + sig_bits / 8;
        Ir2AugCodec codec{sig_bits};
        layout = ComputeTreeLayout(
            t.feature_count, FanOutForPage(page, 2, fanout_aug), params.fill,
            EntryBytes(2, codec.payload_bytes()), page);
        break;
      }
    }
    if (layout.node_count > kMaxNodeCount) {
      return Status::InvalidArgument("feature tree too large to persist");
    }
    segs.push_back({kSegFeatureTreeMeta, i, 0, kTreeMetaBytes});
    SegmentPlan nodes{kSegFeatureTreeNodes, i, 0,
                      layout.node_count * uint64_t{layout.slot_bytes}};
    nodes.first_page = kIndexPageStride * (uint64_t{i} + 1);
    nodes.slot_count = layout.node_count;
    nodes.slot_bytes = layout.slot_bytes;
    nodes.page_aligned = true;
    segs.push_back(nodes);
  }

  plan->header_bytes =
      kSuperblockBytes + segs.size() * kCatalogEntryBytes;
  uint64_t cursor = plan->header_bytes;
  for (SegmentPlan& s : segs) {
    if (s.page_aligned) cursor = AlignUp(cursor, page);
    s.offset = cursor;
    cursor += s.bytes;
  }
  plan->file_end = plan->header_bytes;
  for (const SegmentPlan& s : segs) {
    if (s.bytes > 0) {
      plan->file_end = std::max(plan->file_end, s.offset + s.bytes);
    }
  }
  return Status::OK();
}

// -------------------------------------------------------- content pass

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

template <int D, typename Aug, typename Codec>
void SerializeEntryBlob(const typename RTree<D, Aug>::Entry& e,
                        const Codec& codec, std::string* out) {
  out->clear();
  for (int d = 0; d < D; ++d) PutPod(out, e.rect.lo[d]);
  for (int d = 0; d < D; ++d) PutPod(out, e.rect.hi[d]);
  PutPod<uint32_t>(out, e.id);
  codec.Write(out, e.aug);
}

/// Drains a sorter into a packer, then writes the tree-metadata segment
/// and back-fills both segments' checksums.
template <int D, typename Aug, typename Codec>
Status PackTree(ExternalSorter* sorter, AtomicFile* out,
                const TreeLayout& layout, const Codec& codec,
                SegmentPlan* meta_seg, SegmentPlan* nodes_seg) {
  LevelPacker<D, Aug, Codec> packer(out, nodes_seg->offset, &layout, codec);
  STPQ_RETURN_NOT_OK(sorter->Drain(
      [&packer](const char* blob) { return packer.AddLeafBlob(blob); }));
  STPQ_RETURN_NOT_OK(packer.Finish());

  std::string meta;
  AppendTreeMeta(&meta, layout.root, layout.height, layout.entry_count,
                 static_cast<uint32_t>(layout.node_count), layout.max_entries,
                 codec.aug_bits(), codec.aug_words(), {});
  STPQ_CHECK(meta.size() == meta_seg->bytes);
  STPQ_RETURN_NOT_OK(out->WriteAt(meta_seg->offset, meta.data(), meta.size()));
  meta_seg->checksum = Fnv1a64(meta.data(), meta.size());

  Result<uint64_t> sum = ChecksumRange(*out, nodes_seg->offset,
                                       nodes_seg->bytes);
  if (!sum.ok()) return sum.status();
  nodes_seg->checksum = sum.value();
  return Status::OK();
}

}  // namespace

Result<ExternalBuildStats> BuildIndexFileExternal(
    const std::string& dataset_path, const std::string& index_path,
    const ExternalBuildOptions& options) {
  const IndexBuildParams& params = options.params;
  if (params.bulk_load != BulkLoadKind::kHilbert) {
    return Status::InvalidArgument(
        "external build supports only the hilbert bulk-load order");
  }
  if (params.page_size_bytes < kMinExternalPageSize) {
    return Status::InvalidArgument(
        "page_size_bytes must be >= " + std::to_string(kMinExternalPageSize));
  }
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

  BuildPlan plan;
  STPQ_RETURN_NOT_OK(ComputePlan(survey, params, &plan));

  Result<AtomicFile> out_r = AtomicFile::Create(index_path);
  if (!out_r.ok()) return out_r.status();
  AtomicFile out = out_r.TakeValue();

  const uint64_t budget = options.memory_budget_bytes;
  uint32_t sorter_ordinal = 0;
  auto account = [&stats](const ExternalSorter& sorter) {
    stats.runs_written += sorter.runs_written();
    stats.merge_passes += sorter.merge_passes();
    stats.spilled_bytes += sorter.spilled_bytes();
  };

  // The content pass re-scans the dataset once; one sequential scanner
  // feeds phase 1 (objects) and phase 2 (tables) in file order.
  Result<DatasetBinaryScanner> scan_r =
      DatasetBinaryScanner::Open(dataset_path);
  if (!scan_r.ok()) return scan_r.status();
  DatasetBinaryScanner scan = scan_r.TakeValue();
  if (scan.object_count() != survey.object_count) {
    return DatasetDrifted(dataset_path);
  }

  // Phase 1: stream the objects segment and pack the object tree.
  {
    Span span(TraceEventType::kBuildPhase, 1, survey.object_count);
    SegmentPlan& objects_seg = plan.segments[plan.objects_seg];
    SegmentWriter seg(&out, objects_seg.offset);
    ExternalSorter sorter(
        plan.object_layout.entry_bytes, budget,
        RunPrefix(index_path, options.temp_dir, sorter_ordinal++));
    seg.Pod<uint64_t>(survey.object_count);
    uint64_t position = 0;
    std::string blob;
    Status feed = Status::OK();
    STPQ_RETURN_NOT_OK(scan.ForEachObject([&](const DataObject& o) {
      if (!feed.ok()) return;
      // Ids are reassigned to positions, as Engine::Build does before Save.
      const uint32_t id = static_cast<uint32_t>(position++);
      seg.Pod<uint32_t>(id);
      seg.Pod(o.pos.x);
      seg.Pod(o.pos.y);
      seg.Str(o.name);
      RTree<2, NoAug>::Entry e{PointRect(o.pos), id, {}};
      SerializeEntryBlob<2, NoAug>(e, NoAugCodec{}, &blob);
      feed = sorter.Add(HilbertKeyForRect(e.rect, survey.object_domain),
                        blob.data());
    }));
    STPQ_RETURN_NOT_OK(feed);
    if (position != survey.object_count) return DatasetDrifted(dataset_path);
    uint64_t written = 0;
    STPQ_RETURN_NOT_OK(seg.Finish(&written, &objects_seg.checksum));
    if (written != objects_seg.bytes) return DatasetDrifted(dataset_path);

    STPQ_RETURN_NOT_OK((PackTree<2, NoAug>(
        &sorter, &out, plan.object_layout, NoAugCodec{},
        &plan.segments[plan.obj_meta_seg],
        &plan.segments[plan.obj_nodes_seg])));
    account(sorter);
  }

  // Phase 2: per table, stream vocabulary + feature records and pack the
  // feature tree.  One sorter lives at a time, so each gets the whole
  // budget.
  {
    Span span(TraceEventType::kBuildPhase, 2, stats.features);
    Result<uint32_t> tables_r = scan.ReadTableCount();
    if (!tables_r.ok()) return tables_r.status();
    if (tables_r.value() != survey.table_count) {
      return DatasetDrifted(dataset_path);
    }
    for (uint32_t i = 0; i < survey.table_count; ++i) {
      const TableSurvey& t = survey.tables[i];

      SegmentPlan& vocab_seg = plan.segments[plan.VocabSeg(i)];
      SegmentWriter vocab(&out, vocab_seg.offset);
      vocab.Pod<uint32_t>(t.vocab_terms);
      uint32_t terms = 0;
      STPQ_RETURN_NOT_OK(scan.ForEachVocabTerm([&](const std::string& term) {
        ++terms;
        vocab.Str(term);
      }));
      if (terms != t.vocab_terms) return DatasetDrifted(dataset_path);
      uint64_t written = 0;
      STPQ_RETURN_NOT_OK(vocab.Finish(&written, &vocab_seg.checksum));
      if (written != vocab_seg.bytes) return DatasetDrifted(dataset_path);

      Result<DatasetBinaryScanner::TableHeader> h = scan.ReadTableHeader();
      if (!h.ok()) return h.status();
      if (h.value().universe != t.universe ||
          h.value().feature_count != t.feature_count) {
        return DatasetDrifted(dataset_path);
      }

      SegmentPlan& table_seg = plan.segments[plan.TableSeg(i)];
      SegmentWriter table(&out, table_seg.offset);
      table.Pod<uint32_t>(t.universe);
      table.Pod<uint64_t>(t.feature_count);

      const TreeLayout& layout = plan.feature_layouts[i];
      ExternalSorter sorter(
          layout.entry_bytes, budget,
          RunPrefix(index_path, options.temp_dir, sorter_ordinal++));
      const bool srt = params.index_kind == FeatureIndexKind::kSrt;
      SrtAugCodec srt_codec{t.universe};
      const uint32_t sig_bits =
          EffectiveIr2SignatureBits(params.signature_bits, t.universe);
      Ir2AugCodec ir2_codec{sig_bits};
      const SignatureScheme scheme(sig_bits, params.signature_hashes);

      uint64_t position = 0;
      std::string blob;
      Status feed = Status::OK();
      STPQ_RETURN_NOT_OK(scan.ForEachFeature(
          t.universe, t.feature_count, [&](const FeatureObject& f) {
            if (!feed.ok()) return;
            // FeatureTable reassigns ids to positions on construction.
            const uint32_t id = static_cast<uint32_t>(position++);
            table.Pod<uint32_t>(id);
            table.Pod(f.pos.x);
            table.Pod(f.pos.y);
            table.Pod(f.score);
            const std::vector<uint64_t>& blocks = f.keywords.blocks();
            table.Pod<uint32_t>(static_cast<uint32_t>(blocks.size()));
            for (uint64_t b : blocks) table.Pod(b);
            table.Str(f.name);
            if (srt) {
              HilbertValue hv = EncodeKeywords(f.keywords);
              const std::array<double, 4> p{f.pos.x, f.pos.y, f.score,
                                            hv.ToUnitDouble()};
              RTree<4, SrtAug>::Entry e{
                  Rect4::FromPoint(p), id,
                  SrtAug{f.score, std::move(hv), f.keywords}};
              SerializeEntryBlob<4, SrtAug>(e, srt_codec, &blob);
              feed = sorter.Add(HilbertKeyForRect(e.rect, t.srt_domain),
                                blob.data());
            } else {
              RTree<2, Ir2Aug>::Entry e{
                  PointRect(f.pos), id,
                  Ir2Aug{f.score, scheme.SetSignature(f.keywords)}};
              SerializeEntryBlob<2, Ir2Aug>(e, ir2_codec, &blob);
              feed = sorter.Add(HilbertKeyForRect(e.rect, t.ir2_domain),
                                blob.data());
            }
          }));
      STPQ_RETURN_NOT_OK(feed);
      if (position != t.feature_count) return DatasetDrifted(dataset_path);
      STPQ_RETURN_NOT_OK(table.Finish(&written, &table_seg.checksum));
      if (written != table_seg.bytes) return DatasetDrifted(dataset_path);

      if (srt) {
        STPQ_RETURN_NOT_OK((PackTree<4, SrtAug>(
            &sorter, &out, layout, srt_codec,
            &plan.segments[plan.FeatMetaSeg(i)],
            &plan.segments[plan.FeatNodesSeg(i)])));
      } else {
        STPQ_RETURN_NOT_OK((PackTree<2, Ir2Aug>(
            &sorter, &out, layout, ir2_codec,
            &plan.segments[plan.FeatMetaSeg(i)],
            &plan.segments[plan.FeatNodesSeg(i)])));
      }
      account(sorter);
    }
  }

  // Phase 3: header (superblock + catalog with the final checksums),
  // exact file size, durable commit.
  {
    Span span(TraceEventType::kBuildPhase, 3);
    std::string header;
    header.reserve(plan.header_bytes);
    AppendSuperblock(&header, params.page_size_bytes,
                     static_cast<uint32_t>(params.index_kind),
                     static_cast<uint32_t>(params.bulk_load),
                     params.signature_bits, params.signature_hashes,
                     params.fill, survey.object_count, survey.table_count,
                     static_cast<uint32_t>(plan.segments.size()));
    for (const SegmentPlan& s : plan.segments) {
      CatalogEntry e;
      e.type = s.type;
      e.ordinal = s.ordinal;
      e.offset = s.offset;
      e.bytes = s.bytes;
      e.first_page = s.first_page;
      e.slot_count = s.slot_count;
      e.slot_bytes = s.slot_bytes;
      e.checksum = s.checksum;
      AppendCatalogEntry(&header, e);
    }
    STPQ_CHECK(header.size() == plan.header_bytes);
    STPQ_RETURN_NOT_OK(out.Truncate(plan.file_end));
    STPQ_RETURN_NOT_OK(out.WriteAt(0, header.data(), header.size()));
    STPQ_RETURN_NOT_OK(out.Commit());
  }
  stats.output_bytes = plan.file_end;

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
