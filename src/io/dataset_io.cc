#include "io/dataset_io.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "io/index_format.h"

namespace stpq {

namespace {

constexpr uint32_t kMagic = 0x53545051;  // "STPQ"
constexpr uint32_t kVersion = 1;

/// Splits a CSV line, honoring no quoting (fields here never contain
/// commas: names are sanitized on write).
std::vector<std::string> SplitCsv(const std::string& line, char sep = ',') {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (ch == sep) {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  out.push_back(std::move(cur));
  return out;
}

std::string SanitizeField(const std::string& s) {
  std::string out = s;
  for (char& ch : out) {
    if (ch == ',' || ch == '|' || ch == '\n' || ch == '\r') ch = ' ';
  }
  return out;
}

Result<double> ParseDouble(const std::string& s, const char* what) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || end == nullptr) {
    return Status::InvalidArgument(std::string("bad ") + what + ": " + s);
  }
  return v;
}

// Binary helpers: all writes/reads go through these so sizes stay explicit.
template <typename T>
void PutPod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool GetPod(std::istream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(is);
}

void PutString(std::ostream& os, const std::string& s) {
  PutPod<uint32_t>(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool GetString(std::istream& is, std::string* s) {
  uint32_t n = 0;
  if (!GetPod(is, &n)) return false;
  if (n > (1u << 24)) return false;  // sanity cap
  s->resize(n);
  is.read(s->data(), n);
  return static_cast<bool>(is);
}

}  // namespace

Status WriteObjectsCsv(const std::string& path,
                       const std::vector<DataObject>& objects) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << "id,x,y,name\n";
  for (const DataObject& o : objects) {
    out << o.id << ',' << o.pos.x << ',' << o.pos.y << ','
        << SanitizeField(o.name) << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<std::vector<DataObject>> ReadObjectsCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);
  std::vector<DataObject> objects;
  std::string line;
  bool first = true;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("id,", 0) == 0) continue;  // header
    }
    std::vector<std::string> f = SplitCsv(line);
    if (f.size() < 3) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": expected id,x,y[,name]");
    }
    DataObject o;
    o.id = static_cast<ObjectId>(std::strtoul(f[0].c_str(), nullptr, 10));
    Result<double> x = ParseDouble(f[1], "x");
    if (!x.ok()) return x.status();
    Result<double> y = ParseDouble(f[2], "y");
    if (!y.ok()) return y.status();
    o.pos = {x.value(), y.value()};
    if (f.size() > 3) o.name = f[3];
    objects.push_back(std::move(o));
  }
  return objects;
}

Status WriteFeaturesCsv(const std::string& path, const FeatureTable& table,
                        const Vocabulary& vocab) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << "id,x,y,score,keywords,name\n";
  for (const FeatureObject& t : table.All()) {
    out << t.id << ',' << t.pos.x << ',' << t.pos.y << ',' << t.score << ',';
    bool sep = false;
    for (TermId id : t.keywords.ToTerms()) {
      if (sep) out << '|';
      out << SanitizeField(vocab.Term(id));
      sep = true;
    }
    out << ',' << SanitizeField(t.name) << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<FeatureTable> ReadFeaturesCsv(const std::string& path,
                                     Vocabulary* vocab,
                                     uint32_t universe_size) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);
  struct Row {
    Point pos;
    double score;
    std::vector<TermId> terms;
    std::string name;
  };
  std::vector<Row> rows;
  std::string line;
  bool first = true;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line.rfind("id,", 0) == 0) continue;
    }
    std::vector<std::string> f = SplitCsv(line);
    if (f.size() < 5) {
      return Status::InvalidArgument(
          "line " + std::to_string(lineno) +
          ": expected id,x,y,score,keywords[,name]");
    }
    Row row;
    Result<double> x = ParseDouble(f[1], "x");
    if (!x.ok()) return x.status();
    Result<double> y = ParseDouble(f[2], "y");
    if (!y.ok()) return y.status();
    Result<double> s = ParseDouble(f[3], "score");
    if (!s.ok()) return s.status();
    if (s.value() < 0.0 || s.value() > 1.0) {
      return Status::OutOfRange("line " + std::to_string(lineno) +
                                ": score must be in [0,1]");
    }
    row.pos = {x.value(), y.value()};
    row.score = s.value();
    for (const std::string& kw : SplitCsv(f[4], '|')) {
      if (!kw.empty()) row.terms.push_back(vocab->Intern(kw));
    }
    if (f.size() > 5) row.name = f[5];
    rows.push_back(std::move(row));
  }
  uint32_t universe = universe_size != 0 ? universe_size : vocab->size();
  if (universe < vocab->size()) {
    return Status::InvalidArgument(
        "universe_size smaller than the number of distinct keywords");
  }
  std::vector<FeatureObject> features;
  features.reserve(rows.size());
  for (Row& row : rows) {
    FeatureObject t;
    t.pos = row.pos;
    t.score = row.score;
    t.keywords = KeywordSet(universe);
    for (TermId id : row.terms) t.keywords.Insert(id);
    t.name = std::move(row.name);
    features.push_back(std::move(t));
  }
  return FeatureTable(std::move(features), universe);
}

Status WriteDatasetBinary(const std::string& path, const Dataset& dataset) {
  if (dataset.vocabularies.size() != dataset.feature_tables.size()) {
    return Status::InvalidArgument(
        "dataset must carry one vocabulary per feature table");
  }
  STPQ_RETURN_NOT_OK(CheckUniverses(dataset.feature_tables));
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  PutPod(out, kMagic);
  PutPod(out, kVersion);
  PutPod<uint64_t>(out, dataset.objects.size());
  for (const DataObject& o : dataset.objects) {
    PutPod(out, o.id);
    PutPod(out, o.pos.x);
    PutPod(out, o.pos.y);
    PutString(out, o.name);
  }
  PutPod<uint32_t>(out, static_cast<uint32_t>(dataset.feature_tables.size()));
  for (size_t i = 0; i < dataset.feature_tables.size(); ++i) {
    const FeatureTable& table = dataset.feature_tables[i];
    const Vocabulary& vocab = dataset.vocabularies[i];
    PutPod<uint32_t>(out, vocab.size());
    for (uint32_t t = 0; t < vocab.size(); ++t) PutString(out, vocab.Term(t));
    PutPod<uint32_t>(out, table.universe_size());
    PutPod<uint64_t>(out, table.size());
    for (const FeatureObject& t : table.All()) {
      PutPod(out, t.id);
      PutPod(out, t.pos.x);
      PutPod(out, t.pos.y);
      PutPod(out, t.score);
      std::vector<TermId> terms = t.keywords.ToTerms();
      PutPod<uint32_t>(out, static_cast<uint32_t>(terms.size()));
      for (TermId id : terms) PutPod(out, id);
      PutString(out, t.name);
    }
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<Dataset> ReadDatasetBinary(const std::string& path) {
  Result<DatasetBinaryScanner> opened = DatasetBinaryScanner::Open(path);
  if (!opened.ok()) return opened.status();
  DatasetBinaryScanner scanner = opened.TakeValue();
  // Counts come from the file, so nothing is reserved from them: a
  // damaged count runs into the end of the file as a typed error.
  Dataset ds;
  STPQ_RETURN_NOT_OK(scanner.ForEachObject(
      [&ds](const DataObject& o) { ds.objects.push_back(o); }));
  Result<uint32_t> num_tables = scanner.ReadTableCount();
  if (!num_tables.ok()) return num_tables.status();
  for (uint32_t ti = 0; ti < num_tables.value(); ++ti) {
    Vocabulary vocab;
    STPQ_RETURN_NOT_OK(scanner.ForEachVocabTerm(
        [&vocab](const std::string& term) { vocab.Intern(term); }));
    Result<DatasetBinaryScanner::TableHeader> header =
        scanner.ReadTableHeader();
    if (!header.ok()) return header.status();
    const uint32_t universe = header.value().universe;
    std::vector<FeatureObject> features;
    STPQ_RETURN_NOT_OK(scanner.ForEachFeature(
        universe, header.value().feature_count,
        [&features](const FeatureObject& f) { features.push_back(f); }));
    ds.feature_tables.emplace_back(std::move(features), universe);
    ds.vocabularies.push_back(std::move(vocab));
  }
  return ds;
}

// ------------------------------------------------------------- scanner

Result<DatasetBinaryScanner> DatasetBinaryScanner::Open(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open: " + path);
  uint32_t magic = 0, version = 0;
  if (!GetPod(in, &magic) || magic != kMagic) {
    return Status::InvalidArgument("not a .stpq file: " + path);
  }
  if (!GetPod(in, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported .stpq version");
  }
  DatasetBinaryScanner scanner(std::move(in));
  if (!GetPod(scanner.in_, &scanner.object_count_)) {
    return Status::IoError("truncated header");
  }
  return scanner;
}

Status DatasetBinaryScanner::ForEachObject(
    const std::function<void(const DataObject&)>& fn) {
  DataObject o;
  for (uint64_t i = 0; i < object_count_; ++i) {
    if (!GetPod(in_, &o.id) || !GetPod(in_, &o.pos.x) ||
        !GetPod(in_, &o.pos.y) || !GetString(in_, &o.name)) {
      return Status::IoError("truncated object record");
    }
    fn(o);
  }
  return Status::OK();
}

Result<uint32_t> DatasetBinaryScanner::ReadTableCount() {
  uint32_t num_tables = 0;
  if (!GetPod(in_, &num_tables)) return Status::IoError("truncated");
  return num_tables;
}

Status DatasetBinaryScanner::ForEachVocabTerm(
    const std::function<void(const std::string&)>& fn) {
  uint32_t vocab_size = 0;
  if (!GetPod(in_, &vocab_size)) return Status::IoError("truncated");
  std::string term;
  for (uint32_t t = 0; t < vocab_size; ++t) {
    if (!GetString(in_, &term)) return Status::IoError("truncated term");
    fn(term);
  }
  return Status::OK();
}

Result<DatasetBinaryScanner::TableHeader>
DatasetBinaryScanner::ReadTableHeader() {
  TableHeader h;
  if (!GetPod(in_, &h.universe) || !GetPod(in_, &h.feature_count)) {
    return Status::IoError("truncated table header");
  }
  // Every keyword set of the table is sized by the universe, and the
  // file's term ids cannot bound it, so it is capped before any is sized.
  if (h.universe > kMaxUniverse) {
    return Status::InvalidArgument(
        "feature table declares a keyword universe of " +
        std::to_string(h.universe) + " terms, above the cap of " +
        std::to_string(kMaxUniverse));
  }
  return h;
}

Status DatasetBinaryScanner::ForEachFeature(
    uint32_t universe, uint64_t count,
    const std::function<void(const FeatureObject&)>& fn) {
  for (uint64_t i = 0; i < count; ++i) {
    FeatureObject t;
    uint32_t nterms = 0;
    if (!GetPod(in_, &t.id) || !GetPod(in_, &t.pos.x) ||
        !GetPod(in_, &t.pos.y) || !GetPod(in_, &t.score) ||
        !GetPod(in_, &nterms)) {
      return Status::IoError("truncated feature record");
    }
    if (nterms > universe) {
      return Status::InvalidArgument("feature has more terms than universe");
    }
    t.keywords = KeywordSet(universe);
    for (uint32_t j = 0; j < nterms; ++j) {
      TermId id = 0;
      if (!GetPod(in_, &id)) return Status::IoError("truncated term id");
      if (id >= universe) {
        return Status::OutOfRange("term id beyond universe");
      }
      t.keywords.Insert(id);
    }
    if (!GetString(in_, &t.name)) return Status::IoError("truncated name");
    fn(t);
  }
  return Status::OK();
}

}  // namespace stpq
