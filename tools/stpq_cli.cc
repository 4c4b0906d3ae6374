// stpq_cli: command-line front end for the stpq library.
//
// Subcommands (run `stpq_cli <command> --help` for per-command flags):
//
//   generate   synthesize a dataset and write it as a .stpq file
//   info       summarize a .stpq dataset
//   build      build all indexes over a dataset and persist them as a
//              versioned .stpqx index file (Engine::Save)
//   load       print the superblock + segment catalog of a .stpqx file
//   query      run one query and print the top-k
//   bench      run a generated query batch sequentially
//   workload   parallel throughput sweep over thread counts
//   profile    sequential run with phase breakdown + latency percentiles
//   trace      run with the tracer armed and export Chrome trace JSON
//   validate   run the deep structural validators over every index
//
// Every query-running command accepts either --data FILE (build indexes
// in memory, simulated storage) or --index FILE (reopen a prebuilt
// .stpqx file, file-backed storage); --index wins when both are given.
// --kind srt|ir2 picks the feature index when building; a reopened file
// always uses the kind it was built with.  Build parameters outside the
// library's range (CheckBuildParams) fail the command with exit code 1.
//
// Every flag is declared once below (name, value kind, help), each command
// lists the flags it takes, and --help is generated from that list.
// Flags accept both "--flag value" and "--flag=value".  Exit codes: 0 on
// success, 1 when the command fails (bad file, malformed query, failed
// page fetch), 2 on a usage error: an unknown command or flag, a missing
// value, a number that does not parse, or a value outside a flag's
// choices.
// Keyword syntax: per-feature-set lists separated by ';', terms by ','.
#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/explain.h"
#include "core/score.h"
#include "core/workload.h"
#include "debug/validate.h"
#include "gen/queries.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "io/bulk_load.h"
#include "io/dataset_io.h"
#include "io/index_file.h"
#include "obs/admin_server.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "storage/page_store.h"

using namespace stpq;

namespace {

// ---------------------------------------------------------------- flags

/// How a flag's value is written.
enum FlagKind { kBool, kUint, kDouble, kString, kUintList, kChoice };

/// One command-line flag.  `value` names the value in --help; for kChoice
/// it is the '|'-separated list of accepted values.  `max` bounds the
/// integer kinds.
struct Flag {
  const char* name;
  FlagKind kind;
  const char* value;
  const char* help;
  uint32_t max = std::numeric_limits<uint32_t>::max();
};

constexpr Flag kHelp{"help", kBool, "", "print this help"};
// Where the engine comes from, and how it is built.
constexpr Flag kData{"data", kString, "FILE",
                     "dataset (.stpq); query commands index it in memory"};
constexpr Flag kIndex{"index", kString, "FILE",
                      ".stpqx index file (build writes it, others reopen it)"};
constexpr Flag kIndexKind{"kind", kChoice, "srt|ir2",
                          "feature index to build (default srt)"};
constexpr Flag kPageSize{"page-size", kUint, "N",
                         "page size in bytes when building (default 4096)"};
constexpr Flag kFill{"fill", kDouble, "F", "bulk-load fill factor in (0, 1]"};
constexpr Flag kSignatureBits{"signature-bits", kUint, "N",
                              "IR2 signature bits (default 0 = derived)"};
constexpr Flag kSignatureHashes{"signature-hashes", kUint, "N",
                                "IR2 signature hashes (default 3)"};
constexpr Flag kPool{"pool", kUint, "N",
                     "buffer-pool capacity in pages (0 = unbounded)"};
// generate, build, load
constexpr Flag kOut{"out", kString, "FILE", "output dataset path (required)"};
constexpr Flag kDatasetKind{"kind", kChoice, "synthetic|real",
                            "dataset generator (default synthetic)"};
constexpr Flag kScale{"scale", kDouble, "S", "dataset scale (default 0.1)"};
constexpr Flag kSeed{"seed", kUint, "N", "RNG seed (default 42)"};
constexpr Flag kExternal{"external", kBool, "",
                         "stream-build on disk in bounded memory"};
constexpr Flag kMemoryBudget{"memory-budget", kUint, "MB",
                             "external sort memory ceiling (default 256)"};
constexpr Flag kTempDir{"temp-dir", kString, "DIR",
                        "external sort spill dir (default: by the output)"};
constexpr Flag kVerify{"verify", kBool, "",
                       "also open the index and validate every tree"};
// Queries and query batches.
constexpr Flag kKeywords{"keywords", kString, "\"a,b;c\"",
                         "per-set keyword lists (required)"};
constexpr Flag kK{"k", kUint, "N", "results per query (default 10)"};
constexpr Flag kRadius{"r", kDouble, "R", "query radius (default 0.01)"};
constexpr Flag kLambda{"lambda", kDouble, "L",
                       "text vs. feature score weight (default 0.5)"};
constexpr Flag kVariant{"variant", kChoice, "range|influence|nn",
                        "score variant (default range)"};
constexpr Flag kAlgo{"algo", kChoice, "stps|stds", "algorithm (default stps)"};
constexpr Flag kExplain{"explain", kBool, "",
                        "print per-set contributions for each result"};
constexpr Flag kQueries{"queries", kUint, "N",
                        "batch size (bench 50, workload 200, others 100)"};
constexpr Flag kThreads{"threads", kUintList, "N[,N...]",
                        "worker threads, one run per count (default 1)"};
constexpr Flag kIoMs{"io-ms", kDouble, "MS",
                     "simulated cost per page read (default 0.1)"};
constexpr Flag kMetrics{"metrics", kString, "FILE",
                        "write Prometheus text exposition"};
constexpr Flag kTraceOut{"trace-out", kString, "FILE",
                         "write Chrome trace JSON (trace: trace.json)"};
constexpr Flag kSlowMs{"slow-ms", kDouble, "T",
                       "keep queries >= T ms for /slowz and the trace"};
constexpr Flag kServeAdmin{"serve-admin", kUint, "PORT",
                           "serve admin endpoints on 127.0.0.1:PORT (0 = any)",
                           std::numeric_limits<uint16_t>::max()};
constexpr Flag kMetricsInterval{"metrics-interval", kUint, "MS",
                                "/varz sample period (default 250)"};
constexpr Flag kLingerMs{"linger-ms", kUint, "MS",
                         "keep the admin server up MS ms after the run"};

using FlagList = std::vector<const Flag*>;

FlagList Join(std::initializer_list<FlagList> lists) {
  FlagList out;
  for (const FlagList& l : lists) out.insert(out.end(), l.begin(), l.end());
  return out;
}

const FlagList kEngineFlags = {
    &kData, &kIndex,         &kIndexKind,       &kPageSize,
    &kFill, &kSignatureBits, &kSignatureHashes, &kPool};
const FlagList kQueryShapeFlags = {&kK, &kRadius, &kLambda, &kVariant,
                                   &kAlgo};
const FlagList kBatchFlags = Join({{&kQueries}, kQueryShapeFlags, {&kIoMs}});
const FlagList kAdminFlags = {&kServeAdmin, &kMetricsInterval, &kSlowMs,
                              &kLingerMs};

/// Splits "a,b,c" (or the choice list "a|b|c") at `sep`.
std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out(1);
  for (char ch : text) {
    if (ch == sep) {
      out.emplace_back();
    } else {
      out.back().push_back(ch);
    }
  }
  return out;
}

/// A flag's value as given, plus its numbers for the numeric kinds.
struct Value {
  std::string text;
  std::vector<double> numbers;
};

/// Parses `text` as a value of `flag`'s kind; false if it is not one.
bool ParseValue(const Flag& flag, const std::string& text, Value* out) {
  out->text = text;
  if (flag.kind == kChoice) {
    for (const std::string& choice : Split(flag.value, '|')) {
      if (text == choice) return true;
    }
    return false;
  }
  if (flag.kind == kBool || flag.kind == kString) return true;
  for (const std::string& item : Split(text, ',')) {
    const char* end = item.data() + item.size();
    double v = 0.0;
    uint32_t u = 0;
    const std::from_chars_result r =
        flag.kind == kDouble ? std::from_chars(item.data(), end, v)
                             : std::from_chars(item.data(), end, u);
    if (r.ec != std::errc() || r.ptr != end || !std::isfinite(v) ||
        u > flag.max) {
      return false;
    }
    out->numbers.push_back(flag.kind == kDouble ? v : u);
  }
  return flag.kind == kUintList || out->numbers.size() == 1;
}

/// The flags given on the command line, each already parsed by its kind.
struct Args {
  std::map<std::string, Value> values;

  const Value* Find(const Flag& f) const {
    auto it = values.find(f.name);
    return it == values.end() ? nullptr : &it->second;
  }
  bool Has(const Flag& f) const { return Find(f) != nullptr; }
  std::string Str(const Flag& f, const std::string& def = "") const {
    return Has(f) ? Find(f)->text : def;
  }
  double Double(const Flag& f, double def) const {
    return Has(f) ? Find(f)->numbers[0] : def;
  }
  uint32_t Uint(const Flag& f, uint32_t def) const {
    return static_cast<uint32_t>(Double(f, def));
  }
  std::vector<double> Numbers(const Flag& f, double def) const {
    return Has(f) ? Find(f)->numbers : std::vector<double>{def};
  }
};

/// One subcommand: name, one-line summary for the top-level usage, the
/// flags it takes (its --help lists exactly these), and the handler.
struct CommandSpec {
  const char* name;
  const char* summary;
  FlagList flags;
  int (*run)(const Args&);
};

const std::vector<CommandSpec>& Commands();  // defined after the handlers

int Usage() {
  std::fprintf(stderr, "usage: stpq_cli <command> [flags]\n\ncommands:\n");
  for (const CommandSpec& c : Commands()) {
    std::fprintf(stderr, "  %-9s %s\n", c.name, c.summary);
  }
  std::fprintf(stderr,
               "\nrun 'stpq_cli <command> --help' for the command's flags\n");
  return 2;
}

void PrintHelp(const CommandSpec& c) {
  std::printf("usage: stpq_cli %s [flags]\n%s\n", c.name, c.summary);
  for (const Flag* f : c.flags) {
    const std::string left = std::string(f->name) + " " + f->value;
    std::printf("  --%-26s %s\n", left.c_str(), f->help);
  }
}

/// Parses argv[2..] against the flags `c` takes.  Returns false, with the
/// error printed, on a flag `c` does not take, a missing or malformed
/// value, or an argument that is not a flag.
bool ParseArgs(int argc, char** argv, const CommandSpec& c, Args* args) {
  auto fail = [&c](const std::string& msg) {
    std::fprintf(stderr, "error: %s (see 'stpq_cli %s --help')\n",
                 msg.c_str(), c.name);
    return false;
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return fail("unexpected argument '" + arg + "'");
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq - 2);
    const Flag* flag = name == kHelp.name ? &kHelp : nullptr;
    for (const Flag* f : c.flags) {
      if (name == f->name) flag = f;
    }
    if (flag == nullptr) return fail("unknown flag --" + name);
    std::string text;
    if (eq != std::string::npos) {
      text = arg.substr(eq + 1);
      if (flag->kind == kBool) return fail("--" + name + " takes no value");
    } else if (flag->kind != kBool) {
      if (i + 1 == argc) return fail("--" + name + " needs a value");
      text = argv[++i];
    }
    Value value;
    if (!ParseValue(*flag, text, &value)) {
      return fail("invalid value '" + text + "' for --" + name);
    }
    args->values.insert_or_assign(name, std::move(value));
  }
  return true;
}

// ------------------------------------------------------ shared helpers

/// Prints a failed command's status; exit code 1.
int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

const char* AlgorithmName(Algorithm algorithm) {
  return algorithm == Algorithm::kStds ? "STDS" : "STPS";
}

Algorithm AlgorithmOf(const Args& args) {
  return args.Str(kAlgo, "stps") == "stds" ? Algorithm::kStds
                                           : Algorithm::kStps;
}

/// Sets k, radius, lambda and variant on a Query or a QueryWorkloadConfig
/// (same field names and defaults).
template <typename Q>
void SetQueryShape(const Args& args, Q* q) {
  q->k = args.Uint(kK, q->k);
  q->radius = args.Double(kRadius, q->radius);
  q->lambda = args.Double(kLambda, q->lambda);
  const std::string variant = args.Str(kVariant, "range");
  if (variant == "influence") q->variant = ScoreVariant::kInfluence;
  if (variant == "nn") q->variant = ScoreVariant::kNearestNeighbor;
}

Result<Dataset> LoadData(const Args& args) {
  std::string path = args.Str(kData);
  if (path.empty()) {
    return Status::InvalidArgument("--data FILE is required");
  }
  return ReadDatasetBinary(path);
}

/// The build parameters the flags ask for: the one mapping from --kind,
/// --page-size, --fill and --signature-* to the library.
IndexBuildParams BuildParams(const Args& args) {
  IndexBuildParams p;
  if (args.Str(kIndexKind, "srt") == "ir2") {
    p.index_kind = FeatureIndexKind::kIr2;
  }
  p.page_size_bytes = args.Uint(kPageSize, p.page_size_bytes);
  p.fill = args.Double(kFill, p.fill);
  p.signature_bits = args.Uint(kSignatureBits, p.signature_bits);
  p.signature_hashes = args.Uint(kSignatureHashes, p.signature_hashes);
  return p;
}

EngineOptions MakeEngineOptions(const Args& args) {
  EngineOptions opts;
  opts.build = BuildParams(args);
  opts.pool_capacity = args.Uint(kPool, 0);
  return opts;
}

/// The shared engine source behind every query-running command: reopens
/// --index (file backend) or builds in memory from --data (simulated
/// backend), and fills `ds` with the objects, tables and vocabularies the
/// command needs for keyword parsing and query generation.
Result<Engine> MakeEngine(const Args& args, Dataset* ds) {
  const std::string index_path = args.Str(kIndex);
  if (!index_path.empty()) {
    Result<Engine> engine = Engine::Open(index_path, MakeEngineOptions(args));
    if (!engine.ok()) return engine;
    // Rebuild the dataset view from the engine + the persisted
    // vocabularies so query generation matches the --data path.
    ds->objects = engine.value().objects();
    for (size_t i = 0; i < engine.value().num_feature_sets(); ++i) {
      ds->feature_tables.push_back(engine.value().feature_table(i));
    }
    Result<std::vector<Vocabulary>> vocabs = ReadIndexVocabularies(index_path);
    if (!vocabs.ok()) return vocabs.status();
    ds->vocabularies = vocabs.TakeValue();
    return engine;
  }

  Result<Dataset> data = LoadData(args);
  if (!data.ok()) return data.status();
  *ds = data.TakeValue();
  // The dataset stays alive in the caller (names, vocabularies, query
  // generation), so the engine gets copies.
  return Engine::Build(ds->objects,
                       std::vector<FeatureTable>(ds->feature_tables),
                       MakeEngineOptions(args));
}

// ------------------------------------------------------------ commands

int Generate(const Args& args) {
  std::string out = args.Str(kOut);
  if (out.empty()) return Usage();
  double scale = args.Double(kScale, 0.1);
  uint64_t seed = args.Uint(kSeed, 42);
  Dataset ds;
  if (args.Str(kDatasetKind, "synthetic") == "real") {
    RealLikeConfig cfg;
    cfg.scale = scale;
    cfg.seed = seed;
    ds = GenerateRealLike(cfg);
  } else {
    SyntheticConfig cfg;
    cfg.seed = seed;
    cfg.num_objects = static_cast<uint32_t>(100'000 * scale);
    cfg.num_features_per_set = static_cast<uint32_t>(100'000 * scale);
    cfg.num_clusters = std::max(100u, static_cast<uint32_t>(10'000 * scale));
    ds = GenerateSynthetic(cfg);
  }
  Status st = WriteDatasetBinary(out, ds);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s: %zu objects, %zu feature sets\n", out.c_str(),
              ds.objects.size(), ds.feature_tables.size());
  return 0;
}

int Info(const Args& args) {
  Result<Dataset> data = LoadData(args);
  if (!data.ok()) return Fail(data.status());
  const Dataset& ds = data.value();
  std::printf("objects: %zu\n", ds.objects.size());
  for (size_t i = 0; i < ds.feature_tables.size(); ++i) {
    std::printf("feature set %zu: %zu features, %u keywords (e.g.", i,
                ds.feature_tables[i].size(),
                ds.feature_tables[i].universe_size());
    for (uint32_t t = 0; t < std::min(5u, ds.vocabularies[i].size()); ++t) {
      std::printf(" %s", ds.vocabularies[i].Term(t).c_str());
    }
    std::printf(")\n");
  }
  return 0;
}

/// Parses "a,b;c,d" into one KeywordSet per feature set.
bool ParseKeywords(const std::string& spec, const Dataset& ds, Query* query) {
  std::vector<std::string> groups = Split(spec, ';');
  if (groups.size() != ds.feature_tables.size()) {
    std::fprintf(stderr,
                 "error: %zu keyword groups for %zu feature sets "
                 "(separate groups with ';')\n",
                 groups.size(), ds.feature_tables.size());
    return false;
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    KeywordSet kw(ds.feature_tables[i].universe_size());
    for (std::string term : Split(groups[i], ',')) {
      std::erase_if(term, [](unsigned char ch) { return std::isspace(ch); });
      if (term.empty()) continue;
      Result<TermId> id = ds.vocabularies[i].Lookup(term);
      if (!id.ok()) {
        std::fprintf(stderr, "error: unknown keyword '%s' in set %zu\n",
                     term.c_str(), i);
        return false;
      }
      kw.Insert(id.value());
    }
    query->keywords.push_back(std::move(kw));
  }
  return true;
}

int RunQuery(const Args& args) {
  Dataset ds;
  Result<Engine> engine_r = MakeEngine(args, &ds);
  if (!engine_r.ok()) return Fail(engine_r.status());
  Engine engine = engine_r.TakeValue();
  Query query;
  SetQueryShape(args, &query);
  if (!ParseKeywords(args.Str(kKeywords), ds, &query)) return 1;

  const Algorithm algo = AlgorithmOf(args);
  Result<QueryResult> executed = engine.Execute(query, algo);
  if (!executed.ok()) return Fail(executed.status());
  QueryResult result = executed.TakeValue();
  std::printf("top-%u (%s, %s, %s index):\n", query.k,
              VariantName(query.variant), AlgorithmName(algo),
              engine.IndexName());
  for (size_t rank = 0; rank < result.entries.size(); ++rank) {
    const ResultEntry& e = result.entries[rank];
    const std::string& name = ds.objects[e.object].name;
    std::printf("%3zu. #%-8u %-20s tau = %.5f\n", rank + 1, e.object,
                name.empty() ? "(unnamed)" : name.c_str(), e.score);
    if (args.Has(kExplain)) {
      Explanation why = ExplainScore(&engine, query, e.object);
      for (const Contribution& c : why.contributions) {
        if (!c.has_feature) {
          std::printf("       set %zu: no relevant feature\n",
                      c.feature_set);
          continue;
        }
        const FeatureObject& f =
            engine.feature_table(c.feature_set).Get(c.feature);
        std::printf("       set %zu: %-20s s=%.4f dist=%.5f\n",
                    c.feature_set,
                    f.name.empty() ? "(unnamed)" : f.name.c_str(), c.score,
                    c.distance);
      }
    }
  }
  std::printf("cost: %.3f ms CPU, %llu page reads\n", result.stats.cpu_ms,
              static_cast<unsigned long long>(result.stats.TotalReads()));
  return 0;
}

/// The optional live-introspection plane behind --serve-admin /
/// --metrics-interval / --slow-ms (DESIGN.md §18): a background metrics
/// sampler, a slow-query log, and the admin HTTP server wired to all of
/// them plus the engine.  Members shut down in reverse order of arming.
struct AdminScope {
  std::unique_ptr<MetricsRecorder> recorder;
  std::unique_ptr<SlowQueryLog> slow_log;
  std::unique_ptr<AdminServer> server;

  /// Stops the server first (no requests against a dead sampler), then
  /// the sampler.
  ~AdminScope() {
    if (server != nullptr) server->Stop();
    if (recorder != nullptr) recorder->Stop();
  }
};

/// /statusz rows describing `engine`: shape, storage, pool capacity.
AdminStatusRows EngineStatusRows(const Engine* engine) {
  AdminStatusRows rows;
  rows.emplace_back("index", engine->IndexName());
  rows.emplace_back("objects", std::to_string(engine->objects().size()));
  rows.emplace_back("feature_sets",
                    std::to_string(engine->num_feature_sets()));
  rows.emplace_back("backend",
                    StorageBackendName(engine->page_store().backend()));
  rows.emplace_back("page_size",
                    std::to_string(engine->options().build.page_size_bytes));
  rows.emplace_back("pool_capacity_pages",
                    std::to_string(engine->options().pool_capacity));
  return rows;
}

/// Arms the introspection plane the flags ask for.  Returns false (with
/// the error printed) only when --serve-admin was requested and the bind
/// failed.
bool StartAdmin(const Args& args, const Engine* engine, AdminScope* scope) {
  const bool serve = args.Has(kServeAdmin);
  if (serve || args.Has(kMetricsInterval)) {
    MetricsRecorderOptions ropts;
    ropts.interval_ms = args.Uint(kMetricsInterval, 250);
    if (ropts.interval_ms == 0) ropts.interval_ms = 250;
    scope->recorder = std::make_unique<MetricsRecorder>(ropts);
    scope->recorder->Start();
  }
  if (args.Has(kSlowMs)) {
    scope->slow_log = std::make_unique<SlowQueryLog>(args.Double(kSlowMs, 0));
  }
  if (!serve) return true;
  AdminServerOptions sopts;
  sopts.port = static_cast<uint16_t>(args.Uint(kServeAdmin, 0));
  sopts.recorder = scope->recorder.get();
  sopts.slow_log = scope->slow_log.get();
  sopts.status_provider = [engine] { return EngineStatusRows(engine); };
  scope->server = std::make_unique<AdminServer>(std::move(sopts));
  Status st = scope->server->Start();
  if (!st.ok()) {
    Fail(st);
    return false;
  }
  // The CI smoke driver (tests/admin/check_admin_live.py) parses this
  // line to find an ephemeral port; keep the format stable.
  std::printf("admin: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(scope->server->port()));
  std::fflush(stdout);
  return true;
}

/// Prints the sampler's interval table: one row per closed interval with
/// the derived per-interval rates (the same numbers /varz serves).
void PrintIntervalTable(const MetricsRecorder& recorder) {
  const std::vector<IntervalSample> samples = recorder.Recent();
  if (samples.empty()) return;
  std::printf("interval samples (every %llu ms):\n",
              static_cast<unsigned long long>(recorder.interval_ms()));
  std::printf("%10s %9s %10s %12s %10s %10s %10s\n", "t_ms", "queries",
              "queries/s", "page_reads", "hit_rate", "p50_ms", "p99_ms");
  for (const IntervalSample& s : samples) {
    const LatencyHistogram* lat = s.Histogram("stpq_query_cpu_ms");
    std::printf("%10.0f %9llu %10.1f %12llu %10.3f %10.3f %10.3f\n", s.end_ms,
                static_cast<unsigned long long>(
                    s.CounterDelta("stpq_queries_total")),
                s.QueriesPerSec(),
                static_cast<unsigned long long>(
                    s.CounterDelta("stpq_pages_read_total")),
                s.PoolHitRate(),
                lat != nullptr ? lat->PercentileMs(0.50) : 0.0,
                lat != nullptr ? lat->PercentileMs(0.99) : 0.0);
  }
}

/// Writes the global registry's Prometheus text exposition to `path`.
bool WriteMetricsFile(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot write metrics file '%s'\n",
                 path.c_str());
    return false;
  }
  out << MetricsRegistry::Global().RenderPrometheusText();
  return static_cast<bool>(out);
}

/// Drains the global tracer into a Chrome trace-event JSON file.  With a
/// slow-query log armed only its captured queries are exported: the log
/// drained every query's events from the rings as it finished.
bool WriteTraceFile(const std::string& path, const SlowQueryLog* slow_log) {
  TraceCollection collection = Tracer::Global().Collect();
  std::vector<SlowQueryRecord> records;
  if (slow_log != nullptr) {
    records = slow_log->Snapshot();
    collection = CollectionFromSlowQueries(records, collection.dropped);
  }
  Status st = WriteChromeTraceFile(collection, path);
  if (!st.ok()) {
    Fail(st);
    return false;
  }
  if (slow_log != nullptr) {
    std::printf("trace: %zu slow queries (>= %.3f ms, %llu dropped), "
                "%zu events -> %s\n",
                records.size(), slow_log->threshold_ms(),
                static_cast<unsigned long long>(slow_log->dropped()),
                collection.TotalEvents(), path.c_str());
  } else {
    std::printf("trace: %zu events from %zu threads (%llu dropped) -> %s\n",
                collection.TotalEvents(), collection.threads.size(),
                static_cast<unsigned long long>(collection.dropped),
                path.c_str());
  }
  return true;
}

/// One finished run of a batch command, handed to the command's printer.
struct BatchRun {
  const Args& args;
  const Engine& engine;
  const WorkloadOptions& options;
  const WorkloadReport& report;
  bool first;  ///< the first of the --threads runs
};

/// The one path behind bench, workload, profile and trace: engine →
/// generated queries → admin plane → one RunWorkload per --threads count
/// → trace and metrics export → linger → the sampler's interval table.
/// The commands differ only in their defaults and in `print`, which is
/// called after each run.  An empty `default_trace_out` traces only when
/// --trace-out is given.
int RunBatch(const Args& args, uint32_t default_queries,
             const char* default_trace_out, void (*print)(const BatchRun&)) {
  Dataset ds;
  Result<Engine> engine = MakeEngine(args, &ds);
  if (!engine.ok()) return Fail(engine.status());
  QueryWorkloadConfig qcfg;
  qcfg.count = args.Uint(kQueries, default_queries);
  SetQueryShape(args, &qcfg);
  const std::vector<Query> queries = GenerateQueries(ds, qcfg);

  AdminScope admin;
  if (!StartAdmin(args, &engine.value(), &admin)) return 1;
  const std::string trace_out = args.Str(kTraceOut, default_trace_out);
  if (!trace_out.empty()) Tracer::Global().Start();

  WorkloadOptions options;
  options.algorithm = AlgorithmOf(args);
  options.io_unit_cost_ms = args.Double(kIoMs, 0.1);
  options.slow_log = admin.slow_log.get();
  const std::vector<double> thread_counts = args.Numbers(kThreads, 1);
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    options.threads = static_cast<size_t>(thread_counts[i]);
    Result<WorkloadReport> report =
        RunWorkload(engine.value(), queries, options);
    if (!report.ok()) return Fail(report.status());
    print({args, engine.value(), options, report.value(), i == 0});
  }
  if (!trace_out.empty()) {
    Tracer::Global().Stop();
    if (!WriteTraceFile(trace_out, admin.slow_log.get())) return 1;
  }
  if (args.Has(kMetrics) && !WriteMetricsFile(args.Str(kMetrics))) {
    return 1;
  }
  // Keep the admin server scrapeable so out-of-process drivers can fetch
  // the final state.
  const uint32_t linger_ms = args.Uint(kLingerMs, 0);
  if (linger_ms > 0 && admin.server != nullptr) {
    std::printf("admin: lingering %u ms\n", linger_ms);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
  }
  if (admin.recorder != nullptr) {
    admin.recorder->Stop();  // closes the final partial interval
    PrintIntervalTable(*admin.recorder);
  }
  return 0;
}

/// bench and trace: the batch summary line.
void PrintSummary(const BatchRun& run) {
  std::printf("%s\n", run.report.summary.ToString().c_str());
}

/// workload: one throughput row per thread count under a shared header.
void PrintThroughputRow(const BatchRun& run) {
  const WorkloadReport& r = run.report;
  if (run.first) {
    std::printf("%zu queries, %s, %s index\n", r.summary.queries,
                AlgorithmName(run.options.algorithm), run.engine.IndexName());
    std::printf("%8s %12s %12s %14s %10s %10s %10s\n", "threads", "wall_ms",
                "queries/s", "reads/query", "p50_ms", "p95_ms", "p99_ms");
  }
  const MetricSummary& latency = r.summary.total_ms;
  std::printf("%8zu %12.2f %12.1f %14.1f %10.3f %10.3f %10.3f\n",
              run.options.threads, r.wall_ms, r.queries_per_sec,
              r.summary.mean_page_reads, latency.p50, latency.p95,
              latency.p99);
}

/// profile: the per-phase wall-time breakdown plus the latency
/// distribution (DESIGN.md §12).
void PrintProfile(const BatchRun& run) {
  const QueryStats& aggregate = run.report.summary.aggregate;
  const MetricSummary& latency = run.report.summary.total_ms;
  const double io_ms = run.options.io_unit_cost_ms;
  std::printf("profile: %zu queries, %s, %s index, variant=%s\n",
              run.report.summary.queries,
              AlgorithmName(run.options.algorithm), run.engine.IndexName(),
              run.args.Str(kVariant, "range").c_str());
  std::printf("latency (cpu + %.3f ms/read): p50=%.3f p90=%.3f p95=%.3f "
              "p99=%.3f max=%.3f mean=%.3fms\n",
              io_ms, latency.p50, latency.p90, latency.p95, latency.p99,
              latency.max, latency.mean);

  // Phase breakdown: traced self-times, the derived I/O phase (page reads
  // priced at io-ms, never timed), and the untraced remainder.
  const double io_total = aggregate.IoMillis(io_ms);
  const double grand_total = aggregate.cpu_ms + io_total;
  auto row = [&](const char* name, double ms) {
    std::printf("  %-18s %12.3f ms %6.1f%%\n", name, ms,
                grand_total > 0.0 ? 100.0 * ms / grand_total : 0.0);
  };
  std::printf("phase breakdown (self time over the whole workload):\n");
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    row(QueryPhaseName(static_cast<QueryPhase>(i)),
        aggregate.phase_ms[i]);
  }
  row("io (derived)", io_total);
  row("other", aggregate.UntracedMillis());
  std::printf("counters: %s\n", aggregate.ToString().c_str());
}

int Bench(const Args& args) { return RunBatch(args, 50, "", &PrintSummary); }

int Workload(const Args& args) {
  return RunBatch(args, 200, "", &PrintThroughputRow);
}

int Profile(const Args& args) {
  return RunBatch(args, 100, "", &PrintProfile);
}

/// Slow-query mode (--slow-ms) exports only the captured queries; without
/// it the full event stream of the run is exported.
int Trace(const Args& args) {
  return RunBatch(args, 100, "trace.json", &PrintSummary);
}

/// Runs the deep structural validators (debug/validate.h) over every index
/// of `engine`: the object index, then each feature index.  `report`
/// receives each structure's name and verdict.
void ValidateEngine(
    const Engine& engine,
    const std::function<void(const std::string&, const Status&)>& report) {
  report("object index", ValidateObjectIndex(engine.object_index()));
  for (size_t i = 0; i < engine.num_feature_sets(); ++i) {
    const FeatureIndex& fi = engine.feature_index(i);
    report("feature index " + std::to_string(i) + " (" + fi.Name() + ")",
           ValidateFeatureIndex(fi));
  }
}

/// Reports every structure's verdict, one line each.  Exit code 0 = all
/// structures sound.
int Validate(const Args& args) {
  Dataset ds;
  Result<Engine> engine = MakeEngine(args, &ds);
  if (!engine.ok()) return Fail(engine.status());
  int failures = 0;
  ValidateEngine(engine.value(), [&failures](const std::string& what,
                                             const Status& st) {
    if (st.ok()) {
      std::printf("%-24s OK\n", what.c_str());
    } else {
      std::printf("%-24s VIOLATION: %s\n", what.c_str(),
                  st.message().c_str());
      ++failures;
    }
  });
  if (failures == 0) {
    std::printf("all structures sound\n");
  }
  return failures == 0 ? 0 : 1;
}

/// Builds every index over a dataset and persists the set as a .stpqx
/// file that `--index`-accepting commands (and Engine::Open) reopen.
int BuildIndex(const Args& args) {
  const std::string out = args.Str(kIndex);
  if (out.empty()) {
    return Fail(
        Status::InvalidArgument("--index FILE (output path) is required"));
  }
  if (args.Has(kExternal)) {
    // External build: stream the dataset straight into the .stpqx file in
    // bounded memory; the dataset is never materialized.
    const std::string data_path = args.Str(kData);
    if (data_path.empty()) {
      return Fail(Status::InvalidArgument("--data FILE is required"));
    }
    ExternalBuildOptions opts;
    opts.params = BuildParams(args);
    opts.memory_budget_bytes = uint64_t{args.Uint(kMemoryBudget, 256)} << 20;
    opts.temp_dir = args.Str(kTempDir);
    Result<ExternalBuildStats> stats_r =
        BuildIndexFileExternal(data_path, out, opts);
    if (!stats_r.ok()) return Fail(stats_r.status());
    const ExternalBuildStats& s = stats_r.value();
    std::printf("wrote %s: %s index, %llu objects, %u feature sets, "
                "%llu bytes (external build)\n",
                out.c_str(),
                opts.params.index_kind == FeatureIndexKind::kIr2 ? "IR2"
                                                                 : "SRT",
                static_cast<unsigned long long>(s.objects), s.tables,
                static_cast<unsigned long long>(s.output_bytes));
    std::printf("sort: %llu runs written, %llu merge passes, "
                "%llu bytes spilled\n",
                static_cast<unsigned long long>(s.runs_written),
                static_cast<unsigned long long>(s.merge_passes),
                static_cast<unsigned long long>(s.spilled_bytes));
    return 0;
  }
  Result<Dataset> data = LoadData(args);
  if (!data.ok()) return Fail(data.status());
  Dataset ds = data.TakeValue();
  std::vector<Vocabulary> vocabularies = ds.vocabularies;  // ride along
  Result<Engine> engine =
      Engine::Build(std::move(ds.objects), std::move(ds.feature_tables),
                    MakeEngineOptions(args));
  if (!engine.ok()) return Fail(engine.status());
  Status st = engine.value().Save(out, vocabularies);
  if (!st.ok()) return Fail(st);
  Result<IndexFileInfo> info = ReadIndexFileInfo(out);
  if (!info.ok()) {
    std::fprintf(stderr, "error: reopening just-written index: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %s index, %llu objects, %u feature sets, "
              "%llu bytes\n",
              out.c_str(), engine.value().IndexName(),
              static_cast<unsigned long long>(info.value().object_count),
              info.value().table_count,
              static_cast<unsigned long long>(info.value().file_bytes));
  return 0;
}

/// Prints the superblock + segment catalog of a .stpqx file; --verify
/// also opens the index (every segment checksum) and runs the same
/// structural validators as `validate` over it.
int LoadInfo(const Args& args) {
  const std::string path = args.Str(kIndex);
  if (path.empty()) {
    return Fail(Status::InvalidArgument("--index FILE is required"));
  }
  Result<IndexFileInfo> info_r = ReadIndexFileInfo(path);
  if (!info_r.ok()) return Fail(info_r.status());
  const IndexFileInfo& info = info_r.value();
  std::printf("%s: version %u, %s index, page size %u, fill %.2f\n",
              path.c_str(), info.version,
              info.params.index_kind == FeatureIndexKind::kIr2 ? "IR2" : "SRT",
              info.params.page_size_bytes, info.params.fill);
  std::printf("objects: %llu, feature sets: %u, file bytes: %llu\n",
              static_cast<unsigned long long>(info.object_count),
              info.table_count,
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("%-20s %8s %12s %10s %10s\n", "segment", "ordinal", "bytes",
              "slots", "slot_b");
  for (const IndexSegmentInfo& s : info.segments) {
    std::printf("%-20s %8u %12llu %10llu %10u\n", s.name.c_str(), s.ordinal,
                static_cast<unsigned long long>(s.bytes),
                static_cast<unsigned long long>(s.slots), s.slot_bytes);
  }
  if (args.Has(kVerify)) {
    Result<Engine> engine = Engine::Open(path);
    if (!engine.ok()) {
      std::fprintf(stderr, "verify FAILED: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    int failures = 0;
    ValidateEngine(engine.value(), [&failures](const std::string& what,
                                               const Status& st) {
      if (st.ok()) return;
      std::fprintf(stderr, "verify FAILED: %s: %s\n", what.c_str(),
                   st.ToString().c_str());
      ++failures;
    });
    if (failures > 0) return 1;
    std::printf("verify OK: all segments restored\n");
  }
  return 0;
}

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"generate", "synthesize a dataset and write it as a .stpq file",
       {&kOut, &kDatasetKind, &kScale, &kSeed}, &Generate},
      {"info", "summarize a .stpq dataset", {&kData}, &Info},
      {"build",
       "build all indexes over a dataset and persist them as a .stpqx file",
       {&kData, &kIndex, &kIndexKind, &kPageSize, &kFill, &kSignatureBits,
        &kSignatureHashes, &kExternal, &kMemoryBudget, &kTempDir},
       &BuildIndex},
      {"load", "print the superblock + segment catalog of a .stpqx file",
       {&kIndex, &kVerify}, &LoadInfo},
      {"query", "run one query and print the top-k",
       Join({kEngineFlags, {&kKeywords}, kQueryShapeFlags, {&kExplain}}),
       &RunQuery},
      {"bench", "run a generated query batch sequentially",
       Join({kEngineFlags, kBatchFlags, kAdminFlags}), &Bench},
      {"workload", "parallel throughput sweep over thread counts",
       Join({kEngineFlags, {&kThreads}, kBatchFlags, {&kMetrics, &kTraceOut},
             kAdminFlags}),
       &Workload},
      {"profile", "sequential run with phase breakdown + latency percentiles",
       Join({kEngineFlags, kBatchFlags, {&kMetrics, &kTraceOut},
             kAdminFlags}),
       &Profile},
      {"trace", "run with the tracer armed and export Chrome trace JSON",
       Join({kEngineFlags, {&kTraceOut, &kThreads}, kBatchFlags,
             kAdminFlags}),
       &Trace},
      {"validate", "run the deep structural validators over every index",
       kEngineFlags, &Validate},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  for (const CommandSpec& c : Commands()) {
    if (command != c.name) continue;
    Args args;
    if (!ParseArgs(argc, argv, c, &args)) return 2;
    if (args.Has(kHelp)) {
      PrintHelp(c);
      return 0;
    }
    return c.run(args);
  }
  return Usage();
}
