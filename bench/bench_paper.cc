// bench_paper: the paper's evaluation (Section 8) declared as one table.
//
// Every panel of Table 3 and Figures 7-14, the three ablations and the
// thread sweep is one entry of Panels(): its figure and panel id, the x
// axis and its values, the dataset, the query parameters, the algorithm,
// the compared engine variants and the extra columns it prints.  The
// runner builds each distinct dataset and engine once and measures each
// distinct (engine, algorithm, queries, threads) configuration once, as
// kRepetitions back-to-back batches through RunWorkload, so a
// configuration that several panels share prints one measurement in each.
// Time is split as in the paper's bars: CPU (measured; the median of the
// repetitions' per-query means, with their min and max) and I/O (page
// reads x STPQ_IO_MS).  Page reads are exact and must repeat: a
// repetition that reads other pages than the first exits 1.
//
// Usage: bench_paper [--figure ID] [--json FILE]
//   --figure ID  a figure (table3, 7..14, pulling, srt, alg5, parallel) or
//                one of its panels (table3a, 7c, parallelb, ...); default all
//   --json FILE  also write a JSON array with one record per row and variant
//
// Environment (a malformed or out-of-range value exits 2):
//   STPQ_SCALE    multiplier on dataset cardinalities, in (0, 1]; default
//                 0.1 (1.0 = the paper's sizes, up to 1M records per set)
//   STPQ_QUERIES  queries per point, 1..10000; default: each figure's own
//                 (the paper used 1000)
//   STPQ_IO_MS    simulated cost of one page read in ms, >= 0; default 0.1
//                 (the paper's 2007-era disk was ~5)
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/score.h"
#include "core/workload.h"
#include "gen/queries.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "util/timer.h"

namespace stpq {
namespace {

constexpr int kRepetitions = 3;

// Algorithm 5's combination count is combinatorial in c (EXPERIMENTS.md
// D3): it is attempted only up to c = 3, and only when its first query
// finishes within the budget.  A single c = 4 query can run for tens of
// minutes.
constexpr uint32_t kAlg5MaxSets = 3;
constexpr double kAlg5BudgetMs = 30'000.0;

struct Env {
  double scale = 0.1;
  uint32_t queries = 0;  // 0: each figure's default
  double io_ms = 0.1;
};

[[noreturn]] void Refuse(const std::string& message) {
  std::fprintf(stderr, "bench_paper: %s\n", message.c_str());
  std::exit(2);
}

// The value of environment variable `name` parsed in full as a finite
// number within [lo, hi] (lo itself excluded when `lo_open`); nullopt when
// the variable is unset.
std::optional<double> EnvNumber(const char* name, double lo, bool lo_open,
                                double hi, const char* range) {
  const char* s = std::getenv(name);
  if (s == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v < lo || (lo_open && v == lo) || v > hi) {
    Refuse(std::string(name) + "='" + s + "' must be a number in " + range);
  }
  return v;
}

Env ReadEnv() {
  Env env;
  if (auto v = EnvNumber("STPQ_SCALE", 0.0, true, 1.0, "(0, 1]")) {
    env.scale = *v;
  }
  if (auto v = EnvNumber("STPQ_IO_MS", 0.0, false, HUGE_VAL, "[0, inf)")) {
    env.io_ms = *v;
  }
  if (const char* s = std::getenv("STPQ_QUERIES")) {
    char* end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (*s < '0' || *s > '9' || *end != '\0' || errno == ERANGE || v < 1 ||
        v > 10'000) {
      Refuse(std::string("STPQ_QUERIES='") + s +
             "' must be an integer in [1, 10000]");
    }
    env.queries = static_cast<uint32_t>(v);
  }
  return env;
}

uint32_t Scaled(uint32_t n, double scale) {
  return std::max(1u, static_cast<uint32_t>(n * scale));
}

enum class DataKind { kSynthetic, kRealLike, kSkewed };

// A dataset at unscaled cardinalities; STPQ_SCALE applies on generation.
// The real-like dataset ignores every other field.
struct DataSpec {
  DataKind kind = DataKind::kSynthetic;
  uint32_t objects = 100'000;
  uint32_t features = 100'000;  // per set; kSkewed: the small set
  uint32_t sets = 2;            // c
  uint32_t keywords = 128;      // indexed keywords
  uint64_t seed = 42;
  auto operator<=>(const DataSpec&) const = default;
};

struct QuerySpec {
  ScoreVariant variant = ScoreVariant::kRange;
  uint32_t k = 10;
  double r = 0.01;
  double lambda = 0.5;
  uint32_t queried = 3;  // queried keywords per feature set
  uint32_t count = 30;   // the figure's default query count
  auto operator<=>(const QuerySpec&) const = default;
};

struct EngineSpec {
  FeatureIndexKind index = FeatureIndexKind::kSrt;
  PullingStrategy pulling = PullingStrategy::kPrioritized;
  InfluenceMode influence = InfluenceMode::kAnchored;
  auto operator<=>(const EngineSpec&) const = default;
};

// One measured configuration.  Members are ordered so that sorted
// configurations group by dataset, then by engine.
struct Config {
  DataSpec data;
  EngineSpec engine;
  Algorithm algo = Algorithm::kStps;
  QuerySpec query;
  uint32_t threads = 1;
  auto operator<=>(const Config&) const = default;
};

struct Variant {
  const char* name;
  EngineSpec engine;
};

// The engines a panel compares, and the column header naming what they
// differ in.
struct Variants {
  const char* header;
  std::vector<Variant> list;
};

const Variants kIndexes{
    "index", {{"IR2", {.index = FeatureIndexKind::kIr2}}, {"SRT", {}}}};
const Variants kSrtOnly{"index", {{"SRT", {}}}};
const Variants kPullings{
    "pulling",
    {{"round-robin", {.pulling = PullingStrategy::kRoundRobin}},
     {"prioritized", {}}}};
const Variants kInfluenceModes{
    "influence",
    {{"alg5", {.influence = InfluenceMode::kCombinations}}, {"anchored", {}}}};

enum class Axis {
  kFeatures, kObjects, kSets, kKeywords,  // dataset
  kRadius, kK, kLambda, kQueried,         // query
  kThreads,
};

// Columns a panel prints after the common ones.
enum class Extras { kNone, kVoronoi, kCounts, kThroughput };

struct Panel {
  const char* figure;
  const char* id;
  const char* title;
  Axis axis;
  std::vector<double> xs;
  DataSpec data;
  QuerySpec query;
  Algorithm algo;
  const Variants* variants;
  Extras extras = Extras::kNone;
};

std::vector<Panel> Panels() {
  const std::vector<double> cards{50'000, 100'000, 500'000, 1'000'000};
  const std::vector<double> sets{2, 3, 4, 5};
  const std::vector<double> vocab{64, 128, 192, 256};
  const std::vector<double> radii{0.005, 0.01, 0.02, 0.04, 0.08};
  const std::vector<double> ks{5, 10, 20, 40, 80};
  const std::vector<double> lambdas{0.1, 0.3, 0.5, 0.7, 0.9};
  const std::vector<double> queried{1, 3, 5, 7, 9};
  const DataSpec synth;
  const DataSpec real{.kind = DataKind::kRealLike};
  const DataSpec skewed{.kind = DataKind::kSkewed, .features = 20'000};
  const QuerySpec stds{.count = 5};
  const QuerySpec range{.count = 30};
  const QuerySpec infl{.variant = ScoreVariant::kInfluence, .count = 20};
  const QuerySpec nn{.variant = ScoreVariant::kNearestNeighbor, .count = 10};
  const QuerySpec alg5{.variant = ScoreVariant::kInfluence, .count = 10};
  const QuerySpec sweep{.count = 200};
  using enum Algorithm;
  return {
      {"table3", "table3a", "Table 3(a): STDS, synthetic, varying |F_i|",
       Axis::kFeatures, cards, synth, stds, kStds, &kIndexes},
      {"table3", "table3b", "Table 3(b): STDS, synthetic, varying |O|",
       Axis::kObjects, cards, synth, stds, kStds, &kIndexes},
      {"table3", "table3c", "Table 3(c): STDS, synthetic, varying c",
       Axis::kSets, sets, synth, stds, kStds, &kIndexes},
      {"table3", "table3d",
       "Table 3(d): STDS, synthetic, varying indexed keywords",
       Axis::kKeywords, vocab, synth, stds, kStds, &kIndexes},
      {"7", "7a", "Fig 7(a): STPS range, synthetic, varying |F_i|",
       Axis::kFeatures, cards, synth, range, kStps, &kIndexes},
      {"7", "7b", "Fig 7(b): STPS range, synthetic, varying |O|",
       Axis::kObjects, cards, synth, range, kStps, &kIndexes},
      {"7", "7c", "Fig 7(c): STPS range, synthetic, varying c", Axis::kSets,
       sets, synth, range, kStps, &kIndexes},
      {"7", "7d", "Fig 7(d): STPS range, synthetic, varying indexed keywords",
       Axis::kKeywords, vocab, synth, range, kStps, &kIndexes},
      {"8", "8a", "Fig 8(a): STPS range, real-like, varying r", Axis::kRadius,
       radii, real, range, kStps, &kIndexes},
      {"8", "8b", "Fig 8(b): STPS range, real-like, varying k", Axis::kK, ks,
       real, range, kStps, &kIndexes},
      {"8", "8c", "Fig 8(c): STPS range, real-like, varying lambda",
       Axis::kLambda, lambdas, real, range, kStps, &kIndexes},
      {"8", "8d", "Fig 8(d): STPS range, real-like, varying queried keywords",
       Axis::kQueried, queried, real, range, kStps, &kIndexes},
      {"9", "9a", "Fig 9(a): STPS range, synthetic, varying r", Axis::kRadius,
       radii, synth, range, kStps, &kIndexes},
      {"9", "9b", "Fig 9(b): STPS range, synthetic, varying k", Axis::kK, ks,
       synth, range, kStps, &kIndexes},
      {"9", "9c", "Fig 9(c): STPS range, synthetic, varying lambda",
       Axis::kLambda, lambdas, synth, range, kStps, &kIndexes},
      {"9", "9d", "Fig 9(d): STPS range, synthetic, varying queried keywords",
       Axis::kQueried, queried, synth, range, kStps, &kIndexes},
      {"10", "10a", "Fig 10(a): STPS influence, synthetic, varying |F_i|",
       Axis::kFeatures, cards, synth, infl, kStps, &kIndexes},
      {"10", "10b", "Fig 10(b): STPS influence, synthetic, varying |O|",
       Axis::kObjects, cards, synth, infl, kStps, &kIndexes},
      {"10", "10c", "Fig 10(c): STPS influence, synthetic, varying c",
       Axis::kSets, sets, synth, infl, kStps, &kIndexes},
      {"10", "10d",
       "Fig 10(d): STPS influence, synthetic, varying indexed keywords",
       Axis::kKeywords, vocab, synth, infl, kStps, &kIndexes},
      {"11", "11a", "Fig 11(a): STPS influence, real-like, varying k",
       Axis::kK, ks, real, infl, kStps, &kIndexes},
      {"11", "11b",
       "Fig 11(b): STPS influence, real-like, varying queried keywords",
       Axis::kQueried, queried, real, infl, kStps, &kIndexes},
      {"12", "12a", "Fig 12(a): STPS influence, synthetic, varying k",
       Axis::kK, ks, synth, infl, kStps, &kIndexes},
      {"12", "12b",
       "Fig 12(b): STPS influence, synthetic, varying queried keywords",
       Axis::kQueried, queried, synth, infl, kStps, &kIndexes},
      {"13", "13a", "Fig 13(a): STPS NN, synthetic, varying |F_i|",
       Axis::kFeatures, cards, synth, nn, kStps, &kIndexes, Extras::kVoronoi},
      {"13", "13b", "Fig 13(b): STPS NN, synthetic, varying |O|",
       Axis::kObjects, cards, synth, nn, kStps, &kIndexes, Extras::kVoronoi},
      {"14", "14a", "Fig 14(a): STPS NN, real-like, varying k", Axis::kK, ks,
       real, nn, kStps, &kIndexes, Extras::kVoronoi},
      {"14", "14b", "Fig 14(b): STPS NN, synthetic, varying k", Axis::kK, ks,
       synth, nn, kStps, &kIndexes, Extras::kVoronoi},
      {"pulling", "pullinga",
       "Ablation (a): prioritized vs round-robin pulling, balanced sets",
       Axis::kSets, {2, 3, 4}, synth, range, kStps, &kPullings,
       Extras::kCounts},
      {"pulling", "pullingb",
       "Ablation (b): prioritized vs round-robin pulling, skewed 10:1 sets",
       Axis::kSets, {2}, skewed, range, kStps, &kPullings, Extras::kCounts},
      {"srt", "srt",
       "Ablation: SRT (4-D Hilbert packing) vs IR2 (2-D Hilbert packing)",
       Axis::kSets, {2}, synth, range, kStps, &kIndexes, Extras::kCounts},
      {"alg5", "alg5", "Ablation: Algorithm 5 vs anchored influence",
       Axis::kSets, {2, 3, 4}, synth, alg5, kStps, &kInfluenceModes,
       Extras::kCounts},
      {"parallel", "parallela", "Thread sweep (a): STPS range, synthetic",
       Axis::kThreads, {1, 2, 4, 8}, synth, sweep, kStps, &kSrtOnly,
       Extras::kThroughput},
      {"parallel", "parallelb", "Thread sweep (b): STDS, synthetic",
       Axis::kThreads, {1, 2, 4, 8}, synth, sweep, kStds, &kSrtOnly,
       Extras::kThroughput},
  };
}

// The configuration of panel `p` at x value `x` for variant `v`.
Config At(const Panel& p, double x, const Variant& v) {
  Config c{p.data, v.engine, p.algo, p.query, 1};
  const auto n = static_cast<uint32_t>(x);
  switch (p.axis) {
    case Axis::kFeatures: c.data.features = n; break;
    case Axis::kObjects: c.data.objects = n; break;
    case Axis::kSets: c.data.sets = n; break;
    case Axis::kKeywords: c.data.keywords = n; break;
    case Axis::kRadius: c.query.r = x; break;
    case Axis::kK: c.query.k = n; break;
    case Axis::kLambda: c.query.lambda = x; break;
    case Axis::kQueried: c.query.queried = n; break;
    case Axis::kThreads: c.threads = n; break;
  }
  return c;
}

std::string RowLabel(const Panel& p, double x, double scale) {
  const auto n = static_cast<uint32_t>(x);
  switch (p.axis) {
    case Axis::kFeatures: return "|F_i|=" + std::to_string(Scaled(n, scale));
    case Axis::kObjects: return "|O|=" + std::to_string(Scaled(n, scale));
    case Axis::kSets: return "c=" + std::to_string(n);
    case Axis::kKeywords: return "keywords=" + std::to_string(n);
    case Axis::kRadius: return "r=" + std::to_string(x).substr(0, 5);
    case Axis::kK: return "k=" + std::to_string(n);
    case Axis::kLambda: return "lambda=" + std::to_string(x).substr(0, 3);
    case Axis::kQueried: return "keywords=" + std::to_string(n);
    case Axis::kThreads: return "threads=" + std::to_string(n);
  }
  return "";
}

std::string DataName(const DataSpec& d, double scale) {
  if (d.kind == DataKind::kRealLike) return "real-like";
  std::string sets = std::to_string(Scaled(d.features, scale));
  if (d.kind == DataKind::kSkewed) {
    sets = std::to_string(Scaled(10 * d.features, scale)) + "/" + sets;
  }
  return std::string(d.kind == DataKind::kSkewed ? "skewed" : "synthetic") +
         " |O|=" + std::to_string(Scaled(d.objects, scale)) +
         " |F_i|=" + sets + " c=" + std::to_string(d.sets) +
         " keywords=" + std::to_string(d.keywords) +
         " seed=" + std::to_string(d.seed);
}

Dataset MakeDataset(const DataSpec& d, double scale) {
  if (d.kind == DataKind::kRealLike) {
    RealLikeConfig cfg;
    cfg.scale = scale;
    return GenerateRealLike(cfg);
  }
  SyntheticConfig cfg;
  cfg.seed = d.seed;
  cfg.num_objects = Scaled(d.objects, scale);
  cfg.num_features_per_set = Scaled(d.features, scale);
  cfg.num_feature_sets = d.sets;
  cfg.vocabulary_size = d.keywords;
  // Clusters scale with the data so that small runs stay clustered.
  cfg.num_clusters = std::max(100u, Scaled(10'000, scale));
  Dataset ds = GenerateSynthetic(cfg);
  if (d.kind == DataKind::kSkewed) {
    // Set 0 regenerated ten times larger from its own seed: the threshold
    // is usually owned by one set, which prioritized pulling exploits.
    cfg.seed = 77;
    cfg.num_features_per_set = Scaled(10 * d.features, scale);
    cfg.num_feature_sets = 1;
    ds.feature_tables[0] = std::move(GenerateSynthetic(cfg).feature_tables[0]);
  }
  return ds;
}

template <typename T>
T Unwrap(Result<T> r, const std::string& what) {
  if (!r.ok()) {
    std::fprintf(stderr, "bench_paper: %s: %s\n", what.c_str(),
                 r.status().ToString().c_str());
    std::exit(1);
  }
  return r.TakeValue();
}

enum class Outcome { kRan, kOverBudget, kNotAttempted };

struct Measurement {
  Outcome outcome = Outcome::kRan;
  WorkloadReport report;  // the repetition with the median CPU mean
  double cpu_min = 0.0;
  double cpu_max = 0.0;
  double first_query_ms = 0.0;  // Algorithm 5's budget probe
  uint64_t first_query_combinations = 0;
};

bool SameReads(const QueryStats& a, const QueryStats& b) {
  return a.object_index_reads == b.object_index_reads &&
         a.feature_index_reads == b.feature_index_reads &&
         a.voronoi_reads == b.voronoi_reads;
}

Measurement Measure(const Engine& engine, const std::vector<Query>& queries,
                    const Config& c, double io_ms, const std::string& what) {
  Measurement m;
  if (c.engine.influence == InfluenceMode::kCombinations) {
    if (c.data.sets > kAlg5MaxSets) {
      m.outcome = Outcome::kNotAttempted;
      return m;
    }
    Timer probe;
    const QueryResult first =
        Unwrap(engine.Execute(queries[0], c.algo), what);
    m.first_query_ms = probe.ElapsedMillis();
    m.first_query_combinations = first.stats.combinations_emitted;
    if (m.first_query_ms > kAlg5BudgetMs) {
      m.outcome = Outcome::kOverBudget;
      return m;
    }
  }
  WorkloadOptions options;
  options.algorithm = c.algo;
  options.threads = c.threads;
  options.io_unit_cost_ms = io_ms;
  std::vector<WorkloadReport> reps;
  for (int i = 0; i < kRepetitions; ++i) {
    reps.push_back(Unwrap(RunWorkload(engine, queries, options), what));
    reps.back().per_query.clear();
    if (!SameReads(reps.back().summary.aggregate, reps[0].summary.aggregate)) {
      std::fprintf(stderr,
                   "bench_paper: %s: repetition %d read other pages than "
                   "repetition 1\n",
                   what.c_str(), i + 1);
      std::exit(1);
    }
  }
  std::sort(reps.begin(), reps.end(), [](const auto& a, const auto& b) {
    return a.summary.cpu_ms.mean < b.summary.cpu_ms.mean;
  });
  m.cpu_min = reps.front().summary.cpu_ms.mean;
  m.cpu_max = reps.back().summary.cpu_ms.mean;
  m.report = std::move(reps[kRepetitions / 2]);
  return m;
}

// Measures every configuration keyed in `results`.  Sorted configurations
// group by dataset, then engine, so each is generated or built once and
// dropped before the next.
void MeasureAll(std::map<Config, Measurement>& results, const Env& env) {
  std::optional<Engine> engine;
  std::optional<Dataset> ds;
  std::map<QuerySpec, std::vector<Query>> queries;
  const Config* prev = nullptr;
  for (auto& [c, m] : results) {
    const std::string name = DataName(c.data, env.scale);
    const bool new_data = prev == nullptr || c.data != prev->data;
    if (new_data) {
      engine.reset();
      queries.clear();
      ds.reset();
      ds.emplace(MakeDataset(c.data, env.scale));
      std::fprintf(stderr, "bench_paper: measuring on %s\n", name.c_str());
    }
    if (new_data || c.engine != prev->engine) {
      engine.reset();
      EngineOptions opts;
      opts.build.index_kind = c.engine.index;
      opts.pulling = c.engine.pulling;
      opts.influence_mode = c.engine.influence;
      engine.emplace(Unwrap(
          Engine::Build(ds->objects,
                        std::vector<FeatureTable>(ds->feature_tables), opts),
          "building an engine on " + name));
    }
    auto it = queries.find(c.query);
    if (it == queries.end()) {
      QueryWorkloadConfig qcfg;
      qcfg.count = c.query.count;
      qcfg.k = c.query.k;
      qcfg.radius = c.query.r;
      qcfg.lambda = c.query.lambda;
      qcfg.keywords_per_set = c.query.queried;
      qcfg.variant = c.query.variant;
      it = queries.emplace(c.query, GenerateQueries(*ds, qcfg)).first;
    }
    m = Measure(*engine, it->second, c, env.io_ms, "a batch on " + name);
    prev = &c;
  }
}

const char* AlgoName(Algorithm a) {
  return a == Algorithm::kStds ? "STDS" : "STPS";
}

double PerQuery(double total, const WorkloadSummary& s) {
  return total / static_cast<double>(s.queries);
}

// Prints the header (m == nullptr) or one row of panel `p`.
void PrintRow(const Panel& p, const std::string& label, const char* variant,
              const Measurement* m, double base_qps, const Env& env) {
  if (m == nullptr) {
    std::printf("%-24s %-12s %-5s %10s %10s %10s %10s %10s %10s",
                "param", p.variants->header, "algo", "cpu_ms", "cpu_min",
                "cpu_max", "io_reads", "io_ms", "total_ms");
    switch (p.extras) {
      case Extras::kNone: break;
      case Extras::kVoronoi:
        std::printf(" %10s %10s", "vor_cpu_ms", "vor_io_ms");
        break;
      case Extras::kCounts:
        std::printf(" %10s %10s", "features/q", "combos/q");
        break;
      case Extras::kThroughput:
        std::printf(" %8s %10s %10s %8s", "workers", "wall_ms", "queries/s",
                    "speedup");
        break;
    }
    std::printf("\n");
    return;
  }
  std::printf("%-24s %-12s %-5s", label.c_str(), variant, AlgoName(p.algo));
  if (m->outcome == Outcome::kNotAttempted) {
    std::printf("  not attempted: combinatorial at c > %u\n", kAlg5MaxSets);
    return;
  }
  if (m->outcome == Outcome::kOverBudget) {
    std::printf("  over budget: first query %.0f ms, %llu combinations\n",
                m->first_query_ms,
                static_cast<unsigned long long>(m->first_query_combinations));
    return;
  }
  const WorkloadSummary& s = m->report.summary;
  std::printf(" %10.3f %10.3f %10.3f %10.1f %10.3f %10.3f", s.cpu_ms.mean,
              m->cpu_min, m->cpu_max, s.mean_page_reads, s.io_ms.mean,
              s.total_ms.mean);
  switch (p.extras) {
    case Extras::kNone: break;
    case Extras::kVoronoi:
      std::printf(" %10.3f %10.3f",
                  PerQuery(s.aggregate.PhaseMillis(QueryPhase::kVoronoi), s),
                  PerQuery(static_cast<double>(s.aggregate.voronoi_reads), s) *
                      env.io_ms);
      break;
    case Extras::kCounts:
      std::printf(
          " %10.1f %10.1f",
          PerQuery(static_cast<double>(s.aggregate.features_retrieved), s),
          PerQuery(static_cast<double>(s.aggregate.combinations_emitted), s));
      break;
    case Extras::kThroughput:
      std::printf(" %8zu %10.2f %10.1f %7.2fx", m->report.workers,
                  m->report.wall_ms, m->report.queries_per_sec,
                  base_qps > 0.0 ? m->report.queries_per_sec / base_qps : 0.0);
      break;
  }
  std::printf("\n");
}

void WriteRecord(std::FILE* out, const Panel& p, const std::string& label,
                 const Variant& v, const Config& c, const Measurement& m,
                 double scale) {
  static const char* const kOutcomes[] = {"ran", "over_budget",
                                          "not_attempted"};
  std::fprintf(
      out,
      "{\"figure\": \"%s\", \"panel\": \"%s\", \"param\": \"%s\", "
      "\"variant\": \"%s\", \"algo\": \"%s\", \"score\": \"%s\", "
      "\"dataset\": \"%s\", \"queries\": %u, \"threads\": %u, "
      "\"status\": \"%s\"",
      p.figure, p.id, label.c_str(), v.name, AlgoName(c.algo),
      VariantName(c.query.variant), DataName(c.data, scale).c_str(),
      c.query.count, c.threads, kOutcomes[static_cast<int>(m.outcome)]);
  if (m.outcome == Outcome::kOverBudget) {
    std::fprintf(out,
                 ", \"first_query_ms\": %.3f, "
                 "\"first_query_combinations\": %llu",
                 m.first_query_ms,
                 static_cast<unsigned long long>(m.first_query_combinations));
  }
  if (m.outcome == Outcome::kRan) {
    const WorkloadSummary& s = m.report.summary;
    const QueryStats& a = s.aggregate;
    std::fprintf(
        out,
        ", \"repetitions\": %d, \"object_reads\": %llu, "
        "\"feature_reads\": %llu, \"voronoi_reads\": %llu, "
        "\"reads_per_query\": %.4f, \"cpu_ms\": {\"median\": %.6g, "
        "\"min\": %.6g, \"max\": %.6g}, \"io_ms\": %.6g, "
        "\"total_ms\": %.6g, \"latency_ms\": {\"p50\": %.6g, "
        "\"p95\": %.6g, \"p99\": %.6g}, \"phase_ms\": {",
        kRepetitions, static_cast<unsigned long long>(a.object_index_reads),
        static_cast<unsigned long long>(a.feature_index_reads),
        static_cast<unsigned long long>(a.voronoi_reads), s.mean_page_reads,
        s.cpu_ms.mean, m.cpu_min, m.cpu_max, s.io_ms.mean, s.total_ms.mean,
        s.total_ms.p50, s.total_ms.p95, s.total_ms.p99);
    for (size_t i = 0; i < kNumQueryPhases; ++i) {
      const auto phase = static_cast<QueryPhase>(i);
      std::fprintf(out, "%s\"%s\": %.6g", i == 0 ? "" : ", ",
                   QueryPhaseName(phase), PerQuery(a.PhaseMillis(phase), s));
    }
    std::fprintf(
        out,
        "}, \"features_per_query\": %.4f, \"combinations_per_query\": %.4f, "
        "\"workers\": %zu, \"wall_ms\": %.6g, \"queries_per_sec\": %.6g",
        PerQuery(static_cast<double>(a.features_retrieved), s),
        PerQuery(static_cast<double>(a.combinations_emitted), s),
        m.report.workers, m.report.wall_ms, m.report.queries_per_sec);
  }
  std::fprintf(out, "}");
}

int Main(int argc, char** argv) {
  std::string figure;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--figure") == 0 && has_value) {
      figure = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && has_value) {
      json_path = argv[++i];
    } else {
      Refuse(std::string("unknown or incomplete argument '") + argv[i] +
             "'; usage: bench_paper [--figure ID] [--json FILE]");
    }
  }
  const Env env = ReadEnv();

  std::vector<Panel> panels = Panels();
  if (!figure.empty()) {
    std::vector<Panel> picked;
    std::string figures, ids;
    const char* last = "";
    for (const Panel& p : panels) {
      if (figure == p.figure || figure == p.id) picked.push_back(p);
      if (std::strcmp(last, p.figure) != 0) {
        figures += std::string(" ") + p.figure;
      }
      last = p.figure;
      ids += std::string(" ") + p.id;
    }
    if (picked.empty()) {
      Refuse("unknown --figure '" + figure + "'; figures:" + figures +
             "; panels:" + ids);
    }
    panels = std::move(picked);
  }
  for (Panel& p : panels) {
    if (env.queries != 0) p.query.count = env.queries;
  }
  std::FILE* json = nullptr;
  if (!json_path.empty()) {
    json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
      Refuse("cannot write --json file '" + json_path +
             "': " + std::strerror(errno));
    }
  }

  std::map<Config, Measurement> results;
  size_t rows = 0;
  for (const Panel& p : panels) {
    for (double x : p.xs) {
      for (const Variant& v : p.variants->list) {
        results.emplace(At(p, x, v), Measurement{});
        ++rows;
      }
    }
  }
  MeasureAll(results, env);

  std::printf("bench_paper: scale=%.2f, io=%.2fms/read, %d repetitions "
              "per configuration (cpu_ms: their median; cpu_min/cpu_max: "
              "their spread)\n",
              env.scale, env.io_ms, kRepetitions);
  bool first_record = true;
  if (json != nullptr) std::fprintf(json, "[\n");
  for (const Panel& p : panels) {
    std::printf("\n=== %s [%s, %u queries/point] ===\n", p.title, p.id,
                p.query.count);
    PrintRow(p, "", "", nullptr, 0.0, env);
    for (double x : p.xs) {
      const std::string label = RowLabel(p, x, env.scale);
      for (const Variant& v : p.variants->list) {
        const Config c = At(p, x, v);
        const Measurement& m = results.at(c);
        const Measurement& first = results.at(At(p, p.xs.front(), v));
        PrintRow(p, label, v.name, &m, first.report.queries_per_sec, env);
        if (json == nullptr) continue;
        std::fprintf(json, "%s  ", first_record ? "" : ",\n");
        WriteRecord(json, p, label, v, c, m, env.scale);
        first_record = false;
      }
    }
  }
  std::printf("\nbench_paper: %zu panel rows from %zu distinct "
              "configurations, each run %d times\n",
              rows, results.size(), kRepetitions);
  if (json != nullptr) {
    std::fprintf(json, "\n]\n");
    if (std::fclose(json) != 0) {
      std::fprintf(stderr, "bench_paper: writing '%s' failed\n",
                   json_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace stpq

int main(int argc, char** argv) { return stpq::Main(argc, argv); }
