// End-to-end benchmark driver: one client issuing top-k spatio-textual
// preference queries (STPS, Algorithm 3) in a closed loop — the next query
// is sent when the previous one returns — against a synthetic dataset and
// query pool generated from --seed.
//
//   stpq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR
//
// Workloads:
//   range_file     range-score queries (Definition 2) on an index written
//                  with Engine::Save and reopened with Engine::Open: every
//                  buffer-pool miss is a page fetch from the index file
//   influence_mem  influence-score queries (Definition 6) on an in-memory
//                  engine: component-score search over the feature trees
//   nn_mem         nearest-neighbour queries (Definition 7) on an in-memory
//                  engine: Voronoi cell construction dominates
//
// The run cycles through the query pool in passes until --seconds have
// elapsed.  A query's latency is the CPU time of the calling thread (user
// plus kernel, so page faults on the mapped index file count) from the
// call to its return.  Time the thread spends descheduled — preempted by
// another process, or its virtual CPU stolen by the host — is left out: on
// a shared machine it lasts longer than a millisecond query and follows the
// neighbours' load, not the program.  The engine does no blocking I/O (the
// file-backed store reads a mapped file that was just written), so CPU time
// is the whole latency on an idle machine.  Each distinct query reports the
// fastest of its repetitions, which filters out shorter bursts of cache
// interference; p50/p90 are taken over the distinct queries.
//
// Set-up is what stands between the dataset and a query-ready engine:
// Engine::Build, plus Save and Open for the file-backed workload.  It runs
// once after each pass, so that not every repetition lands in one slow
// stretch of time, and then until kSetupRepeats; setup_s is the median.
//
// Correctness: every repetition of a query must return exactly its first
// result, and a sample of the distinct queries is checked against a
// brute-force evaluator.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer breakdown, taken from each query's QueryStats and the
// file page store's fetch-latency histogram.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/brute_force.h"
#include "core/engine.h"
#include "core/score.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "util/timer.h"

namespace stpq {
namespace {

struct Workload {
  const char* name;
  ScoreVariant variant;
  bool file_backed;
  uint32_t num_objects;  // also the number of features per feature set
  uint32_t pool_size;    // distinct queries
};

// Datasets and pools are kept small so that queries take a millisecond or
// two and repeat often: on a 2020s x86 core a 30-second run repeats each
// query about 40 times on range_file (index file about 1.8 MB), 30 times on
// influence_mem and 25 times on nn_mem.  A query preempted mid-way also
// refills its caches, which CPU time does count; short queries are hit
// less often, and one clean repetition is enough.
constexpr Workload kWorkloads[] = {
    {"range_file", ScoreVariant::kRange, true, 5'000, 2048},
    {"influence_mem", ScoreVariant::kInfluence, false, 1'000, 640},
    {"nn_mem", ScoreVariant::kNearestNeighbor, false, 5'000, 512},
};

constexpr uint32_t kFeatureSets = 2;
constexpr uint32_t kVocabulary = 128;
constexpr uint32_t kSetupRepeats = 31;   // setup_s is their median
constexpr uint32_t kOracleQueries = 16;  // distinct queries brute-forced
constexpr double kScoreTolerance = 1e-9;

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) args->workload = &w;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      have_trace = args->trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr && have_seed &&
         args->seconds > 0.0 && have_trace && !args->work_dir.empty();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// CPU time this thread has used, in milliseconds.
double ThreadCpuMillis() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Pins the calling thread to the `index`-th CPU (modulo their number) of
/// `allowed`.  On a shared host one virtual CPU at a time can run slower
/// for seconds, when its physical core is busy with a neighbour; moving
/// pass by pass gives each query repetitions on every CPU, and its fastest
/// repetition is the one reported.
void PinToCpu(const cpu_set_t& allowed, uint32_t index) {
  int skip = static_cast<int>(index % static_cast<uint32_t>(
                                          CPU_COUNT(&allowed)));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);  // best effort
    return;
  }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
double Percentile(const std::vector<double>& sorted, double q) {
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

/// Exact top-k by brute force.  Features that share no keyword with the
/// query contribute nothing under any score variant, so they are filtered
/// out once per query before the O(objects x features) scan.
std::vector<ResultEntry> OracleTopK(const Dataset& ds, const Query& q) {
  std::vector<FeatureTable> relevant;
  for (size_t i = 0; i < ds.feature_tables.size(); ++i) {
    std::vector<FeatureObject> keep;
    for (const FeatureObject& t : ds.feature_tables[i].All()) {
      if (TextRelevant(t, q.keywords[i])) keep.push_back(t);
    }
    relevant.emplace_back(std::move(keep),
                          ds.feature_tables[i].universe_size());
  }
  std::vector<const FeatureTable*> tables;
  for (const FeatureTable& t : relevant) tables.push_back(&t);
  return BruteForceEvaluator(&ds.objects, std::move(tables)).TopK(q);
}

/// Rank-by-rank score comparison: ties at equal scores may legitimately
/// order (or cut at k) different objects.
bool SameScores(const std::vector<ResultEntry>& got,
                const std::vector<ResultEntry>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::fabs(got[i].score - want[i].score) > kScoreTolerance) {
      return false;
    }
  }
  return true;
}

/// Wall times of one set-up, in milliseconds.
struct SetupTimes {
  double build = 0.0;
  double save = 0.0;
  double open = 0.0;
  double total() const { return build + save + open; }
};

/// Dataset -> query-ready engine: Build, and for file-backed workloads
/// Save to `index_path` and Open it.
Result<Engine> SetUp(const Workload& w, const Dataset& ds,
                     const std::string& index_path, SetupTimes* times) {
  std::vector<DataObject> objects = ds.objects;
  std::vector<FeatureTable> tables = ds.feature_tables;
  Timer timer;
  Result<Engine> built =
      Engine::Build(std::move(objects), std::move(tables), EngineOptions{});
  times->build = timer.ElapsedMillis();
  if (!built.ok() || !w.file_backed) return built;

  timer.Reset();
  Status saved = built.value().Save(index_path);
  times->save = timer.ElapsedMillis();
  if (!saved.ok()) return saved;

  timer.Reset();
  Result<Engine> opened = Engine::Open(index_path, EngineOptions{});
  times->open = timer.ElapsedMillis();
  return opened;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int Run(const Args& args) {
  const Workload& w = *args.workload;

  SyntheticConfig data_cfg;
  data_cfg.seed = args.seed;
  data_cfg.num_objects = w.num_objects;
  data_cfg.num_features_per_set = w.num_objects;
  data_cfg.num_feature_sets = kFeatureSets;
  data_cfg.vocabulary_size = kVocabulary;
  data_cfg.num_clusters = std::max(100u, w.num_objects / 10);
  const Dataset ds = GenerateSynthetic(data_cfg);

  QueryWorkloadConfig query_cfg;
  query_cfg.seed = args.seed * 7919 + 1;
  query_cfg.count = w.pool_size;
  query_cfg.variant = w.variant;
  const std::vector<Query> pool = GenerateQueries(ds, query_cfg);

  // The queried engine keeps its index file mapped for the whole run.  The
  // repeated set-ups write a second file, deleted as soon as each repeat's
  // engine is gone, so the run holds at most two index files in the page
  // cache and reclaim has less reason to evict the pages queries touch.
  std::vector<SetupTimes> setups;
  const std::string query_file = args.work_dir + "/" + w.name + ".stpqx";
  const std::string repeat_file =
      args.work_dir + "/" + w.name + "-repeat.stpqx";
  const auto remove_files = [&] {
    std::remove(query_file.c_str());
    std::remove(repeat_file.c_str());
  };
  const auto fail = [&](const Status& status) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    remove_files();
    return 1;
  };
  const auto set_up_again = [&]() -> Status {
    SetupTimes times;
    Status status = Status::OK();
    {
      Result<Engine> again = SetUp(w, ds, repeat_file, &times);
      if (!again.ok()) status = again.status();
    }
    setups.push_back(times);
    std::remove(repeat_file.c_str());
    return status;
  };

  SetupTimes first_times;
  Result<Engine> first_engine = SetUp(w, ds, query_file, &first_times);
  setups.push_back(first_times);
  if (!first_engine.ok()) return fail(first_engine.status());
  const Engine engine = first_engine.TakeValue();

  HistogramMetric& fetch_latency = MetricsRegistry::Global().GetHistogram(
      "stpq_store_file_fetch_latency_ms",
      "Latency of file-backed page fetches in milliseconds");
  const LatencyHistogram fetch_before = fetch_latency.Snapshot();

  // ---- measured closed loop, pass by pass over the pool ----
  ExecuteOptions exec;
  exec.algorithm = Algorithm::kStps;
  std::vector<std::vector<ResultEntry>> first_result(pool.size());
  std::vector<double> best_ms(pool.size(),
                              std::numeric_limits<double>::infinity());
  std::vector<bool> ran(pool.size(), false);
  uint64_t first_reads = 0;  // page reads of each query's first execution
  QueryStats totals;
  double total_cpu_ms = 0.0;
  double total_wall_ms = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint32_t passes = 0;
  const double budget_ms = args.seconds * 1000.0;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const bool rotate_cpus =
      sched_getaffinity(0, sizeof(allowed), &allowed) == 0 &&
      CPU_COUNT(&allowed) > 1;
  const Timer loop;
  while (true) {
    if (rotate_cpus) PinToCpu(allowed, passes);
    size_t i = 0;
    for (; i < pool.size() && loop.ElapsedMillis() < budget_ms; ++i) {
      const Timer wall;
      const double cpu_start = ThreadCpuMillis();
      Result<QueryResult> r = engine.Execute(pool[i], exec);
      const double cpu_ms = ThreadCpuMillis() - cpu_start;
      total_wall_ms += wall.ElapsedMillis();
      total_cpu_ms += cpu_ms;
      ++attempted;
      if (!r.ok()) {
        ++failed;
        continue;
      }
      QueryResult result = r.TakeValue();
      totals += result.stats;
      best_ms[i] = std::min(best_ms[i], cpu_ms);
      if (!ran[i]) {
        ran[i] = true;
        first_reads += result.stats.TotalReads();
        first_result[i] = std::move(result.entries);
      } else if (result.entries != first_result[i]) {
        ++failed;
      }
    }
    if (i < pool.size()) break;  // time is up mid-pass
    ++passes;
    if (setups.size() < kSetupRepeats) {
      const Status again = set_up_again();
      if (!again.ok()) return fail(again);
    }
  }
  const LatencyHistogram fetches =
      fetch_latency.Snapshot().Delta(fetch_before);
  while (setups.size() < kSetupRepeats) {
    const Status again = set_up_again();
    if (!again.ok()) return fail(again);
  }
  remove_files();

  // ---- correctness: brute force over a sample of the distinct queries ----
  std::vector<size_t> executed;
  std::vector<double> latencies;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (!ran[i]) continue;
    executed.push_back(i);
    latencies.push_back(best_ms[i]);
  }
  if (executed.empty()) {
    std::fprintf(stderr, "no query succeeded\n");
    return 1;
  }
  bool correct = failed == 0;
  const size_t checks = std::min<size_t>(kOracleQueries, executed.size());
  for (size_t c = 0; c < checks && correct; ++c) {
    const size_t i = executed[c * executed.size() / checks];
    if (!SameScores(first_result[i], OracleTopK(ds, pool[i]))) {
      std::fprintf(stderr, "query %zu: top-k differs from brute force\n", i);
      correct = false;
    }
  }
  std::fprintf(stderr,
               "%s seed=%llu: %llu executions, %u full passes over %zu "
               "queries, %zu brute-force checked, %s\n",
               w.name, static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(attempted), passes,
               pool.size(), checks, correct ? "correct" : "INCORRECT");
  std::sort(latencies.begin(), latencies.end());

  std::vector<double> setup_ms, build_ms, save_ms, open_ms;
  for (const SetupTimes& s : setups) {
    setup_ms.push_back(s.total());
    build_ms.push_back(s.build);
    save_ms.push_back(s.save);
    open_ms.push_back(s.open);
  }
  const double succeeded = static_cast<double>(attempted - failed);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"p50_cpu_ms", Percentile(latencies, 0.50), "ms"},
        {"p90_cpu_ms", Percentile(latencies, 0.90), "ms"},
        {"page_reads",
         static_cast<double>(first_reads) /
             static_cast<double>(executed.size()),
         "count"},
        {"setup_s", Median(setup_ms) / 1000.0, "s"},
    };
  } else {
    // Phase self-times and store wait as shares of the engine-measured
    // query time (fetches happen inside the phases, so store_wait_pct
    // overlaps them); counts are per query.
    const double query_ms = totals.cpu_ms;
    const auto share = [query_ms](double ms) {
      return query_ms > 0.0 ? 100.0 * ms / query_ms : 0.0;
    };
    const auto phase = [&](QueryPhase p) {
      return share(totals.PhaseMillis(p));
    };
    const auto per_query = [succeeded](double total) {
      return total / succeeded;
    };
    const double accesses =
        static_cast<double>(totals.TotalReads() + totals.buffer_hits);
    const double feature_filtered =
        static_cast<double>(totals.traversal.FeaturePruned() +
                            totals.traversal.FeatureDescended());
    const double setup_median = Median(setup_ms);
    metrics = {
        {"query_ms", per_query(query_ms), "ms"},
        {"combination_pct", phase(QueryPhase::kCombination), "%"},
        {"component_score_pct", phase(QueryPhase::kComponentScore), "%"},
        {"retrieval_pct", phase(QueryPhase::kObjectRetrieval), "%"},
        {"voronoi_pct", phase(QueryPhase::kVoronoi), "%"},
        {"untraced_pct", share(totals.UntracedMillis()), "%"},
        {"store_wait_pct", share(fetches.sum_ms()), "%"},
        // Wall time of all executions that the thread spent descheduled
        // or blocked: what the CPU-time latencies leave out.
        {"off_cpu_pct",
         total_wall_ms > 0.0
             ? 100.0 * (total_wall_ms - total_cpu_ms) / total_wall_ms
             : 0.0,
         "%"},
        {"object_reads", per_query(totals.object_index_reads), "count"},
        {"feature_reads", per_query(totals.feature_index_reads), "count"},
        {"pool_hit_pct",
         accesses > 0.0 ? 100.0 * totals.buffer_hits / accesses : 0.0, "%"},
        {"feature_pruned_pct",
         feature_filtered > 0.0
             ? 100.0 * totals.traversal.FeaturePruned() / feature_filtered
             : 0.0,
         "%"},
        {"features_retrieved", per_query(totals.features_retrieved), "count"},
        {"combinations", per_query(totals.combinations_generated), "count"},
        {"objects_scored", per_query(totals.objects_scored), "count"},
        {"voronoi_cells", per_query(totals.voronoi_cells), "count"},
        {"store_fetches", per_query(fetches.count()), "count"},
        {"build_ms", Median(build_ms), "ms"},
        {"save_pct", 100.0 * Median(save_ms) / setup_median, "%"},
        {"open_pct", 100.0 * Median(open_ms) / setup_median, "%"},
    };
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace stpq

int main(int argc, char** argv) {
  stpq::Args args;
  if (!stpq::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: stpq_perfbench --workload range_file|influence_mem|"
                 "nn_mem --seed N --seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  return stpq::Run(args);
}
