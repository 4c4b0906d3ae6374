// Shared harness for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper's
// experimental evaluation (Section 8).  Reported values are averages over a
// random query workload, with execution time split into CPU time (measured)
// and I/O time (simulated page reads x a configurable unit cost), mirroring
// the paper's dark/white bar breakdown.
//
// Environment knobs:
//   STPQ_SCALE    multiplier on all dataset cardinalities (default 0.1;
//                 1.0 = the paper's sizes: up to 1M records per set)
//   STPQ_QUERIES  queries per data point (default varies per bench;
//                 paper uses 1000)
//   STPQ_IO_MS    simulated cost of one page read in ms (default 0.1;
//                 the paper's 2007-era disk was ~5)
#ifndef STPQ_BENCH_BENCH_COMMON_H_
#define STPQ_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "gen/queries.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "util/timer.h"

namespace stpq {
namespace bench {

struct BenchEnv {
  double scale = 0.1;
  uint32_t queries = 0;  // 0 = per-bench default
  double io_ms = 0.1;
};

inline BenchEnv GetEnv(uint32_t default_queries) {
  BenchEnv env;
  if (const char* s = std::getenv("STPQ_SCALE")) env.scale = std::atof(s);
  if (const char* s = std::getenv("STPQ_QUERIES")) {
    env.queries = static_cast<uint32_t>(std::atoi(s));
  }
  if (const char* s = std::getenv("STPQ_IO_MS")) env.io_ms = std::atof(s);
  if (env.queries == 0) env.queries = default_queries;
  return env;
}

inline uint32_t Scaled(uint32_t n, const BenchEnv& env) {
  return std::max(1u, static_cast<uint32_t>(n * env.scale));
}

/// Synthetic dataset with paper-style parameters, scaled by the env.
/// Cluster count scales with the data so small runs stay clustered.
inline Dataset MakeSynthetic(const BenchEnv& env, uint32_t num_objects,
                             uint32_t num_features, uint32_t c,
                             uint32_t vocab, uint64_t seed = 42) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.num_objects = Scaled(num_objects, env);
  cfg.num_features_per_set = Scaled(num_features, env);
  cfg.num_feature_sets = c;
  cfg.vocabulary_size = vocab;
  cfg.num_clusters = std::max(100u, Scaled(10'000, env));
  return GenerateSynthetic(cfg);
}

/// Real-like dataset (the factual.com substitute), scaled by the env.
inline Dataset MakeRealLike(const BenchEnv& env) {
  RealLikeConfig cfg;
  cfg.scale = env.scale;
  return GenerateRealLike(cfg);
}

/// Runs the batch through the library's workload runner on one worker.
/// The summary's means are the per-query averages the figures plot.
inline WorkloadSummary RunWorkload(Engine* engine,
                                   const std::vector<Query>& queries,
                                   Algorithm algorithm, const BenchEnv& env) {
  WorkloadOptions options;
  options.algorithm = algorithm;
  options.io_unit_cost_ms = env.io_ms;
  return stpq::RunWorkload(*engine, queries, options).TakeValue().summary;
}

/// Prints one benchmark table header.
inline void PrintTitle(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintBarHeader() {
  std::printf("%-24s %-6s %-6s %12s %12s %12s %12s\n", "param", "index",
              "algo", "cpu_ms", "io_reads", "io_ms", "total_ms");
}

inline void PrintBarRow(const std::string& param, const char* index,
                        const char* algo, const WorkloadSummary& r) {
  std::printf("%-24s %-6s %-6s %12.3f %12.1f %12.3f %12.3f\n", param.c_str(),
              index, algo, r.cpu_ms.mean, r.mean_page_reads, r.io_ms.mean,
              r.total_ms.mean);
}

/// Header/row variants with the Voronoi breakdown (Figures 13-14's striped
/// bars: the I/O and CPU attributable to cell computation).
inline void PrintVoronoiHeader() {
  std::printf("%-24s %-6s %12s %12s %12s %12s %12s\n", "param", "index",
              "cpu_ms", "io_ms", "vor_cpu_ms", "vor_io_ms", "total_ms");
}

inline void PrintVoronoiRow(const std::string& param, const char* index,
                            const WorkloadSummary& r, const BenchEnv& env) {
  const double n = static_cast<double>(r.queries);
  std::printf("%-24s %-6s %12.3f %12.3f %12.3f %12.3f %12.3f\n",
              param.c_str(), index, r.cpu_ms.mean, r.io_ms.mean,
              r.aggregate.PhaseMillis(QueryPhase::kVoronoi) / n,
              static_cast<double>(r.aggregate.voronoi_reads) / n * env.io_ms,
              r.total_ms.mean);
}

/// Engine factory for the benchmark's standard configuration.
inline Engine MakeEngine(const Dataset& ds, FeatureIndexKind kind) {
  EngineOptions opts;
  opts.build.index_kind = kind;
  return Engine::Build(ds.objects,
                       std::vector<FeatureTable>(ds.feature_tables), opts)
      .TakeValue();
}

inline const char* KindName(FeatureIndexKind kind) {
  return kind == FeatureIndexKind::kSrt ? "SRT" : "IR2";
}

}  // namespace bench
}  // namespace stpq

#endif  // STPQ_BENCH_BENCH_COMMON_H_
