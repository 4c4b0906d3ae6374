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

/// Averaged per-query costs of a workload under one engine + algorithm.
struct WorkloadResult {
  double cpu_ms = 0.0;
  double io_ms = 0.0;
  double reads = 0.0;
  double voronoi_ms = 0.0;
  double voronoi_io_ms = 0.0;
  QueryStats totals;

  double total_ms() const { return cpu_ms + io_ms; }
};

inline WorkloadResult RunWorkload(Engine* engine,
                                  const std::vector<Query>& queries,
                                  Algorithm algorithm, const BenchEnv& env) {
  WorkloadResult out;
  for (const Query& q : queries) {
    QueryResult r = engine->Execute(q, algorithm).TakeValue();
    out.totals += r.stats;
  }
  const double n = static_cast<double>(queries.size());
  out.cpu_ms = out.totals.cpu_ms / n;
  out.reads = static_cast<double>(out.totals.TotalReads()) / n;
  out.io_ms = out.reads * env.io_ms;
  out.voronoi_ms = out.totals.PhaseMillis(QueryPhase::kVoronoi) / n;
  out.voronoi_io_ms =
      static_cast<double>(out.totals.voronoi_reads) / n * env.io_ms;
  return out;
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
                        const char* algo, const WorkloadResult& r) {
  std::printf("%-24s %-6s %-6s %12.3f %12.1f %12.3f %12.3f\n", param.c_str(),
              index, algo, r.cpu_ms, r.reads, r.io_ms, r.total_ms());
}

/// Header/row variants with the Voronoi breakdown (Figures 13-14's striped
/// bars: the I/O and CPU attributable to cell computation).
inline void PrintVoronoiHeader() {
  std::printf("%-24s %-6s %12s %12s %12s %12s %12s\n", "param", "index",
              "cpu_ms", "io_ms", "vor_cpu_ms", "vor_io_ms", "total_ms");
}

inline void PrintVoronoiRow(const std::string& param, const char* index,
                            const WorkloadResult& r) {
  std::printf("%-24s %-6s %12.3f %12.3f %12.3f %12.3f %12.3f\n",
              param.c_str(), index, r.cpu_ms, r.io_ms, r.voronoi_ms,
              r.voronoi_io_ms, r.total_ms());
}

/// Engine factory for the benchmark's standard configuration.
inline Engine MakeEngine(const Dataset& ds, FeatureIndexKind kind) {
  EngineOptions opts;
  opts.index_kind = kind;
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
