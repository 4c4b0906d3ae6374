// Parallel query throughput: queries/sec vs worker thread count.
//
// Not a paper figure — the paper's evaluation is single-threaded — but the
// engine's read path is immutable after build (DESIGN.md §11), so one
// engine can serve concurrent queries.  This bench fans the same random
// workload across N ∈ {1, 2, 4, 8} threads with RunWorkload and reports
// wall time, throughput, latency percentiles (DESIGN.md §12), and the
// scaling factor over the
// single-thread run.  Per-query page-read counts are identical across all
// rows (cold per-query pools), so the speedup is pure CPU parallelism.
//
// Setting STPQ_JSON_OUT=<path> additionally writes every row to <path> as
// a JSON array, for CI artifact collection and cross-run comparison.
#include "bench_common.h"

#include <fstream>

#include "core/workload.h"

namespace stpq {
namespace bench {
namespace {

struct Row {
  const char* algo;
  size_t threads;
  double wall_ms;
  double qps;
  double speedup;
  double reads_per_query;
  double p50_ms;
  double p95_ms;
  double p99_ms;
};

void RunAlgo(const Dataset& ds, const std::vector<Query>& queries,
             Algorithm algorithm, const BenchEnv& env,
             std::vector<Row>& rows) {
  Engine engine = MakeEngine(ds, FeatureIndexKind::kSrt);
  WorkloadOptions opts;
  opts.algorithm = algorithm;
  opts.io_unit_cost_ms = env.io_ms;

  double base_qps = 0.0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    opts.threads = threads;
    Result<WorkloadReport> report = stpq::RunWorkload(engine, queries, opts);
    const WorkloadReport& r = report.value();
    if (threads == 1) base_qps = r.queries_per_sec;
    Row row{algorithm == Algorithm::kStds ? "STDS" : "STPS",
            threads,
            r.wall_ms,
            r.queries_per_sec,
            base_qps > 0.0 ? r.queries_per_sec / base_qps : 0.0,
            r.summary.mean_page_reads,
            r.summary.total_ms.p50,
            r.summary.total_ms.p95,
            r.summary.total_ms.p99};
    std::printf("%-6s %8zu %12.2f %12.1f %10.2fx %14.1f %9.2f %9.2f %9.2f\n",
                row.algo, row.threads, row.wall_ms, row.qps, row.speedup,
                row.reads_per_query, row.p50_ms, row.p95_ms, row.p99_ms);
    rows.push_back(row);
  }
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write STPQ_JSON_OUT file '%s'\n",
                 path.c_str());
    return;
  }
  out << "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "  {\"algo\": \"" << r.algo << "\", \"threads\": " << r.threads
        << ", \"wall_ms\": " << r.wall_ms << ", \"queries_per_sec\": " << r.qps
        << ", \"speedup\": " << r.speedup
        << ", \"reads_per_query\": " << r.reads_per_query
        << ", \"p50_ms\": " << r.p50_ms << ", \"p95_ms\": " << r.p95_ms
        << ", \"p99_ms\": " << r.p99_ms << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

void Main() {
  BenchEnv env = GetEnv(/*default_queries=*/200);
  std::printf("Parallel query throughput, synthetic dataset "
              "(scale=%.2f, %u queries)\n",
              env.scale, env.queries);
  Dataset ds = MakeSynthetic(env, 100'000, 100'000, 2, 128);
  QueryWorkloadConfig qcfg;
  qcfg.count = env.queries;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  std::printf("%-6s %8s %12s %12s %11s %14s %9s %9s %9s\n", "algo", "threads",
              "wall_ms", "queries/s", "speedup", "reads/query", "p50_ms",
              "p95_ms", "p99_ms");
  std::vector<Row> rows;
  RunAlgo(ds, queries, Algorithm::kStps, env, rows);
  RunAlgo(ds, queries, Algorithm::kStds, env, rows);
  if (const char* path = std::getenv("STPQ_JSON_OUT")) WriteJson(path, rows);
}

}  // namespace
}  // namespace bench
}  // namespace stpq

int main() { stpq::bench::Main(); }
