// Workload evaluation: run a query batch and summarize per-query costs.
//
// This is the measurement harness the paper's evaluation implies ("every
// reported value is the average of 1,000 random queries"), packaged as a
// library utility so users can benchmark their own datasets: means and
// tail percentiles for CPU, simulated I/O and total time, plus the
// aggregated algorithm counters.
//
// RunWorkload is the one batch driver.  It fans the batch across a fixed
// pool of worker threads over one engine (one worker runs the same code);
// the engine's read path is thread-safe, and since every query reads
// through a cold pool of its own, every thread count reports identical
// per-query results and page-read counts (DESIGN.md §11).
#ifndef STPQ_CORE_WORKLOAD_H_
#define STPQ_CORE_WORKLOAD_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query.h"
#include "util/result.h"

namespace stpq {

/// Distribution summary of one per-query cost metric (milliseconds).
struct MetricSummary {
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Result of running a workload through one engine + algorithm.
struct WorkloadSummary {
  size_t queries = 0;
  MetricSummary cpu_ms;
  MetricSummary io_ms;
  MetricSummary total_ms;
  double mean_page_reads = 0.0;
  QueryStats aggregate;  ///< summed counters over the whole workload

  std::string ToString() const;
};

/// Knobs for RunWorkload.
struct WorkloadOptions {
  Algorithm algorithm = Algorithm::kStps;
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  size_t threads = 1;
  /// Price of one simulated page read in milliseconds (the paper's
  /// dark-bar constant).
  double io_unit_cost_ms = 0.0;
  /// Optional slow-query capture shared by the workers; not owned.
  SlowQueryLog* slow_log = nullptr;
};

/// Outcome of a run: the summary, the per-query results in input order
/// (independent of scheduling), and throughput.
struct WorkloadReport {
  WorkloadSummary summary;
  std::vector<QueryResult> per_query;  ///< one entry per input query
  /// Worker threads that ran: the requested count (hardware concurrency
  /// for 0), capped at the number of queries, and at least 1.
  size_t workers = 0;
  double wall_ms = 0.0;                ///< end-to-end batch wall time
  double queries_per_sec = 0.0;        ///< throughput over wall time
};

/// Runs `queries` on `engine` across `WorkloadReport::workers` threads.
/// Workers claim queries through an atomic cursor and write only their
/// own result slots; the summary and aggregate counters are computed from
/// the per-query results after the join.  Every query is validated up
/// front, so InvalidArgument means nothing was executed.  A
/// query that fails while executing (a page fetch's IoError or
/// Corruption) fails the batch: workers stop claiming, and the status of
/// the lowest-index failing query is returned, prefixed "query i: ".
[[nodiscard]] Result<WorkloadReport> RunWorkload(
    const Engine& engine, const std::vector<Query>& queries,
    const WorkloadOptions& options);

}  // namespace stpq

#endif  // STPQ_CORE_WORKLOAD_H_
