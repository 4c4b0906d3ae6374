#include "core/workload.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "util/timer.h"

namespace stpq {

namespace {

MetricSummary Summarize(std::vector<double> values) {
  MetricSummary out;
  if (values.empty()) return out;
  double sum = 0.0;
  for (double v : values) sum += v;
  out.mean = sum / static_cast<double>(values.size());
  std::sort(values.begin(), values.end());
  auto percentile = [&](double p) {
    size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
    return values[std::min(idx, values.size() - 1)];
  };
  out.p50 = percentile(0.50);
  out.p90 = percentile(0.90);
  out.p95 = percentile(0.95);
  out.p99 = percentile(0.99);
  out.max = values.back();
  return out;
}

}  // namespace

std::string WorkloadSummary::ToString() const {
  std::ostringstream os;
  os << queries << " queries: total mean=" << total_ms.mean
     << "ms p50=" << total_ms.p50 << " p90=" << total_ms.p90
     << " p95=" << total_ms.p95 << " p99=" << total_ms.p99
     << " max=" << total_ms.max << " (cpu mean=" << cpu_ms.mean
     << ", io mean=" << io_ms.mean << ", reads/query=" << mean_page_reads
     << ")";
  return os.str();
}

Result<WorkloadReport> RunWorkload(const Engine& engine,
                                   const std::vector<Query>& queries,
                                   const WorkloadOptions& options) {
  for (size_t i = 0; i < queries.size(); ++i) {
    Status st = engine.ValidateQuery(queries[i]);
    if (!st.ok()) {
      return Status::InvalidArgument("query " + std::to_string(i) + ": " +
                                     st.message());
    }
  }
  size_t threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::max<size_t>(1, std::min(threads, queries.size()));

  WorkloadReport report;
  report.workers = threads;
  report.per_query.resize(queries.size());
  const ExecuteOptions exec_options{options.algorithm, options.slow_log};

  // Dynamic work distribution: each worker claims the next unprocessed
  // query.  Results and failures land in per-query slots, so only the
  // claim counter and the stop flag are shared.  Once any query fails no
  // new query is claimed; every lower index was claimed before it and
  // still runs, so the first failure in input order is exact.
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<Status> failures(queries.size());
  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= queries.size()) return;
      Result<QueryResult> r = engine.Execute(queries[i], exec_options);
      if (!r.ok()) {
        failures[i] = r.status();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      report.per_query[i] = r.TakeValue();
    }
  };

  Timer wall;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  report.wall_ms = wall.ElapsedMillis();

  for (size_t i = 0; i < failures.size(); ++i) {
    if (!failures[i].ok()) {
      return Status(failures[i].code(), "query " + std::to_string(i) + ": " +
                                            failures[i].message());
    }
  }

  WorkloadSummary& summary = report.summary;
  summary.queries = queries.size();
  std::vector<double> cpu, io, total;
  cpu.reserve(queries.size());
  io.reserve(queries.size());
  total.reserve(queries.size());
  for (const QueryResult& r : report.per_query) {
    const double io_ms = r.stats.IoMillis(options.io_unit_cost_ms);
    cpu.push_back(r.stats.cpu_ms);
    io.push_back(io_ms);
    total.push_back(r.stats.cpu_ms + io_ms);
    summary.aggregate += r.stats;
  }
  summary.cpu_ms = Summarize(std::move(cpu));
  summary.io_ms = Summarize(std::move(io));
  summary.total_ms = Summarize(std::move(total));
  if (!queries.empty()) {
    summary.mean_page_reads =
        static_cast<double>(summary.aggregate.TotalReads()) /
        static_cast<double>(queries.size());
  }
  if (report.wall_ms > 0.0) {
    report.queries_per_sec =
        static_cast<double>(queries.size()) / (report.wall_ms / 1000.0);
  }
  return report;
}

}  // namespace stpq
