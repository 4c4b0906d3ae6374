// Figure 9: STPS on the synthetic dataset, range score, varying the query
// parameters (same axes as Figure 8): (a) r, (b) k, (c) lambda, and
// (d) queried keywords — SRT vs IR2.
//
// Paper reference shapes: same tendencies as the real dataset but cheaper
// overall (synthetic data is dispersed over thousands of clusters, the
// real data over a few); SRT consistently outperforms IR2.
#include "bench_common.h"

namespace stpq {
namespace bench {
namespace {

void RunRow(const BenchEnv& env, const Dataset& ds, const std::string& label,
            const QueryWorkloadConfig& qcfg) {
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kIr2, FeatureIndexKind::kSrt}) {
    Engine engine = MakeEngine(ds, kind);
    WorkloadSummary r = RunWorkload(&engine, queries, Algorithm::kStps, env);
    PrintBarRow(label, KindName(kind), "STPS", r);
  }
}

void Main() {
  BenchEnv env = GetEnv(/*default_queries=*/30);
  std::printf("Figure 9: STPS query parameters, synthetic dataset, range "
              "score (scale=%.2f, %u queries/point, io=%.2fms/read)\n",
              env.scale, env.queries, env.io_ms);
  Dataset ds = MakeSynthetic(env, 100'000, 100'000, 2, 128);

  PrintTitle("Fig 9(a): varying radius r");
  PrintBarHeader();
  for (double r : {0.005, 0.01, 0.02, 0.04, 0.08}) {
    QueryWorkloadConfig qcfg;
    qcfg.count = env.queries;
    qcfg.radius = r;
    RunRow(env, ds, "r=" + std::to_string(r).substr(0, 5), qcfg);
  }

  PrintTitle("Fig 9(b): varying k");
  PrintBarHeader();
  for (uint32_t k : {5u, 10u, 20u, 40u, 80u}) {
    QueryWorkloadConfig qcfg;
    qcfg.count = env.queries;
    qcfg.k = k;
    RunRow(env, ds, "k=" + std::to_string(k), qcfg);
  }

  PrintTitle("Fig 9(c): varying smoothing parameter lambda");
  PrintBarHeader();
  for (double l : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    QueryWorkloadConfig qcfg;
    qcfg.count = env.queries;
    qcfg.lambda = l;
    RunRow(env, ds, "lambda=" + std::to_string(l).substr(0, 3), qcfg);
  }

  PrintTitle("Fig 9(d): varying queried keywords per feature set");
  PrintBarHeader();
  for (uint32_t n : {1u, 3u, 5u, 7u, 9u}) {
    QueryWorkloadConfig qcfg;
    qcfg.count = env.queries;
    qcfg.keywords_per_set = n;
    RunRow(env, ds, "keywords=" + std::to_string(n), qcfg);
  }
}

}  // namespace
}  // namespace bench
}  // namespace stpq

int main() { stpq::bench::Main(); }
