// Figure 12: influence-score STPS on the synthetic dataset, varying
// (a) k and (b) queried keywords per feature set — SRT vs IR2.
//
// Paper reference shapes: slightly above the range-score cost (Fig 9) with
// the same tendencies; SRT consistently ahead.
#include "bench_common.h"

namespace stpq {
namespace bench {
namespace {

void RunRow(const BenchEnv& env, const Dataset& ds, const std::string& label,
            QueryWorkloadConfig qcfg) {
  qcfg.count = env.queries;
  qcfg.variant = ScoreVariant::kInfluence;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kIr2, FeatureIndexKind::kSrt}) {
    Engine engine = MakeEngine(ds, kind);
    WorkloadSummary r = RunWorkload(&engine, queries, Algorithm::kStps, env);
    PrintBarRow(label, KindName(kind), "STPS", r);
  }
}

void Main() {
  BenchEnv env = GetEnv(/*default_queries=*/20);
  std::printf("Figure 12: influence-score STPS, synthetic dataset "
              "(scale=%.2f, %u queries/point, io=%.2fms/read)\n",
              env.scale, env.queries, env.io_ms);
  Dataset ds = MakeSynthetic(env, 100'000, 100'000, 2, 128);

  PrintTitle("Fig 12(a): varying k");
  PrintBarHeader();
  for (uint32_t k : {5u, 10u, 20u, 40u, 80u}) {
    QueryWorkloadConfig qcfg;
    qcfg.k = k;
    RunRow(env, ds, "k=" + std::to_string(k), qcfg);
  }

  PrintTitle("Fig 12(b): varying queried keywords per feature set");
  PrintBarHeader();
  for (uint32_t n : {1u, 3u, 5u, 7u, 9u}) {
    QueryWorkloadConfig qcfg;
    qcfg.keywords_per_set = n;
    RunRow(env, ds, "keywords=" + std::to_string(n), qcfg);
  }
}

}  // namespace
}  // namespace bench
}  // namespace stpq

int main() { stpq::bench::Main(); }
