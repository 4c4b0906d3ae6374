// Figure 14: nearest-neighbor-score STPS varying k, on (a) the real-like
// dataset and (b) the synthetic dataset — SRT vs IR2, with the Voronoi
// share reported separately.
//
// Paper reference shapes: on the real dataset the time barely grows with k
// (a few combinations serve many objects); on the synthetic dataset it
// grows with k (dispersed clusters mean each combination's Voronoi
// intersection holds few objects, so more combinations are needed).
#include "bench_common.h"

namespace stpq {
namespace bench {
namespace {

void RunRows(const BenchEnv& env, const Dataset& ds) {
  for (uint32_t k : {5u, 10u, 20u, 40u, 80u}) {
    QueryWorkloadConfig qcfg;
    qcfg.count = env.queries;
    qcfg.k = k;
    qcfg.variant = ScoreVariant::kNearestNeighbor;
    std::vector<Query> queries = GenerateQueries(ds, qcfg);
    for (FeatureIndexKind kind :
         {FeatureIndexKind::kIr2, FeatureIndexKind::kSrt}) {
      Engine engine = MakeEngine(ds, kind);
      WorkloadSummary r = RunWorkload(&engine, queries, Algorithm::kStps, env);
      PrintVoronoiRow("k=" + std::to_string(k), KindName(kind), r, env);
    }
  }
}

void Main() {
  BenchEnv env = GetEnv(/*default_queries=*/10);
  std::printf("Figure 14: NN-score STPS varying k "
              "(scale=%.2f, %u queries/point, io=%.2fms/read)\n",
              env.scale, env.queries, env.io_ms);

  PrintTitle("Fig 14(a): real-like dataset");
  PrintVoronoiHeader();
  Dataset real = MakeRealLike(env);
  RunRows(env, real);

  PrintTitle("Fig 14(b): synthetic dataset");
  PrintVoronoiHeader();
  Dataset synth = MakeSynthetic(env, 100'000, 100'000, 2, 128);
  RunRows(env, synth);
}

}  // namespace
}  // namespace bench
}  // namespace stpq

int main() { stpq::bench::Main(); }
