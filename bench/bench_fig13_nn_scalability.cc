// Figure 13: nearest-neighbor-score STPS scalability on the synthetic
// dataset, varying (a) |F_i| and (b) |O| — SRT vs IR2, with the Voronoi
// cell computation cost reported separately (the paper's striped bars).
//
// Paper reference shapes: NN is the costliest variant; for large feature
// sets the Voronoi-cell computation dominates, and SRT's advantage shrinks
// (cells need spatially-nearby features, which the spatial-only IR2-tree
// co-locates better) but SRT remains beneficial overall.
#include "bench_common.h"

namespace stpq {
namespace bench {
namespace {

constexpr uint32_t kDefaultCard = 100'000;
constexpr uint32_t kDefaultVocab = 128;
constexpr uint32_t kDefaultC = 2;

void RunRow(const BenchEnv& env, const std::string& label, Dataset ds) {
  QueryWorkloadConfig qcfg;
  qcfg.count = env.queries;
  qcfg.variant = ScoreVariant::kNearestNeighbor;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kIr2, FeatureIndexKind::kSrt}) {
    Engine engine = MakeEngine(ds, kind);
    WorkloadSummary r = RunWorkload(&engine, queries, Algorithm::kStps, env);
    PrintVoronoiRow(label, KindName(kind), r, env);
  }
}

void Main() {
  BenchEnv env = GetEnv(/*default_queries=*/10);
  std::printf("Figure 13: NN-score STPS scalability, synthetic dataset "
              "(scale=%.2f, %u queries/point, io=%.2fms/read; vor_* columns "
              "= Voronoi-cell share of the totals)\n",
              env.scale, env.queries, env.io_ms);

  PrintTitle("Fig 13(a): varying |F_i|");
  PrintVoronoiHeader();
  for (uint32_t f : {50'000u, 100'000u, 500'000u, 1'000'000u}) {
    RunRow(env, "|F_i|=" + std::to_string(Scaled(f, env)),
           MakeSynthetic(env, kDefaultCard, f, kDefaultC, kDefaultVocab));
  }

  PrintTitle("Fig 13(b): varying |O|");
  PrintVoronoiHeader();
  for (uint32_t o : {50'000u, 100'000u, 500'000u, 1'000'000u}) {
    RunRow(env, "|O|=" + std::to_string(Scaled(o, env)),
           MakeSynthetic(env, o, kDefaultCard, kDefaultC, kDefaultVocab));
  }
}

}  // namespace
}  // namespace bench
}  // namespace stpq

int main() { stpq::bench::Main(); }
