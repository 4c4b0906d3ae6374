// Figure 7: STPS scalability on the synthetic dataset (range score),
// varying (a) |F_i|, (b) |O|, (c) the number of feature sets c, and
// (d) the number of indexed keywords — SRT-index vs modified IR2-tree,
// execution time split into I/O (page reads x unit cost) and CPU.
//
// Paper reference shapes: STPS is orders of magnitude faster than STDS;
// SRT consistently beats IR2 (~2x); time grows sub-linearly with |F_i|,
// barely with |O|, strongly with c, mildly with the vocabulary.
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
  std::printf("Figure 7: STPS scalability, synthetic dataset, range score "
              "(scale=%.2f, %u queries/point, io=%.2fms/read)\n",
              env.scale, env.queries, env.io_ms);

  PrintTitle("Fig 7(a): varying |F_i|");
  PrintBarHeader();
  for (uint32_t f : {50'000u, 100'000u, 500'000u, 1'000'000u}) {
    RunRow(env, "|F_i|=" + std::to_string(Scaled(f, env)),
           MakeSynthetic(env, kDefaultCard, f, kDefaultC, kDefaultVocab));
  }

  PrintTitle("Fig 7(b): varying |O|");
  PrintBarHeader();
  for (uint32_t o : {50'000u, 100'000u, 500'000u, 1'000'000u}) {
    RunRow(env, "|O|=" + std::to_string(Scaled(o, env)),
           MakeSynthetic(env, o, kDefaultCard, kDefaultC, kDefaultVocab));
  }

  PrintTitle("Fig 7(c): varying number of feature sets c");
  PrintBarHeader();
  for (uint32_t c : {2u, 3u, 4u, 5u}) {
    RunRow(env, "c=" + std::to_string(c),
           MakeSynthetic(env, kDefaultCard, kDefaultCard, c, kDefaultVocab));
  }

  PrintTitle("Fig 7(d): varying indexed keywords");
  PrintBarHeader();
  for (uint32_t w : {64u, 128u, 192u, 256u}) {
    RunRow(env, "keywords=" + std::to_string(w),
           MakeSynthetic(env, kDefaultCard, kDefaultCard, kDefaultC, w));
  }
}

}  // namespace
}  // namespace bench
}  // namespace stpq

int main() { stpq::bench::Main(); }
