// Table 3: STDS execution time (msec) on the synthetic dataset while
// varying (a) feature-set cardinality, (b) object cardinality, (c) the
// number of feature sets c, and (d) the number of indexed keywords —
// for both the modified IR2-tree and the SRT-index.
//
// Paper reference (unscaled): STDS needs >13 s per query at the defaults
// and scales poorly; SRT is consistently somewhat faster than IR2.
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
    WorkloadSummary r = RunWorkload(&engine, queries, Algorithm::kStds, env);
    PrintBarRow(label, KindName(kind), "STDS", r);
  }
}

void Main() {
  BenchEnv env = GetEnv(/*default_queries=*/5);
  std::printf("Table 3: STDS execution time, synthetic dataset "
              "(scale=%.2f, %u queries/point, io=%.2fms/read)\n",
              env.scale, env.queries, env.io_ms);

  PrintTitle("Table 3a: varying |F_i|");
  PrintBarHeader();
  for (uint32_t f : {50'000u, 100'000u, 500'000u, 1'000'000u}) {
    RunRow(env, "|F_i|=" + std::to_string(Scaled(f, env)),
           MakeSynthetic(env, kDefaultCard, f, kDefaultC, kDefaultVocab));
  }

  PrintTitle("Table 3b: varying |O|");
  PrintBarHeader();
  for (uint32_t o : {50'000u, 100'000u, 500'000u, 1'000'000u}) {
    RunRow(env, "|O|=" + std::to_string(Scaled(o, env)),
           MakeSynthetic(env, o, kDefaultCard, kDefaultC, kDefaultVocab));
  }

  PrintTitle("Table 3c: varying number of feature sets c");
  PrintBarHeader();
  for (uint32_t c : {2u, 3u, 4u, 5u}) {
    RunRow(env, "c=" + std::to_string(c),
           MakeSynthetic(env, kDefaultCard, kDefaultCard, c, kDefaultVocab));
  }

  PrintTitle("Table 3d: varying indexed keywords");
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
