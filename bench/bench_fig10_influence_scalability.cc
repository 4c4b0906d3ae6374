// Figure 10: STPS scalability for the influence score variant on the
// synthetic dataset: (a) |F_i|, (b) |O|, (c) c, (d) indexed keywords —
// SRT vs IR2.
//
// Paper reference shapes: comparable to the range variant (Fig 7), in some
// cases slightly more expensive (more data objects per combination since
// objects beyond r still score); SRT beneficial in all setups.
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
  std::printf("Figure 10: influence-score STPS scalability, synthetic "
              "dataset (scale=%.2f, %u queries/point, io=%.2fms/read)\n",
              env.scale, env.queries, env.io_ms);

  PrintTitle("Fig 10(a): varying |F_i|");
  PrintBarHeader();
  for (uint32_t f : {50'000u, 100'000u, 500'000u, 1'000'000u}) {
    RunRow(env, "|F_i|=" + std::to_string(Scaled(f, env)),
           MakeSynthetic(env, kDefaultCard, f, kDefaultC, kDefaultVocab));
  }

  PrintTitle("Fig 10(b): varying |O|");
  PrintBarHeader();
  for (uint32_t o : {50'000u, 100'000u, 500'000u, 1'000'000u}) {
    RunRow(env, "|O|=" + std::to_string(Scaled(o, env)),
           MakeSynthetic(env, o, kDefaultCard, kDefaultC, kDefaultVocab));
  }

  PrintTitle("Fig 10(c): varying number of feature sets c");
  PrintBarHeader();
  for (uint32_t c : {2u, 3u, 4u, 5u}) {
    RunRow(env, "c=" + std::to_string(c),
           MakeSynthetic(env, kDefaultCard, kDefaultCard, c, kDefaultVocab));
  }

  PrintTitle("Fig 10(d): varying indexed keywords");
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
