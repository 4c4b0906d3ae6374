// Ablation: what makes the SRT-index work (Section 4 design choices).
//
// Index family: SRT (Hilbert packing over the mapped 4-D space, so it
// clusters location+score+text; the paper's choice, [9]) vs IR2 (2-D
// Hilbert packing, location only, signatures bolted on).
//
// Reported per configuration: STPS cost and the number of feature objects
// pulled before the top combinations were confirmed — the tighter s-hat(e)
// is, the fewer features STPS retrieves.
#include "bench_common.h"

namespace stpq {
namespace bench {
namespace {

void RunConfig(const BenchEnv& env, const std::string& label,
               const Dataset& ds, const std::vector<Query>& queries,
               FeatureIndexKind kind) {
  EngineOptions opts;
  opts.build.index_kind = kind;
  Engine engine = Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables),
                opts).TakeValue();
  WorkloadSummary r = RunWorkload(&engine, queries, Algorithm::kStps, env);
  std::printf("%-28s %12.3f %12.1f %14.1f %12.3f\n", label.c_str(),
              r.cpu_ms.mean, r.mean_page_reads,
              static_cast<double>(r.aggregate.features_retrieved) /
                  queries.size(),
              r.total_ms.mean);
}

void Main() {
  BenchEnv env = GetEnv(/*default_queries=*/30);
  std::printf("Ablation: SRT-index design choices "
              "(scale=%.2f, io=%.2fms/read)\n",
              env.scale, env.io_ms);
  Dataset ds = MakeSynthetic(env, 100'000, 100'000, 2, 128);
  QueryWorkloadConfig qcfg;
  qcfg.count = env.queries;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  std::printf("%-28s %12s %12s %14s %12s\n", "config", "cpu_ms", "io_reads",
              "features/query", "total_ms");

  RunConfig(env, "SRT + 4-D Hilbert (paper)", ds, queries,
            FeatureIndexKind::kSrt);
  RunConfig(env, "IR2 + 2-D Hilbert", ds, queries, FeatureIndexKind::kIr2);
}

}  // namespace
}  // namespace bench
}  // namespace stpq

int main() { stpq::bench::Main(); }
