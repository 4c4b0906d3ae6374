// Ablation: STPS pulling strategies (Section 6.3).
//
// Compares Definition 5's prioritized strategy against simple round-robin
// across feature-set counts and feature-set size skews.  The prioritized
// strategy targets the set that defines the threshold, so it should pull
// fewer features (and hence read fewer pages), especially when feature
// sets differ in size or score distribution.
#include "bench_common.h"

namespace stpq {
namespace bench {
namespace {

void RunRow(const BenchEnv& env, const std::string& label, const Dataset& ds,
            uint32_t queries) {
  QueryWorkloadConfig qcfg;
  qcfg.count = queries;
  std::vector<Query> qs = GenerateQueries(ds, qcfg);
  for (PullingStrategy strategy :
       {PullingStrategy::kRoundRobin, PullingStrategy::kPrioritized}) {
    EngineOptions opts;
    opts.pulling = strategy;
    Engine engine = Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables),
                  opts).TakeValue();
    WorkloadSummary r = RunWorkload(&engine, qs, Algorithm::kStps, env);
    std::printf("%-24s %-12s %12.3f %12.1f %14.1f %12.3f\n", label.c_str(),
                strategy == PullingStrategy::kPrioritized ? "prioritized"
                                                          : "round-robin",
                r.cpu_ms.mean, r.mean_page_reads,
                static_cast<double>(r.aggregate.features_retrieved) /
                    qs.size(),
                r.total_ms.mean);
  }
}

void Main() {
  BenchEnv env = GetEnv(/*default_queries=*/30);
  std::printf("Ablation: prioritized vs round-robin pulling strategy "
              "(scale=%.2f, io=%.2fms/read)\n",
              env.scale, env.io_ms);
  std::printf("%-24s %-12s %12s %12s %14s %12s\n", "setup", "strategy",
              "cpu_ms", "io_reads", "features/query", "total_ms");

  // Balanced sets, growing c.
  for (uint32_t c : {2u, 3u, 4u}) {
    RunRow(env, "balanced c=" + std::to_string(c),
           MakeSynthetic(env, 100'000, 100'000, c, 128), env.queries);
  }

  // Skewed: one large set and one small set; the threshold is usually
  // owned by one of them, which prioritized pulling exploits.
  {
    SyntheticConfig cfg;
    cfg.num_objects = Scaled(100'000, env);
    cfg.num_features_per_set = Scaled(20'000, env);
    cfg.num_feature_sets = 2;
    cfg.vocabulary_size = 128;
    cfg.num_clusters = std::max(100u, Scaled(10'000, env));
    Dataset ds = GenerateSynthetic(cfg);
    // Enlarge set 0 by regenerating it 10x bigger.
    SyntheticConfig big = cfg;
    big.seed = 77;
    big.num_features_per_set = Scaled(200'000, env);
    big.num_feature_sets = 1;
    Dataset large = GenerateSynthetic(big);
    ds.feature_tables[0] = std::move(large.feature_tables[0]);
    RunRow(env, "skewed 10:1", ds, env.queries);
  }
}

}  // namespace
}  // namespace bench
}  // namespace stpq

int main() { stpq::bench::Main(); }
