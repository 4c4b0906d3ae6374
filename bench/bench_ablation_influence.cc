// Ablation: influence-variant strategies (DESIGN.md Section 4, note 2).
//
// Compares the paper's Algorithm 5 (combinations ordered by s(C)) against
// the library's anchored retrieval, across feature-set counts.  Both are
// exact; the combination count above the final threshold — and with it
// Algorithm 5's cost — grows combinatorially with c, while the anchored
// strategy scales with the number of viable anchors.
#include "bench_common.h"

namespace stpq {
namespace bench {
namespace {

void RunRow(const BenchEnv& env, const std::string& label, const Dataset& ds,
            uint32_t queries, double budget_ms) {
  QueryWorkloadConfig qcfg;
  qcfg.count = queries;
  qcfg.variant = ScoreVariant::kInfluence;
  std::vector<Query> qs = GenerateQueries(ds, qcfg);
  for (InfluenceMode mode :
       {InfluenceMode::kCombinations, InfluenceMode::kAnchored}) {
    if (mode == InfluenceMode::kCombinations && budget_ms <= 0.0) {
      std::printf("%-16s %-12s   (skipped: combination count is "
                  "combinatorial at this c)\n",
                  label.c_str(), "alg5-combos");
      continue;
    }
    EngineOptions opts;
    opts.influence_mode = mode;
    Engine engine = Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables),
                  opts).TakeValue();
    // Guard the combinatorial mode with a budget: run one query first.
    Timer probe;
    QueryResult first = engine.Execute(qs[0], Algorithm::kStps).TakeValue();
    double first_ms = probe.ElapsedMillis();
    const char* name =
        mode == InfluenceMode::kAnchored ? "anchored" : "alg5-combos";
    if (mode == InfluenceMode::kCombinations && first_ms > budget_ms) {
      std::printf("%-16s %-12s %12.3f %14llu  (single query; over budget, "
                  "row skipped)\n",
                  label.c_str(), name, first_ms,
                  static_cast<unsigned long long>(
                      first.stats.combinations_emitted));
      continue;
    }
    WorkloadSummary r = RunWorkload(&engine, qs, Algorithm::kStps, env);
    std::printf("%-16s %-12s %12.3f %14.1f %12.1f %12.3f\n", label.c_str(),
                name, r.cpu_ms.mean,
                static_cast<double>(r.aggregate.combinations_emitted) /
                    qs.size(),
                r.mean_page_reads, r.total_ms.mean);
  }
}

void Main() {
  BenchEnv env = GetEnv(/*default_queries=*/10);
  std::printf("Ablation: influence strategies, synthetic dataset "
              "(scale=%.2f, io=%.2fms/read)\n",
              env.scale, env.io_ms);
  std::printf("%-16s %-12s %12s %14s %12s %12s\n", "setup", "strategy",
              "cpu_ms", "combos/query", "io_reads", "total_ms");
  for (uint32_t c : {2u, 3u, 4u}) {
    // Algorithm 5 is only attempted up to c=3; a single c=4 query can run
    // for tens of minutes (DESIGN.md Section 4, note 2).
    RunRow(env, "c=" + std::to_string(c),
           MakeSynthetic(env, 100'000, 100'000, c, 128), env.queries,
           /*budget_ms=*/c <= 3 ? 30'000.0 : 0.0);
  }
}

}  // namespace
}  // namespace bench
}  // namespace stpq

int main() { stpq::bench::Main(); }
