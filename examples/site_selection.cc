// Site selection: the nearest-neighbor score variant (Section 7.2).
//
// Scenario: an analyst ranks candidate store sites by the quality of the
// facilities that would actually serve each site — i.e. the *nearest*
// relevant supplier and the *nearest* relevant transit hub, not merely any
// good one within a radius.  Under the NN score a site inherits s(t) of
// its per-set nearest relevant feature, which STPS resolves through
// incremental Voronoi-cell intersection.
//
//   $ ./build/examples/site_selection [scale]
#include <cstdio>
#include <cstdlib>

#include "core/engine.h"
#include "core/score.h"
#include "gen/synthetic.h"

using namespace stpq;

int main(int argc, char** argv) {
  double scale = argc > 1 ? std::atof(argv[1]) : 0.1;
  SyntheticConfig cfg;
  cfg.seed = 2026;
  cfg.num_objects = static_cast<uint32_t>(20'000 * scale);     // sites
  cfg.num_features_per_set = static_cast<uint32_t>(8'000 * scale);
  cfg.num_feature_sets = 2;  // suppliers, transit hubs
  cfg.vocabulary_size = 32;
  cfg.num_clusters = static_cast<uint32_t>(1'000 * scale) + 10;
  Dataset ds = GenerateSynthetic(cfg);
  std::printf("Ranking %zu candidate sites by their nearest qualified\n"
              "supplier (set 1) and nearest qualified transit hub (set 2)\n\n",
              ds.objects.size());

  Engine engine = Engine::Build(ds.objects, std::move(ds.feature_tables), EngineOptions{}).TakeValue();

  Query query;
  query.k = 5;
  query.radius = 0.01;  // scale parameter only; NN score has no cutoff
  query.lambda = 0.4;
  query.variant = ScoreVariant::kNearestNeighbor;
  query.keywords.push_back(KeywordSet(32, {0, 1, 2}));   // required services
  query.keywords.push_back(KeywordSet(32, {5, 6}));      // required lines

  QueryResult result = engine.Execute(query, Algorithm::kStps).TakeValue();
  std::printf("Top-%u sites (score = s(nearest supplier) + s(nearest hub)):\n",
              query.k);
  for (const ResultEntry& e : result.entries) {
    const DataObject& site = engine.objects()[e.object];
    std::printf("  site %-6u at (%.3f, %.3f)  tau = %.4f\n", e.object,
                site.pos.x, site.pos.y, e.score);
  }
  std::printf("\nCost profile (the paper's Figure 13/14 breakdown):\n"
              "  total CPU           %8.2f ms\n"
              "  Voronoi-cell CPU    %8.2f ms over %llu cells "
              "(%llu clip features)\n"
              "  page reads          %8llu (of which Voronoi %llu)\n"
              "  combinations        %8llu emitted\n",
              result.stats.cpu_ms,
              result.stats.PhaseMillis(QueryPhase::kVoronoi),
              static_cast<unsigned long long>(result.stats.voronoi_cells),
              static_cast<unsigned long long>(
                  result.stats.voronoi_clip_features),
              static_cast<unsigned long long>(result.stats.TotalReads()),
              static_cast<unsigned long long>(result.stats.voronoi_reads),
              static_cast<unsigned long long>(
                  result.stats.combinations_emitted));

  // Cross-check the top site against a direct scan.
  if (!result.entries.empty()) {
    const ResultEntry& top = result.entries.front();
    const Point p = engine.objects()[top.object].pos;
    double check = 0.0;
    for (size_t i = 0; i < engine.num_feature_sets(); ++i) {
      const FeatureTable& table = engine.feature_table(i);
      double best_d = 1e18, best_s = 0.0;
      for (const FeatureObject& t : table.All()) {
        if (!TextRelevant(t, query.keywords[i])) continue;
        double d = Distance(p, t.pos);
        if (d < best_d) {
          best_d = d;
          best_s = PreferenceScore(t, query.keywords[i], query.lambda);
        }
      }
      check += best_s;
    }
    std::printf("\nDirect-scan check of the top site: tau = %.4f (%s)\n",
                check,
                std::abs(check - top.score) < 1e-9 ? "matches" : "MISMATCH");
  }
  return 0;
}
