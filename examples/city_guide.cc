// City guide: range-score STPQ over the real-like dataset.
//
// The scenario from the paper's introduction at realistic scale: rank
// hotels by the best Italian-pizza restaurant and the best espresso cafe
// within walking distance.  Also demonstrates how the same query behaves
// under both feature indexes (SRT vs IR2) and prints the per-query cost
// breakdown the paper reports.
//
//   $ ./build/examples/city_guide [scale]
#include <cstdio>
#include <cstdlib>

#include "core/engine.h"
#include "core/score.h"
#include "gen/real_like.h"

using namespace stpq;

namespace {

KeywordSet Terms(const Vocabulary& v,
                 std::initializer_list<const char*> words) {
  KeywordSet s(v.size());
  for (const char* w : words) s.Insert(v.Lookup(w).value());
  return s;
}

/// Finds the best feature within `r` of `p` (to explain a result row).
const FeatureObject* BestNearby(const FeatureTable& table,
                                const KeywordSet& kw, double lambda,
                                const Point& p, double r) {
  const FeatureObject* best = nullptr;
  double best_score = -1.0;
  for (const FeatureObject& t : table.All()) {
    if (!TextRelevant(t, kw) || Distance(p, t.pos) > r) continue;
    double s = PreferenceScore(t, kw, lambda);
    if (s > best_score) {
      best_score = s;
      best = &t;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  RealLikeConfig cfg;
  cfg.scale = argc > 1 ? std::atof(argv[1]) : 0.1;
  std::printf("Generating the real-like dataset (scale %.2f)...\n",
              cfg.scale);
  Dataset ds = GenerateRealLike(cfg);
  std::printf("  %zu hotels, %zu restaurants, %zu cafes\n\n",
              ds.objects.size(), ds.feature_tables[0].size(),
              ds.feature_tables[1].size());

  Query query;
  query.k = 5;
  query.radius = 0.01;  // "walking distance" in the normalized space
  query.lambda = 0.5;
  query.keywords.push_back(Terms(ds.vocabularies[0], {"italian", "pizza"}));
  query.keywords.push_back(
      Terms(ds.vocabularies[1], {"espresso", "muffins"}));

  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    EngineOptions opts;
    opts.build.index_kind = kind;
    Engine engine = Engine::Build(ds.objects, std::vector<FeatureTable>(ds.feature_tables),
                  opts).TakeValue();
    QueryResult result = engine.Execute(query, Algorithm::kStps).TakeValue();
    std::printf("=== %s index ===\n", engine.IndexName());
    for (const ResultEntry& e : result.entries) {
      const DataObject& hotel = engine.objects()[e.object];
      std::printf("  %-14s tau = %.4f", hotel.name.c_str(), e.score);
      const FeatureObject* r = BestNearby(ds.feature_tables[0],
                                          query.keywords[0], query.lambda,
                                          hotel.pos, query.radius);
      const FeatureObject* c = BestNearby(ds.feature_tables[1],
                                          query.keywords[1], query.lambda,
                                          hotel.pos, query.radius);
      if (r != nullptr) std::printf("  [%s]", r->name.c_str());
      if (c != nullptr) std::printf("  [%s]", c->name.c_str());
      std::printf("\n");
    }
    std::printf("  cost: %.2f ms CPU, %llu page reads "
                "(%llu feature-index, %llu object-index)\n\n",
                result.stats.cpu_ms,
                static_cast<unsigned long long>(result.stats.TotalReads()),
                static_cast<unsigned long long>(
                    result.stats.feature_index_reads),
                static_cast<unsigned long long>(
                    result.stats.object_index_reads));
  }
  return 0;
}
