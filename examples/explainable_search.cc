// Explainable search: the extended API in one tour.
//
//   1. Generate a dataset and persist it to the binary .stpq format.
//   2. Reload it (the round trip is what a downstream app would do).
//   3. Stream results incrementally with StpsCursor — no k fixed up front,
//      stop on a quality threshold instead.
//   4. Explain every returned hotel: which restaurant and which cafe give
//      it its score, at what distance.  The explanation re-derives tau;
//      the tour exits 1 if it disagrees with the cursor's score.
//
//   $ ./build/examples/explainable_search [scale]
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/cursor.h"
#include "core/engine.h"
#include "core/explain.h"
#include "gen/real_like.h"
#include "io/dataset_io.h"

using namespace stpq;

namespace {

KeywordSet Terms(const Vocabulary& v,
                 std::initializer_list<const char*> words) {
  KeywordSet s(v.size());
  for (const char* w : words) s.Insert(v.Lookup(w).value());
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  RealLikeConfig cfg;
  cfg.scale = argc > 1 ? std::atof(argv[1]) : 0.05;
  Dataset ds = GenerateRealLike(cfg);

  // Persist and reload — the binary format carries objects, feature
  // tables and vocabularies.
  // One file per process, so concurrent runs do not share it.
  const std::string file = "/tmp/stpq_example_dataset_" +
                           std::to_string(getpid()) + ".stpq";
  const char* path = file.c_str();
  Status st = WriteDatasetBinary(path, ds);
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    return 1;
  }
  Result<Dataset> loaded = ReadDatasetBinary(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "read failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Dataset data = loaded.TakeValue();
  std::printf("Round-tripped %zu hotels + %zu restaurants + %zu cafes "
              "through %s\n\n",
              data.objects.size(), data.feature_tables[0].size(),
              data.feature_tables[1].size(), path);

  Query query;
  query.radius = 0.012;
  query.lambda = 0.5;
  query.keywords.push_back(
      Terms(data.vocabularies[0], {"mexican", "tacos"}));
  query.keywords.push_back(Terms(data.vocabularies[1], {"smoothies"}));

  Engine engine = Engine::Build(data.objects, std::move(data.feature_tables),
                EngineOptions{}).TakeValue();

  // Stream until quality drops below 80% of the best hit (a posteriori k).
  std::unique_ptr<StpsCursor> cursor = engine.OpenCursor(query).TakeValue();
  std::printf("Hotels ranked until the score drops below 80%% of the "
              "leader:\n");
  double leader = -1.0;
  int rank = 0;
  while (auto entry = cursor->Next()) {
    if (leader < 0) leader = entry->score;
    if (entry->score < 0.8 * leader || rank >= 25) break;
    ++rank;
    Result<Explanation> why = ExplainScore(&engine, query, entry->object);
    if (!why.ok()) {
      std::fprintf(stderr, "explain failed: %s\n",
                   why.status().ToString().c_str());
      return 1;
    }
    std::printf("#%2d %-12s tau = %.4f\n", rank,
                engine.objects()[entry->object].name.c_str(), entry->score);
    if (std::fabs(why.value().total - entry->score) > 1e-9) {
      std::fprintf(stderr, "explanation total %.12f != cursor tau %.12f\n",
                   why.value().total, entry->score);
      return 1;
    }
    const char* set_names[] = {"restaurant", "cafe"};
    for (const Contribution& c : why.value().contributions) {
      if (!c.has_feature) {
        std::printf("      %-10s (nothing relevant within r)\n",
                    set_names[c.feature_set]);
        continue;
      }
      const FeatureObject& f =
          engine.feature_table(c.feature_set).Get(c.feature);
      std::printf("      %-10s %-16s s=%.3f at distance %.4f\n",
                  set_names[c.feature_set], f.name.c_str(), c.score,
                  c.distance);
    }
  }
  std::printf("\nCursor cost so far: %llu page reads, "
              "%llu combinations emitted\n",
              static_cast<unsigned long long>(
                  cursor->stats().TotalReads()),
              static_cast<unsigned long long>(
                  cursor->stats().combinations_emitted));
  std::remove(path);
  return 0;
}
