// Cross-cutting property tests of the paper's formal claims:
//   * Lemma 1: every object's score is the score of some valid combination;
//   * Definition 4 symmetry: combination validity is order-independent;
//   * s-hat(e) tightness statistics (SRT tighter than IR2);
//   * Voronoi cells of the relevant features partition the domain;
//   * the I/O model: a query reads each page it touches once.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>

#include "core/brute_force.h"
#include "core/combination.h"
#include "core/engine.h"
#include "core/exec_session.h"
#include "core/score.h"
#include "core/voronoi.h"
#include "gen/queries.h"
#include "gen/synthetic.h"
#include "index/ir2_tree.h"
#include "index/srt_index.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace stpq {
namespace {

std::vector<const FeatureTable*> TablePtrs(const Dataset& ds) {
  std::vector<const FeatureTable*> out;
  for (const FeatureTable& t : ds.feature_tables) out.push_back(&t);
  return out;
}

TEST(Lemma1Test, EveryObjectScoreIsAValidCombinationScore) {
  // Lemma 1: for every p there is a valid combination C with tau(p) = s(C).
  SyntheticConfig cfg;
  cfg.num_objects = 120;
  cfg.num_features_per_set = 150;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 25;
  cfg.cluster_stddev = 0.03;
  Dataset ds = GenerateSynthetic(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  QueryWorkloadConfig qcfg;
  qcfg.count = 3;
  qcfg.radius = 0.06;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  // One engine holds both trees, so one session's pool reads them.
  const Engine engine =
      Engine::Build({}, ds.feature_tables, EngineOptions{}).TakeValue();
  const std::vector<const FeatureIndex*> indexes{&engine.feature_index(0),
                                                 &engine.feature_index(1)};
  for (const Query& q : queries) {
    // Enumerate every valid combination score.
    QueryStats stats;
    ExecutionSession session(&engine.page_store());
    CombinationIterator it(indexes, q, /*enforce_range_constraint=*/true,
                           PullingStrategy::kPrioritized, &stats,
                           session.scratch());
    std::vector<double> combo_scores;
    while (auto c = it.Next()) combo_scores.push_back(c->score);
    for (const DataObject& p : ds.objects) {
      double tau = brute.Tau(p.pos, q);
      bool found = false;
      for (double s : combo_scores) {
        if (std::abs(s - tau) < 1e-9) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "tau(p)=" << tau
                         << " matches no valid combination score";
    }
  }
}

TEST(BoundTightnessTest, SrtBoundsTighterThanIr2OnAverage) {
  // The SRT-index's raison d'etre: its internal-entry bounds track the
  // best descendant score more closely than signature-based bounds.
  SyntheticConfig cfg;
  cfg.num_objects = 0;
  cfg.num_features_per_set = 4000;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 64;
  cfg.num_clusters = 150;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;
  SrtIndex srt(&ds.feature_tables[0], opts);
  Ir2Tree ir2(&ds.feature_tables[0], opts);
  KeywordSet query(64, {1, 2, 3});
  const double lambda = 0.5;

  // For each index: mean gap between a relevant internal entry's bound
  // and the true best score of the features below it, read from the
  // index's pages and scored from the table.
  auto mean_gap = [&](const auto& index) {
    const PagedTree& pages = index.tree();
    double gap_sum = 0;
    int entries = 0;
    std::vector<FeatureBranch> children;
    std::vector<NodeId> stack{index.RootId()};
    while (!stack.empty()) {
      NodeId nid = stack.back();
      stack.pop_back();
      children.clear();
      index.EvaluateNode(pages.PeekNode(nid), query, lambda, &children);
      for (const FeatureBranch& b : children) {
        if (b.is_feature) continue;
        // True best descendant score below b.
        double best = 0;
        std::vector<NodeId> sub{b.id};
        while (!sub.empty()) {
          const NodeView node = pages.PeekNode(sub.back());
          sub.pop_back();
          for (uint32_t i = 0; i < node.size(); ++i) {
            if (node.IsLeaf()) {
              best = std::max(
                  best, PreferenceScore(index.table().Get(node.id(i)), query,
                                        lambda));
            } else {
              sub.push_back(node.id(i));
            }
          }
        }
        EXPECT_GE(b.score_bound, best - 1e-9);  // validity
        gap_sum += b.score_bound - best;
        ++entries;
        stack.push_back(b.id);
      }
    }
    return gap_sum / std::max(entries, 1);
  };
  EXPECT_LT(mean_gap(srt), mean_gap(ir2));
}

TEST(VoronoiPartitionTest, RelevantCellsPartitionTheDomain) {
  // The Voronoi cells of all relevant features tile the domain: areas sum
  // to the domain area and every probe point lies in the cell of its
  // nearest relevant feature.
  SyntheticConfig cfg;
  cfg.num_objects = 0;
  cfg.num_features_per_set = 120;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 8;
  cfg.num_clusters = 30;
  Dataset ds = GenerateSynthetic(cfg);
  IndexBuildParams opts;
  SrtIndex index(&ds.feature_tables[0], opts);
  KeywordSet query(8, {0, 1, 2});
  Rect2 domain = MakeRect2(0, 0, 1, 1);
  QueryStats stats;
  ExecutionSession session(&index.tree().pages());
  TraversalScratch& scratch = session.scratch();
  double total_area = 0;
  std::vector<ObjectId> relevant;
  for (const FeatureObject& t : ds.feature_tables[0].All()) {
    if (t.keywords.Intersects(query)) relevant.push_back(t.id);
  }
  ASSERT_GT(relevant.size(), 10u);
  for (ObjectId id : relevant) {
    VoronoiCell cell;
    ComputeVoronoiCell(index, id, query, 0.5, domain, stats, scratch, &cell);
    total_area += cell.polygon.Area();
  }
  EXPECT_NEAR(total_area, 1.0, 1e-6);
}

TEST(CombinationSymmetryTest, FeatureSetOrderDoesNotChangeScores) {
  // Swapping the feature sets (and the query keyword lists with them)
  // must produce the same score multiset.
  SyntheticConfig cfg;
  cfg.num_objects = 200;
  cfg.num_features_per_set = 150;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 25;
  Dataset ds = GenerateSynthetic(cfg);
  QueryWorkloadConfig qcfg;
  qcfg.count = 3;
  qcfg.radius = 0.05;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);

  Dataset swapped;
  swapped.objects = ds.objects;
  swapped.feature_tables.push_back(ds.feature_tables[1]);
  swapped.feature_tables.push_back(ds.feature_tables[0]);
  Engine a = Engine::Build(ds.objects, std::move(ds.feature_tables), {}).TakeValue();
  Engine b = Engine::Build(swapped.objects, std::move(swapped.feature_tables), {}).TakeValue();
  for (Query q : queries) {
    QueryResult ra = a.Execute(q, Algorithm::kStps).TakeValue();
    std::swap(q.keywords[0], q.keywords[1]);
    QueryResult rb = b.Execute(q, Algorithm::kStps).TakeValue();
    ASSERT_EQ(ra.entries.size(), rb.entries.size());
    for (size_t i = 0; i < ra.entries.size(); ++i) {
      EXPECT_NEAR(ra.entries[i].score, rb.entries[i].score, 1e-9);
    }
  }
}

TEST(ScoreMonotonicityTest, LargerRadiusNeverLowersRangeScores) {
  // Definition 2 is monotone in r: enlarging the neighborhood can only
  // admit more features.
  SyntheticConfig cfg;
  cfg.num_objects = 100;
  cfg.num_features_per_set = 150;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 16;
  Dataset ds = GenerateSynthetic(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  QueryWorkloadConfig qcfg;
  qcfg.count = 2;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  for (Query q : queries) {
    for (const DataObject& p : ds.objects) {
      q.radius = 0.02;
      double small = brute.Tau(p.pos, q);
      q.radius = 0.1;
      double large = brute.Tau(p.pos, q);
      EXPECT_GE(large, small - 1e-12);
    }
  }
}

TEST(ScoreMonotonicityTest, InfluenceUpperBoundsDecayedRange) {
  // For the same parameters, the influence score of p is at least the
  // range score times the worst-case decay 2^(-1) = 0.5 (features within
  // r decay by at most half).
  SyntheticConfig cfg;
  cfg.num_objects = 80;
  cfg.num_features_per_set = 120;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 8;
  Dataset ds = GenerateSynthetic(cfg);
  BruteForceEvaluator brute(&ds.objects, TablePtrs(ds));
  Query q;
  q.radius = 0.05;
  q.keywords = {KeywordSet(8, {0, 1})};
  for (const DataObject& p : ds.objects) {
    q.variant = ScoreVariant::kRange;
    double range = brute.Tau(p.pos, q);
    q.variant = ScoreVariant::kInfluence;
    double influence = brute.Tau(p.pos, q);
    EXPECT_GE(influence, 0.5 * range - 1e-12);
  }
}

TEST(IoModelTest, EachQueryReadsEveryPageItTouchesOnce) {
  // The pool traces one kPoolMiss per page read, with its page id.  In
  // every query those ids are pairwise distinct (no page is read twice)
  // and number exactly the reads the query reports, on both backends.
  SyntheticConfig cfg;
  cfg.seed = 13;
  cfg.num_objects = 200;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 16;
  cfg.num_clusters = 20;
  const Dataset ds = GenerateSynthetic(cfg);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("stpq_io_model_" + std::to_string(::getpid()) + ".stpqx"))
          .string();
  Tracer& tracer = Tracer::Global();
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    EngineOptions opts;
    opts.build.index_kind = kind;
    opts.build.page_size_bytes = 256;  // deep trees: many pages per query
    const Engine built =
        Engine::Build(ds.objects, ds.feature_tables, opts).TakeValue();
    ASSERT_TRUE(built.Save(path).ok());
    Result<Engine> opened = Engine::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const Engine* const engines[] = {&built, &opened.value()};
    for (const Engine* engine : engines) {
      for (ScoreVariant variant :
           {ScoreVariant::kRange, ScoreVariant::kInfluence,
            ScoreVariant::kNearestNeighbor}) {
        QueryWorkloadConfig qcfg;
        qcfg.count = 3;
        qcfg.radius = 0.05;
        qcfg.variant = variant;
        for (const Query& q : GenerateQueries(ds, qcfg)) {
          for (Algorithm algo : {Algorithm::kStds, Algorithm::kStps}) {
            const std::string label =
                std::string(engine->IndexName()) + " " +
                StorageBackendName(engine->page_store().backend()) +
                " variant " + std::to_string(static_cast<int>(variant)) +
                (algo == Algorithm::kStds ? " STDS" : " STPS");
            tracer.Discard();
            tracer.Start();
            Result<QueryResult> r = engine->Execute(q, algo);
            tracer.Stop();
            ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
            const TraceCollection trace = tracer.Lanes();
            ASSERT_EQ(trace.dropped, 0u) << label;
            std::set<PageId> pages;
            uint64_t misses = 0;
            for (const TraceThreadEvents& thread : trace.threads) {
              for (const TraceEvent& e : thread.events) {
                if (e.type != TraceEventType::kPoolMiss) continue;
                ++misses;
                pages.insert(e.arg_d);
              }
            }
            EXPECT_GT(misses, 0u) << label;
            EXPECT_EQ(pages.size(), misses) << label << ": a page read twice";
            EXPECT_EQ(misses, r.value().stats.object_index_reads +
                                  r.value().stats.feature_index_reads)
                << label;
          }
        }
      }
    }
  }
  tracer.Discard();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace stpq
