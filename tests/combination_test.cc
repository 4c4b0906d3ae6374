// Tests for core/combination: sorted feature streams and the combination
// iterator (Algorithm 4).
#include <gtest/gtest.h>

#include <map>

#include "core/combination.h"
#include "core/engine.h"
#include "core/exec_session.h"
#include "core/score.h"
#include "index/ir2_tree.h"
#include "index/srt_index.h"
#include "paper_example.h"
#include "util/rng.h"

namespace stpq {
namespace {

namespace ex = testing_example;

FeatureTable RandomFeatures(uint64_t seed, uint32_t n, uint32_t universe) {
  Rng rng(seed);
  std::vector<FeatureObject> f;
  for (uint32_t i = 0; i < n; ++i) {
    FeatureObject t;
    t.pos = {rng.Uniform(), rng.Uniform()};
    t.score = rng.Uniform();
    t.keywords = KeywordSet(universe);
    uint32_t nkw = static_cast<uint32_t>(rng.UniformInt(1, 3));
    for (uint32_t j = 0; j < nkw; ++j) {
      t.keywords.Insert(static_cast<TermId>(rng.UniformInt(0, universe - 1)));
    }
    f.push_back(std::move(t));
  }
  return FeatureTable(std::move(f), universe);
}

/// `tables` indexed into one engine (SRT, default page size), so that one
/// session's pool reads every feature set's pages.
Engine FeatureEngine(std::vector<FeatureTable> tables) {
  return Engine::Build({}, std::move(tables), EngineOptions{}).TakeValue();
}

/// The engine's feature indexes, in set order.
std::vector<const FeatureIndex*> IndexesOf(const Engine& engine) {
  std::vector<const FeatureIndex*> out;
  for (size_t i = 0; i < engine.num_feature_sets(); ++i) {
    out.push_back(&engine.feature_index(i));
  }
  return out;
}

TEST(SortedFeatureStreamTest, YieldsNonIncreasingScores) {
  FeatureTable table = RandomFeatures(1, 1000, 32);
  IndexBuildParams opts;
  SrtIndex index(&table, opts);
  KeywordSet query(32, {0, 1, 2});
  QueryStats stats;
  ExecutionSession session(&index.tree().pages());
  TraversalScratch& scratch = session.scratch();
  SortedFeatureStream stream(index, query, 0.5, stats, scratch,
                             scratch.heap);
  double prev = std::numeric_limits<double>::infinity();
  size_t real_count = 0;
  while (auto item = stream.Next()) {
    EXPECT_LE(item->score, prev + 1e-12);
    prev = item->score;
    if (item->id != kVirtualFeature) {
      ++real_count;
      // Exact score and textual relevance.
      const FeatureObject& t = table.Get(item->id);
      EXPECT_NEAR(item->score, PreferenceScore(t, query, 0.5), 1e-12);
      EXPECT_TRUE(t.keywords.Intersects(query));
    } else {
      EXPECT_EQ(item->score, 0.0);
      EXPECT_TRUE(stream.Exhausted());
    }
  }
  // Stream covered exactly the relevant features.
  size_t expected = 0;
  for (const FeatureObject& t : table.All()) {
    if (t.keywords.Intersects(query)) ++expected;
  }
  EXPECT_EQ(real_count, expected);
  EXPECT_EQ(stats.features_retrieved, expected);
}

TEST(SortedFeatureStreamTest, EmptyIndexYieldsOnlyVirtual) {
  FeatureTable table(std::vector<FeatureObject>{}, 8);
  IndexBuildParams opts;
  SrtIndex index(&table, opts);
  KeywordSet query(8, {0});
  QueryStats stats;
  ExecutionSession session(&index.tree().pages());
  TraversalScratch& scratch = session.scratch();
  SortedFeatureStream stream(index, query, 0.5, stats, scratch,
                             scratch.heap);
  auto item = stream.Next();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->id, kVirtualFeature);
  EXPECT_FALSE(stream.Next().has_value());
}

TEST(SortedFeatureStreamTest, NoRelevantFeaturesYieldsOnlyVirtual) {
  FeatureTable table = RandomFeatures(2, 100, 32);
  IndexBuildParams opts;
  SrtIndex index(&table, opts);
  KeywordSet query(32);  // empty query: sim = 0 for everything
  QueryStats stats;
  ExecutionSession session(&index.tree().pages());
  TraversalScratch& scratch = session.scratch();
  SortedFeatureStream stream(index, query, 0.5, stats, scratch,
                             scratch.heap);
  auto item = stream.Next();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->id, kVirtualFeature);
  EXPECT_FALSE(stream.Next().has_value());
}

// Enumerate all combinations via brute force for cross-checking.
struct BruteCombo {
  std::vector<ObjectId> members;
  double score;
};

std::vector<BruteCombo> BruteCombos(
    const std::vector<const FeatureTable*>& tables, const Query& q,
    bool enforce_2r) {
  // Candidate lists: relevant features plus the virtual feature.
  std::vector<std::vector<std::pair<ObjectId, double>>> lists;
  for (size_t i = 0; i < tables.size(); ++i) {
    std::vector<std::pair<ObjectId, double>> list;
    for (const FeatureObject& t : tables[i]->All()) {
      if (t.keywords.Intersects(q.keywords[i])) {
        list.push_back({t.id, PreferenceScore(t, q.keywords[i], q.lambda)});
      }
    }
    list.push_back({kVirtualFeature, 0.0});
    lists.push_back(std::move(list));
  }
  std::vector<BruteCombo> out;
  std::vector<size_t> idx(tables.size(), 0);
  while (true) {
    BruteCombo combo;
    combo.score = 0;
    bool valid = true;
    for (size_t i = 0; i < tables.size(); ++i) {
      combo.members.push_back(lists[i][idx[i]].first);
      combo.score += lists[i][idx[i]].second;
    }
    if (enforce_2r) {
      for (size_t i = 0; i < tables.size() && valid; ++i) {
        if (combo.members[i] == kVirtualFeature) continue;
        for (size_t j = i + 1; j < tables.size() && valid; ++j) {
          if (combo.members[j] == kVirtualFeature) continue;
          double d = Distance(tables[i]->Get(combo.members[i]).pos,
                              tables[j]->Get(combo.members[j]).pos);
          if (d > 2 * q.radius) valid = false;
        }
      }
    }
    if (valid) out.push_back(std::move(combo));
    size_t d = 0;
    while (d < idx.size() && ++idx[d] == lists[d].size()) {
      idx[d] = 0;
      ++d;
    }
    if (d == idx.size()) break;
  }
  std::sort(out.begin(), out.end(),
            [](const BruteCombo& a, const BruteCombo& b) {
              return a.score > b.score;
            });
  return out;
}

class CombinationIteratorTest
    : public ::testing::TestWithParam<PullingStrategy> {};

TEST_P(CombinationIteratorTest, EmitsAllValidCombinationsInScoreOrder) {
  FeatureTable t1 = RandomFeatures(3, 60, 16);
  FeatureTable t2 = RandomFeatures(4, 50, 16);
  const Engine engine = FeatureEngine({t1, t2});
  Query q;
  q.radius = 0.1;
  q.lambda = 0.5;
  q.keywords = {KeywordSet(16, {0, 1, 2}), KeywordSet(16, {3, 4})};
  QueryStats stats;
  ExecutionSession session(&engine.page_store());
  const std::vector<const FeatureIndex*> indexes = IndexesOf(engine);
  CombinationIterator it(indexes, q, /*enforce_range_constraint=*/true,
                         GetParam(), &stats, session.scratch());
  std::vector<BruteCombo> expected = BruteCombos({&t1, &t2}, q, true);
  double prev = std::numeric_limits<double>::infinity();
  size_t count = 0;
  while (auto c = it.Next()) {
    EXPECT_LE(c->score, prev + 1e-9) << "combination out of order";
    prev = c->score;
    ASSERT_LT(count, expected.size());
    EXPECT_NEAR(c->score, expected[count].score, 1e-9);
    ++count;
  }
  EXPECT_EQ(count, expected.size());
}

TEST_P(CombinationIteratorTest, UnconstrainedEnumeratesFullProduct) {
  FeatureTable t1 = RandomFeatures(5, 12, 8);
  FeatureTable t2 = RandomFeatures(6, 10, 8);
  const Engine engine = FeatureEngine({t1, t2});
  Query q;
  q.lambda = 0.3;
  q.keywords = {KeywordSet(8, {0, 1}), KeywordSet(8, {2, 3})};
  QueryStats stats;
  ExecutionSession session(&engine.page_store());
  const std::vector<const FeatureIndex*> indexes = IndexesOf(engine);
  CombinationIterator it(indexes, q, /*enforce_range_constraint=*/false,
                         GetParam(), &stats, session.scratch());
  std::vector<BruteCombo> expected = BruteCombos({&t1, &t2}, q, false);
  size_t count = 0;
  double prev = std::numeric_limits<double>::infinity();
  while (auto c = it.Next()) {
    EXPECT_LE(c->score, prev + 1e-9);
    prev = c->score;
    ASSERT_LT(count, expected.size());
    EXPECT_NEAR(c->score, expected[count].score, 1e-9);
    ++count;
  }
  EXPECT_EQ(count, expected.size());
}

TEST_P(CombinationIteratorTest, ThreeFeatureSets) {
  FeatureTable t1 = RandomFeatures(7, 25, 8);
  FeatureTable t2 = RandomFeatures(8, 20, 8);
  FeatureTable t3 = RandomFeatures(9, 15, 8);
  const Engine engine = FeatureEngine({t1, t2, t3});
  Query q;
  q.radius = 0.15;
  q.lambda = 0.5;
  q.keywords = {KeywordSet(8, {0, 1}), KeywordSet(8, {2, 3}),
                KeywordSet(8, {4, 5})};
  QueryStats stats;
  ExecutionSession session(&engine.page_store());
  const std::vector<const FeatureIndex*> indexes = IndexesOf(engine);
  CombinationIterator it(indexes, q, true, GetParam(), &stats,
                         session.scratch());
  std::vector<BruteCombo> expected = BruteCombos({&t1, &t2, &t3}, q, true);
  size_t count = 0;
  while (auto c = it.Next()) {
    ASSERT_LT(count, expected.size());
    EXPECT_NEAR(c->score, expected[count].score, 1e-9);
    ++count;
  }
  EXPECT_EQ(count, expected.size());
}

TEST_P(CombinationIteratorTest, FirstCombinationIsPaperExample) {
  Dataset ds = ex::ExampleDataset();
  Query q = ex::TouristQuery(ds.vocabularies[0], ds.vocabularies[1]);
  const Engine engine = FeatureEngine(ds.feature_tables);
  QueryStats stats;
  ExecutionSession session(&engine.page_store());
  const std::vector<const FeatureIndex*> indexes = IndexesOf(engine);
  CombinationIterator it(indexes, q, true, GetParam(), &stats,
                         session.scratch());
  auto first = it.Next();
  ASSERT_TRUE(first.has_value());
  // {Ontario's Pizza, Royal Coffe Shop}: dist((7,6),(5,5)) = sqrt(5) <= 7.
  EXPECT_NEAR(first->score, ex::kTopHotelScore, 1e-9);
  EXPECT_EQ(ds.feature_tables[0].Get(first->members[0]).name,
            "Ontario's Pizza");
  EXPECT_EQ(ds.feature_tables[1].Get(first->members[1]).name,
            "Royal Coffe Shop");
}

TEST_P(CombinationIteratorTest, LastCombinationIsAllVirtual) {
  FeatureTable t1 = RandomFeatures(10, 10, 8);
  FeatureTable t2 = RandomFeatures(11, 10, 8);
  const Engine engine = FeatureEngine({t1, t2});
  Query q;
  q.radius = 0.05;
  q.keywords = {KeywordSet(8, {0}), KeywordSet(8, {1})};
  QueryStats stats;
  ExecutionSession session(&engine.page_store());
  const std::vector<const FeatureIndex*> indexes = IndexesOf(engine);
  CombinationIterator it(indexes, q, true, GetParam(), &stats,
                         session.scratch());
  // Members are a view valid until the next Next(): copy them out.
  std::vector<ObjectId> last_members;
  double last_score = -1.0;
  while (auto c = it.Next()) {
    last_members.assign(c->members.begin(), c->members.end());
    last_score = c->score;
  }
  EXPECT_EQ(last_members,
            (std::vector<ObjectId>{kVirtualFeature, kVirtualFeature}));
  EXPECT_EQ(last_score, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Strategies, CombinationIteratorTest,
                         ::testing::Values(PullingStrategy::kPrioritized,
                                           PullingStrategy::kRoundRobin),
                         [](const ::testing::TestParamInfo<PullingStrategy>&
                                param_info) {
                           return param_info.param ==
                                          PullingStrategy::kPrioritized
                                      ? "Prioritized"
                                      : "RoundRobin";
                         });

TEST(CombinationIteratorTest, PrioritizedPullsFewerFeatures) {
  // Ablation sanity: on a dataset where one feature set is much larger,
  // the prioritized strategy should not pull more features than
  // round-robin (Definition 5 targets the threshold-defining set).
  FeatureTable t1 = RandomFeatures(12, 2000, 16);
  FeatureTable t2 = RandomFeatures(13, 50, 16);
  const Engine engine = FeatureEngine({t1, t2});
  Query q;
  q.radius = 0.05;
  q.keywords = {KeywordSet(16, {0, 1, 2}), KeywordSet(16, {3, 4, 5})};
  auto pulls = [&](PullingStrategy s) {
    QueryStats stats;
    ExecutionSession session(&engine.page_store());
    const std::vector<const FeatureIndex*> indexes = IndexesOf(engine);
    CombinationIterator it(indexes, q, true, s, &stats, session.scratch());
    for (int i = 0; i < 5; ++i) {
      if (!it.Next()) break;
    }
    return stats.features_retrieved;
  };
  EXPECT_LE(pulls(PullingStrategy::kPrioritized),
            pulls(PullingStrategy::kRoundRobin));
}

TEST(CombinationIteratorTest, SingleFeatureSet) {
  FeatureTable t1 = RandomFeatures(14, 30, 8);
  const Engine engine = FeatureEngine({t1});
  Query q;
  q.radius = 0.1;
  q.keywords = {KeywordSet(8, {0, 1})};
  QueryStats stats;
  ExecutionSession session(&engine.page_store());
  const std::vector<const FeatureIndex*> indexes = IndexesOf(engine);
  CombinationIterator it(indexes, q, true, PullingStrategy::kPrioritized,
                         &stats, session.scratch());
  std::vector<BruteCombo> expected = BruteCombos({&t1}, q, true);
  size_t count = 0;
  while (auto c = it.Next()) {
    ASSERT_LT(count, expected.size());
    EXPECT_NEAR(c->score, expected[count].score, 1e-12);
    ++count;
  }
  EXPECT_EQ(count, expected.size());
}

}  // namespace
}  // namespace stpq
