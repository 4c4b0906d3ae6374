// Tests for util/: Status, Result, TopK, Rng, QueryStats.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "util/metrics.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/topk.h"

namespace stpq {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

Status FailsThrough() {
  STPQ_RETURN_NOT_OK(Status::NotFound("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  Status s = FailsThrough();
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 41);
  EXPECT_EQ(r.TakeValue(), 41);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(TopKTest, KeepsBestK) {
  std::vector<TopK<int>::Scored> storage;
  TopK<int> topk(3, &storage);
  for (int i = 0; i < 10; ++i) topk.Push(static_cast<double>(i), i);
  auto out = topk.SortDescending();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].item, 9);
  EXPECT_EQ(out[1].item, 8);
  EXPECT_EQ(out[2].item, 7);
}

TEST(TopKTest, ThresholdIsKthBest) {
  std::vector<TopK<int>::Scored> storage;
  TopK<int> topk(2, &storage);
  EXPECT_FALSE(topk.Full());
  EXPECT_EQ(topk.Threshold(), 0.0);
  topk.Push(5.0, 1);
  EXPECT_FALSE(topk.Full());
  topk.Push(3.0, 2);
  EXPECT_TRUE(topk.Full());
  EXPECT_EQ(topk.Threshold(), 3.0);
  topk.Push(4.0, 3);  // evicts 3.0
  EXPECT_EQ(topk.Threshold(), 4.0);
  topk.Push(1.0, 4);  // below threshold, ignored
  EXPECT_EQ(topk.Threshold(), 4.0);
}

TEST(TopKTest, CustomFloor) {
  std::vector<TopK<int>::Scored> storage;
  TopK<int> topk(5, &storage, -1.0);
  EXPECT_EQ(topk.Threshold(), -1.0);
}

TEST(TopKTest, ZeroKIsEmpty) {
  std::vector<TopK<int>::Scored> storage;
  TopK<int> topk(0, &storage);
  topk.Push(1.0, 1);
  EXPECT_EQ(topk.Size(), 0u);
}

TEST(TopKTest, FewerItemsThanK) {
  std::vector<TopK<int>::Scored> storage;
  TopK<int> topk(10, &storage);
  topk.Push(2.0, 1);
  topk.Push(1.0, 2);
  auto out = topk.SortDescending();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].score, 2.0);
}

TEST(TopKTest, ZeroKThresholdStaysFloor) {
  std::vector<TopK<int>::Scored> storage;
  TopK<int> topk(0, &storage, 7.5);
  topk.Push(9.0, 1);
  EXPECT_EQ(topk.Size(), 0u);
  EXPECT_EQ(topk.Threshold(), 7.5);
  EXPECT_TRUE(topk.SortDescending().empty());
}

TEST(TopKTest, UnderfilledNonzeroFloorKeepsFloorThreshold) {
  std::vector<TopK<int>::Scored> storage;
  TopK<int> topk(3, &storage, -2.5);
  EXPECT_EQ(topk.Threshold(), -2.5);
  topk.Push(1.0, 1);
  topk.Push(0.5, 2);
  // Still under-filled: the pruning threshold must stay the floor, not
  // some partial k-th score.
  EXPECT_FALSE(topk.Full());
  EXPECT_EQ(topk.Threshold(), -2.5);
  topk.Push(-3.0, 3);  // below the floor but still among the best 3
  EXPECT_TRUE(topk.Full());
  EXPECT_EQ(topk.Threshold(), -3.0);
  auto out = topk.SortDescending();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].item, 3);
}

TEST(TopKTest, DuplicateScoresAtThresholdDoNotEvict) {
  std::vector<TopK<int>::Scored> storage;
  TopK<int> topk(2, &storage);
  topk.Push(3.0, 1);
  topk.Push(3.0, 2);
  topk.Push(3.0, 3);  // ties the threshold exactly: must not displace
  EXPECT_EQ(topk.Threshold(), 3.0);
  auto out = topk.SortDescending();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ((std::set<int>{out[0].item, out[1].item}),
            (std::set<int>{1, 2}));
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Uniform() != b.Uniform()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(0.25, 0.75);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 0.75);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 5));
  EXPECT_EQ(seen, (std::set<uint64_t>{3, 4, 5}));
}

TEST(RngTest, ClampedGaussianRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.ClampedGaussian(0.5, 10.0, 0.0, 1.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(RngTest, ZipfRankZeroMostFrequent) {
  Rng rng(5);
  std::vector<int> counts(16, 0);
  for (int i = 0; i < 20000; ++i) {
    uint32_t v = rng.Zipf(16, 0.8);
    ASSERT_LT(v, 16u);
    ++counts[v];
  }
  EXPECT_GT(counts[0], counts[5]);
  EXPECT_GT(counts[0], counts[15]);
}

/// Fills every QueryStats field with a distinct value; the contract tests
/// below use this as the single enumeration of the struct's fields.  When
/// a field is added, metrics.cc's sizeof static_assert fails first; extend
/// this function and the expectations together.
QueryStats DistinctStats() {
  QueryStats s;
  s.object_index_reads = 101;
  s.feature_index_reads = 102;
  s.buffer_hits = 103;
  s.heap_pushes = 104;
  s.features_retrieved = 105;
  s.combinations_generated = 106;
  s.combinations_emitted = 107;
  s.objects_scored = 108;
  s.voronoi_cells = 109;
  s.voronoi_clip_features = 110;
  s.voronoi_reads = 111;
  s.cpu_ms = 114.5;
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    s.phase_ms[i] = 120.5 + static_cast<double>(i);
  }
  // Traversal profile: distinct values in every level slot of every tree.
  uint64_t v = 300;
  auto fill_counts = [&v](TreeTraversalCounts& counts) {
    for (size_t l = 0; l < TreeTraversalCounts::kNumLevels; ++l) {
      counts.visited[l] = v++;
      counts.pruned[l] = v++;
      counts.descended[l] = v++;
    }
  };
  fill_counts(s.traversal.object_tree);
  for (size_t f = 0; f < kMaxProfiledFeatureSets; ++f) {
    fill_counts(s.traversal.feature_tree[f]);
  }
  return s;
}

TEST(QueryStatsContract, ToStringMentionsEveryCounter) {
  std::string str = DistinctStats().ToString();
  for (const char* needle :
       {"obj=101", "feat=102", "hits=103", "heap_pushes=104",
        "features=105", "combos=107/106", "scored=108", "cpu_ms=114.5",
        "cells=109", "clip_features=110", "reads=111", "combination=120.5", "component_score=121.5",
        "object_retrieval=122.5", "voronoi=123.5", "obj_visited=",
        "obj_pruned=", "obj_descended=", "feat_visited=", "feat_pruned=",
        "feat_descended="}) {
    EXPECT_NE(str.find(needle), std::string::npos)
        << "'" << needle << "' missing from: " << str;
  }
}

TEST(QueryStatsContract, PlusEqualsCoversEveryField) {
  QueryStats sum;  // zero-initialized
  const QueryStats b = DistinctStats();
  sum += b;
  // Starting from zero, += must reproduce b exactly.  QueryStats has no
  // padding (metrics.cc's sizeof guard), so bytewise equality covers every
  // field — including any newly added one that += forgot to accumulate.
  EXPECT_EQ(std::memcmp(&sum, &b, sizeof(QueryStats)), 0)
      << "operator+= does not cover every QueryStats field";
  sum += b;
  EXPECT_EQ(sum.object_index_reads, 202u);
  EXPECT_EQ(sum.voronoi_reads, 222u);
  EXPECT_DOUBLE_EQ(sum.cpu_ms, 229.0);
  EXPECT_DOUBLE_EQ(sum.phase_ms[0], 241.0);
  EXPECT_EQ(sum.traversal.object_tree.visited[0], 600u);
  EXPECT_EQ(sum.traversal.feature_tree[kMaxProfiledFeatureSets - 1]
                .descended[TreeTraversalCounts::kNumLevels - 1],
            2u * (300 + (1 + kMaxProfiledFeatureSets) * 3 *
                            TreeTraversalCounts::kNumLevels - 1));
}

TEST(TraversalProfileTest, RecordVisitClampsAndTotals) {
  TreeTraversalCounts counts;
  counts.RecordVisit(0, 2, 3);
  counts.RecordVisit(1, 1, 0);
  // Levels beyond the last slot fold into it instead of writing OOB.
  counts.RecordVisit(TreeTraversalCounts::kNumLevels + 5, 7, 11);
  EXPECT_EQ(counts.visited[0], 1u);
  EXPECT_EQ(counts.visited[1], 1u);
  EXPECT_EQ(counts.visited[TreeTraversalCounts::kNumLevels - 1], 1u);
  EXPECT_EQ(counts.TotalVisited(), 3u);
  EXPECT_EQ(counts.TotalPruned(), 10u);
  EXPECT_EQ(counts.TotalDescended(), 14u);
}

TEST(TraversalProfileTest, FeatureTreeOrdinalClamps) {
  TraversalProfile profile;
  profile.FeatureTree(0).RecordVisit(0, 1, 1);
  // Out-of-range ordinals land in the last profiled slot, never OOB.
  profile.FeatureTree(kMaxProfiledFeatureSets + 100).RecordVisit(0, 5, 0);
  EXPECT_EQ(profile.feature_tree[0].TotalVisited(), 1u);
  EXPECT_EQ(
      profile.feature_tree[kMaxProfiledFeatureSets - 1].TotalVisited(), 1u);
  EXPECT_EQ(profile.FeatureVisited(), 2u);
  EXPECT_EQ(profile.FeaturePruned(), 6u);
  EXPECT_EQ(profile.TotalVisited(), 2u);
  EXPECT_EQ(profile.TotalDescended(), 1u);
}

TEST(QueryStatsTest, PhaseAccounting) {
  QueryStats s;
  s.cpu_ms = 10.0;
  s.phase_ms[static_cast<size_t>(QueryPhase::kCombination)] = 2.0;
  s.phase_ms[static_cast<size_t>(QueryPhase::kVoronoi)] = 3.0;
  EXPECT_DOUBLE_EQ(s.PhaseMillis(QueryPhase::kCombination), 2.0);
  EXPECT_DOUBLE_EQ(s.PhaseMillis(QueryPhase::kComponentScore), 0.0);
  EXPECT_DOUBLE_EQ(s.TracedMillis(), 5.0);
  EXPECT_DOUBLE_EQ(s.UntracedMillis(), 5.0);
  s.cpu_ms = 1.0;  // timer noise: untraced clamps at zero, never negative
  EXPECT_DOUBLE_EQ(s.UntracedMillis(), 0.0);
  EXPECT_STREQ(QueryPhaseName(QueryPhase::kCombination), "combination");
  EXPECT_STREQ(QueryPhaseName(QueryPhase::kComponentScore),
               "component_score");
  EXPECT_STREQ(QueryPhaseName(QueryPhase::kObjectRetrieval),
               "object_retrieval");
  EXPECT_STREQ(QueryPhaseName(QueryPhase::kVoronoi), "voronoi");
}

TEST(QueryStatsTest, AccumulatesAndReports) {
  QueryStats a;
  a.object_index_reads = 3;
  a.feature_index_reads = 7;
  a.cpu_ms = 1.5;
  QueryStats b;
  b.object_index_reads = 2;
  b.voronoi_cells = 1;
  b.cpu_ms = 0.5;
  a += b;
  EXPECT_EQ(a.object_index_reads, 5u);
  EXPECT_EQ(a.TotalReads(), 12u);
  EXPECT_EQ(a.voronoi_cells, 1u);
  EXPECT_DOUBLE_EQ(a.cpu_ms, 2.0);
  EXPECT_DOUBLE_EQ(a.IoMillis(0.1), 1.2);
  EXPECT_NE(a.ToString().find("reads=12"), std::string::npos);
}

}  // namespace
}  // namespace stpq
