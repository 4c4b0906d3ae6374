// Tests for rtree/: insertion, splits, bulk loading, traversal, invariants,
// and augmentation maintenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "util/rng.h"

namespace stpq {
namespace {

using Tree2 = RTree<2>;

std::vector<Tree2::Entry> RandomPoints(Rng* rng, int n) {
  std::vector<Tree2::Entry> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    Point p{rng->Uniform(), rng->Uniform()};
    out.push_back({PointRect(p), static_cast<uint32_t>(i), {}});
  }
  return out;
}

std::set<uint32_t> BruteRange(const std::vector<Tree2::Entry>& pts,
                              const Rect2& range) {
  std::set<uint32_t> out;
  for (const auto& e : pts) {
    if (range.Intersects(e.rect)) out.insert(e.id);
  }
  return out;
}

std::set<uint32_t> TreeRange(const Tree2& tree, const Rect2& range) {
  std::set<uint32_t> out;
  tree.ForEachInRange(range,
                      [&](uint32_t id, const Rect2&, const NoAug&) {
                        out.insert(id);
                      });
  return out;
}

TEST(RTreeTest, EmptyTree) {
  Tree2 tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root_id(), kInvalidNodeId);
  EXPECT_EQ(TreeRange(tree, MakeRect2(0, 0, 1, 1)).size(), 0u);
}

TEST(RTreeTest, SingleInsert) {
  Tree2 tree;
  tree.Insert(PointRect({0.5, 0.5}), 42);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  auto hits = TreeRange(tree, MakeRect2(0.4, 0.4, 0.6, 0.6));
  EXPECT_EQ(hits, std::set<uint32_t>{42});
  EXPECT_TRUE(TreeRange(tree, MakeRect2(0.6, 0.6, 0.7, 0.7)).empty());
}

class RTreeInsertTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeInsertTest, InsertMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(n);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, n);
  RTreeOptions opts;
  opts.max_entries = 8;
  Tree2 tree(opts);
  for (const auto& e : pts) tree.Insert(e.rect, e.id);
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  EXPECT_TRUE(tree.CheckInvariants(
      [](const NoAug&, const NoAug&) { return true; }));
  for (int q = 0; q < 25; ++q) {
    Rect2 range = MakeRect2(rng.Uniform(), rng.Uniform(), rng.Uniform(),
                            rng.Uniform());
    EXPECT_EQ(TreeRange(tree, range), BruteRange(pts, range));
  }
}

TEST_P(RTreeInsertTest, BulkLoadHilbertMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(n + 1);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, n);
  RTreeOptions opts;
  opts.max_entries = 8;
  Tree2 tree(opts);
  std::vector<Tree2::Entry> sorted = pts;
  SortByHilbertKey<2, NoAug>(&sorted, ComputeDomain<2, NoAug>(sorted));
  tree.BulkLoadSorted(sorted);
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  EXPECT_TRUE(tree.CheckInvariants(
      [](const NoAug&, const NoAug&) { return true; }));
  for (int q = 0; q < 25; ++q) {
    Rect2 range = MakeRect2(rng.Uniform(), rng.Uniform(), rng.Uniform(),
                            rng.Uniform());
    EXPECT_EQ(TreeRange(tree, range), BruteRange(pts, range));
  }
}

TEST_P(RTreeInsertTest, BulkLoadStrMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(n + 2);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, n);
  RTreeOptions opts;
  opts.max_entries = 8;
  Tree2 tree(opts);
  std::vector<Tree2::Entry> sorted = pts;
  SortSTR<2, NoAug>(&sorted, opts.max_entries);
  tree.BulkLoadSorted(sorted);
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  for (int q = 0; q < 25; ++q) {
    Rect2 range = MakeRect2(rng.Uniform(), rng.Uniform(), rng.Uniform(),
                            rng.Uniform());
    EXPECT_EQ(TreeRange(tree, range), BruteRange(pts, range));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeInsertTest,
                         ::testing::Values(1, 7, 8, 9, 64, 257, 1000, 4096),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           // Appended, not "n" + ...: see hilbert_test.cc.
                           std::string name = "n";
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(RTreeTest, HeightGrowsLogarithmically) {
  RTreeOptions opts;
  opts.max_entries = 16;
  Tree2 tree(opts);
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    tree.Insert(PointRect({rng.Uniform(), rng.Uniform()}), i);
  }
  // 5000 points with fan-out 16 and min fill ~6: height 3-5.
  EXPECT_GE(tree.height(), 3u);
  EXPECT_LE(tree.height(), 6u);
}

TEST(RTreeTest, BulkLoadPacksTighter) {
  Rng rng(10);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, 2000);
  RTreeOptions opts;
  opts.max_entries = 32;
  Tree2 inserted(opts), packed(opts);
  for (const auto& e : pts) inserted.Insert(e.rect, e.id);
  std::vector<Tree2::Entry> sorted = pts;
  SortByHilbertKey<2, NoAug>(&sorted, ComputeDomain<2, NoAug>(sorted));
  packed.BulkLoadSorted(sorted);
  EXPECT_LT(packed.node_count(), inserted.node_count());
}

TEST(RTreeTest, BulkLoadFillFactor) {
  Rng rng(11);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, 1000);
  RTreeOptions opts;
  opts.max_entries = 20;
  Tree2 full(opts), seventy(opts);
  full.BulkLoadSorted(pts, 1.0);
  seventy.BulkLoadSorted(pts, 0.7);
  EXPECT_GT(seventy.node_count(), full.node_count());
}

TEST(RTreeTest, BulkLoadReplacesInsertedContent) {
  // A bulk load replaces the whole tree: the inserted records' nodes go,
  // and the packed tree holds exactly the loaded records.
  Rng rng(19);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, 200);
  RTreeOptions opts;
  opts.max_entries = 8;
  Tree2 tree(opts);
  for (int i = 0; i < 100; ++i) tree.Insert(pts[i].rect, pts[i].id);
  tree.BulkLoadSorted(pts);
  EXPECT_EQ(tree.size(), 200u);
  EXPECT_TRUE(tree.CheckInvariants(
      [](const NoAug&, const NoAug&) { return true; }));
  std::set<uint32_t> all;
  for (uint32_t i = 0; i < 200; ++i) all.insert(i);
  EXPECT_EQ(TreeRange(tree, MakeRect2(0, 0, 1, 1)), all);
}

TEST(RTreeTest, DuplicatePointsAllRetrievable) {
  RTreeOptions opts;
  opts.max_entries = 4;
  Tree2 tree(opts);
  for (uint32_t i = 0; i < 50; ++i) tree.Insert(PointRect({0.5, 0.5}), i);
  auto hits = TreeRange(tree, MakeRect2(0.5, 0.5, 0.5, 0.5));
  EXPECT_EQ(hits.size(), 50u);
}

// Augmentation: max-value summaries must propagate through inserts/splits.
struct MaxAug {
  double value = 0.0;
  static MaxAug Merge(const MaxAug& a, const MaxAug& b) {
    return {std::max(a.value, b.value)};
  }
};

TEST(RTreeTest, AugmentationMaintainedUnderInsert) {
  RTreeOptions opts;
  opts.max_entries = 4;  // force many splits
  RTree<2, MaxAug> tree(opts);
  Rng rng(14);
  for (uint32_t i = 0; i < 300; ++i) {
    tree.Insert(PointRect({rng.Uniform(), rng.Uniform()}), i,
                MaxAug{rng.Uniform()});
  }
  EXPECT_TRUE(tree.CheckInvariants([](const MaxAug& a, const MaxAug& b) {
    return a.value == b.value;
  }));
}

TEST(RTreeTest, AugmentationMaintainedUnderBulkLoad) {
  RTreeOptions opts;
  opts.max_entries = 8;
  RTree<2, MaxAug> tree(opts);
  Rng rng(15);
  std::vector<RTree<2, MaxAug>::Entry> pts;
  for (uint32_t i = 0; i < 500; ++i) {
    pts.push_back({PointRect({rng.Uniform(), rng.Uniform()}), i,
                   MaxAug{rng.Uniform()}});
  }
  tree.BulkLoadSorted(pts);
  EXPECT_TRUE(tree.CheckInvariants([](const MaxAug& a, const MaxAug& b) {
    return a.value == b.value;
  }));
}

TEST(RTreeTest, FourDimensionalTree) {
  RTreeOptions opts;
  opts.max_entries = 8;
  RTree<4> tree(opts);
  Rng rng(16);
  std::vector<std::array<double, 4>> pts;
  for (uint32_t i = 0; i < 400; ++i) {
    std::array<double, 4> p{rng.Uniform(), rng.Uniform(), rng.Uniform(),
                            rng.Uniform()};
    pts.push_back(p);
    tree.Insert(Rect4::FromPoint(p), i);
  }
  Rect4 range{{0.2, 0.2, 0.2, 0.2}, {0.7, 0.7, 0.7, 0.7}};
  std::set<uint32_t> got;
  tree.ForEachInRange(range, [&](uint32_t id, const Rect4&, const NoAug&) {
    got.insert(id);
  });
  std::set<uint32_t> expect;
  for (uint32_t i = 0; i < pts.size(); ++i) {
    if (range.Contains(pts[i])) expect.insert(i);
  }
  EXPECT_EQ(got, expect);
}

TEST(FanOutTest, DerivedFromPageSize) {
  // 2-D, no augmentation: entry = 36 bytes; (4096-16)/36 = 113.
  EXPECT_EQ(FanOutForPage(4096, 2, 0), 113u);
  // Larger aug shrinks fan-out; tiny pages floor at 4.
  EXPECT_LT(FanOutForPage(4096, 4, 40), FanOutForPage(4096, 2, 0));
  EXPECT_EQ(FanOutForPage(64, 4, 64), 4u);
}

TEST(BulkLoadTest, HilbertOrderingIsSpatiallyLocal) {
  // Consecutive records in Hilbert order should usually be close: the mean
  // hop distance must be far below the mean distance of a random pairing.
  Rng rng(18);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, 2000);
  std::vector<Tree2::Entry> sorted = pts;
  SortByHilbertKey<2, NoAug>(&sorted, ComputeDomain<2, NoAug>(sorted));
  auto mean_hop = [](const std::vector<Tree2::Entry>& v) {
    double sum = 0;
    for (size_t i = 1; i < v.size(); ++i) {
      sum += Distance({v[i - 1].rect.lo[0], v[i - 1].rect.lo[1]},
                      {v[i].rect.lo[0], v[i].rect.lo[1]});
    }
    return sum / (v.size() - 1);
  };
  EXPECT_LT(mean_hop(sorted), 0.25 * mean_hop(pts));
}

}  // namespace
}  // namespace stpq
