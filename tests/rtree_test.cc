// Tests for rtree/: the Hilbert sort, the packer and the page images it
// writes (shape, fill, parent summaries, range retrieval), and fan-out
// sizing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "index/paged_tree.h"
#include "rtree/bulk_load.h"
#include "rtree/node_page.h"
#include "rtree/rtree.h"
#include "util/rng.h"

namespace stpq {
namespace {

using Entry2 = TreeEntry<2>;

/// Slot padding of the test images; wide enough for every fan-out here.
constexpr uint32_t kPageSize = 512;

std::vector<Entry2> RandomPoints(Rng* rng, int n) {
  std::vector<Entry2> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    Point p{rng->Uniform(), rng->Uniform()};
    out.push_back({PointRect(p), static_cast<uint32_t>(i), {}});
  }
  return out;
}

/// Sorts `records` by Hilbert key and packs them into a page image that a
/// PagedTree of its own serves.
template <typename Aug>
PagedTree Pack(std::vector<TreeEntry<2, Aug>> records, uint32_t max_entries,
               const PageLayout& layout, double fill = 1.0) {
  SortByHilbertKey(&records);
  return PagedTree(PackTree(std::move(records), max_entries, fill, layout,
                            kPageSize),
                   layout, /*base=*/0);
}

std::set<uint32_t> BruteRange(const std::vector<Entry2>& pts,
                              const Rect2& range) {
  std::set<uint32_t> out;
  for (const auto& e : pts) {
    if (range.Intersects(e.rect)) out.insert(e.id);
  }
  return out;
}

/// Leaf record ids whose rect intersects `range`, read from the pages.
std::set<uint32_t> PagedRange(const PagedTree& tree, const Rect2& range) {
  std::set<uint32_t> out;
  if (tree.root_id() == kInvalidNodeId) return out;
  std::vector<NodeId> stack{tree.root_id()};
  while (!stack.empty()) {
    const NodeView node = tree.PeekNode(stack.back());
    stack.pop_back();
    for (uint32_t i = 0; i < node.size(); ++i) {
      if (!range.Intersects(node.mbr(i))) continue;
      if (node.IsLeaf()) {
        out.insert(node.id(i));
      } else {
        stack.push_back(node.id(i));
      }
    }
  }
  return out;
}

TEST(PackTreeTest, EmptyInputPacksNoNodes) {
  const PagedTree tree = Pack<NoAug>({}, 8, PageLayout{});
  EXPECT_EQ(tree.root_id(), kInvalidNodeId);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.node_count(), 0u);
  EXPECT_TRUE(PagedRange(tree, MakeRect2(0, 0, 1, 1)).empty());
}

class PackedRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(PackedRangeTest, RangeMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(n + 1);
  std::vector<Entry2> pts = RandomPoints(&rng, n);
  const PagedTree tree = Pack(pts, 8, PageLayout{});
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  // Leaves first, the root last: the root is the highest node id.
  EXPECT_EQ(tree.root_id(), tree.node_count() - 1);
  EXPECT_EQ(tree.PeekNode(tree.root_id()).level() + 1u, tree.height());
  for (int q = 0; q < 25; ++q) {
    Rect2 range = MakeRect2(rng.Uniform(), rng.Uniform(), rng.Uniform(),
                            rng.Uniform());
    EXPECT_EQ(PagedRange(tree, range), BruteRange(pts, range));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackedRangeTest,
                         ::testing::Values(1, 7, 8, 9, 64, 257, 1000, 4096),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           // Appended, not "n" + ...: see hilbert_test.cc.
                           std::string name = "n";
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(PackTreeTest, FillFactorSetsNodeOccupancy) {
  Rng rng(11);
  std::vector<Entry2> pts = RandomPoints(&rng, 1000);
  const PagedTree full = Pack(pts, 20, PageLayout{}, 1.0);
  const PagedTree partial = Pack(pts, 20, PageLayout{}, 0.75);
  EXPECT_GT(partial.node_count(), full.node_count());
  // 1000 records: 50 full leaves at fill 1.0; at 0.75, 67 leaves of 15
  // (20 x 0.75), the last one holding the 10 left over.
  EXPECT_EQ(full.PeekNode(0).size(), 20u);
  EXPECT_EQ(full.PeekNode(50).level(), 1u);
  EXPECT_EQ(partial.PeekNode(0).size(), 15u);
  EXPECT_EQ(partial.PeekNode(66).size(), 10u);
  EXPECT_EQ(partial.PeekNode(67).level(), 1u);
}

// Augmentation: every parent entry must be the fold of its child node.
struct MaxAug {
  double max_score = 0.0;

  const std::vector<uint64_t>& words() const {
    static const std::vector<uint64_t> kNone;
    return kNone;
  }
  static MaxAug Merge(const MaxAug& a, const MaxAug& b) {
    return {std::max(a.max_score, b.max_score)};
  }
};

TEST(PackTreeTest, ParentEntriesFoldTheirChildren) {
  Rng rng(15);
  std::vector<TreeEntry<2, MaxAug>> pts;
  for (uint32_t i = 0; i < 500; ++i) {
    pts.push_back({PointRect({rng.Uniform(), rng.Uniform()}), i,
                   MaxAug{rng.Uniform()}});
  }
  const PageLayout layout{0, /*has_score=*/true};
  const PagedTree tree = Pack(pts, 4, layout);  // fan-out 4: deep tree
  ASSERT_GE(tree.height(), 4u);
  uint64_t internal_entries = 0;
  std::vector<NodeId> stack{tree.root_id()};
  while (!stack.empty()) {
    const NodeView node = tree.PeekNode(stack.back());
    stack.pop_back();
    if (node.IsLeaf()) continue;
    for (uint32_t i = 0; i < node.size(); ++i) {
      const NodeView child = tree.PeekNode(node.id(i));
      ASSERT_EQ(child.level() + 1u, node.level());
      Rect2 mbr = child.mbr(0);
      double max_score = child.score(0);
      for (uint32_t j = 1; j < child.size(); ++j) {
        mbr.Enlarge(child.mbr(j));
        max_score = std::max(max_score, child.score(j));
      }
      EXPECT_EQ(node.mbr(i).lo, mbr.lo);
      EXPECT_EQ(node.mbr(i).hi, mbr.hi);
      EXPECT_EQ(node.score(i), max_score);
      ++internal_entries;
      stack.push_back(node.id(i));
    }
  }
  // Every node but the root has one parent entry.
  EXPECT_EQ(internal_entries, tree.node_count() - 1u);
}

TEST(PackTreeTest, DuplicatePointsAllRetrievable) {
  std::vector<Entry2> pts;
  for (uint32_t i = 0; i < 50; ++i) {
    pts.push_back({PointRect({0.5, 0.5}), i, {}});
  }
  const PagedTree tree = Pack(pts, 4, PageLayout{});
  EXPECT_EQ(PagedRange(tree, MakeRect2(0.5, 0.5, 0.5, 0.5)).size(), 50u);
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
  std::vector<Entry2> pts = RandomPoints(&rng, 2000);
  std::vector<Entry2> sorted = pts;
  SortByHilbertKey(&sorted);
  auto mean_hop = [](const std::vector<Entry2>& v) {
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
