// Tests for rtree/: the Hilbert sort, the packer and the page images it
// writes (shape, fill, parent summaries, range retrieval), and the page
// layout's fan-out, slot width and spill row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>

#include "index/paged_tree.h"
#include "rtree/bulk_load.h"
#include "rtree/node_page.h"
#include "rtree/rtree.h"
#include "util/rng.h"

namespace stpq {
namespace {

/// The object tree's page layout: an id and a 2-D rect per entry.
const PageLayout kPlain;

/// The page size on which `layout` holds exactly `fan_out` entries.
uint32_t PageFor(const PageLayout& layout, uint32_t fan_out) {
  return kNodeHeaderBytes + kSlotChecksumBytes +
         fan_out * layout.entry_bytes();
}

std::vector<PageEntry> RandomPoints(Rng* rng, int n) {
  std::vector<PageEntry> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    Point p{rng->Uniform(), rng->Uniform()};
    out.push_back({PointRect(p), static_cast<uint32_t>(i), 0.0, {}});
  }
  return out;
}

/// Each entry's spatial sort point: the center of its MBR.
std::vector<SortPoint> CenterPoints(const std::vector<PageEntry>& entries) {
  std::vector<SortPoint> points;
  for (const PageEntry& e : entries) {
    points.push_back(SpatialSortPoint({e.mbr.Center(0), e.mbr.Center(1)}));
  }
  return points;
}

/// Sorts `records` by the Hilbert key of their centers and packs them, at
/// fan-out `fan_out`, into a page image that a PagedTree of its own
/// serves.
PagedTree Pack(std::vector<PageEntry> records, uint32_t fan_out,
               const PageLayout& layout, double fill = 1.0) {
  SortByHilbertKey(&records, CenterPoints(records));
  return PagedTree(PackTree(std::move(records), layout,
                            PageFor(layout, fan_out), fill),
                   layout, /*base=*/0);
}

std::set<uint32_t> BruteRange(const std::vector<PageEntry>& pts,
                              const Rect2& range) {
  std::set<uint32_t> out;
  for (const auto& e : pts) {
    if (range.Intersects(e.mbr)) out.insert(e.id);
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
  const PagedTree tree = Pack({}, 8, kPlain);
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
  std::vector<PageEntry> pts = RandomPoints(&rng, n);
  const PagedTree tree = Pack(pts, 8, kPlain);
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
  std::vector<PageEntry> pts = RandomPoints(&rng, 1000);
  const PagedTree full = Pack(pts, 20, kPlain, 1.0);
  const PagedTree partial = Pack(pts, 20, kPlain, 0.75);
  EXPECT_GT(partial.node_count(), full.node_count());
  // 1000 records: 50 full leaves at fill 1.0; at 0.75, 67 leaves of 15
  // (20 x 0.75), the last one holding the 10 left over.
  EXPECT_EQ(full.PeekNode(0).size(), 20u);
  EXPECT_EQ(full.PeekNode(50).level(), 1u);
  EXPECT_EQ(partial.PeekNode(0).size(), 15u);
  EXPECT_EQ(partial.PeekNode(66).size(), 10u);
  EXPECT_EQ(partial.PeekNode(67).level(), 1u);
}

// Summaries: every parent entry must be the fold of its child node.
TEST(PackTreeTest, ParentEntriesFoldTheirChildren) {
  Rng rng(15);
  const PageLayout layout{/*keyword_bits=*/100, /*has_score=*/true};
  std::vector<PageEntry> pts;
  for (uint32_t i = 0; i < 500; ++i) {
    PageEntry e{PointRect({rng.Uniform(), rng.Uniform()}), i, rng.Uniform(),
                std::vector<uint64_t>(layout.keyword_words(), 0)};
    const auto bit = static_cast<uint32_t>(rng.UniformInt(0, 99));
    e.keywords[bit / 64] |= uint64_t{1} << (bit % 64);
    pts.push_back(std::move(e));
  }
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
      std::vector<uint64_t> words(layout.keyword_words(), 0);
      for (uint32_t j = 0; j < child.size(); ++j) {
        mbr.Enlarge(child.mbr(j));
        max_score = std::max(max_score, child.score(j));
        for (uint32_t w = 0; w < words.size(); ++w) {
          words[w] |= child.keyword_word(j, w);
        }
      }
      EXPECT_EQ(node.mbr(i).lo, mbr.lo);
      EXPECT_EQ(node.mbr(i).hi, mbr.hi);
      EXPECT_EQ(node.score(i), max_score);
      for (uint32_t w = 0; w < words.size(); ++w) {
        EXPECT_EQ(node.keyword_word(i, w), words[w]);
      }
      ++internal_entries;
      stack.push_back(node.id(i));
    }
  }
  // Every node but the root has one parent entry.
  EXPECT_EQ(internal_entries, tree.node_count() - 1u);
}

TEST(PackTreeTest, DuplicatePointsAllRetrievable) {
  std::vector<PageEntry> pts;
  for (uint32_t i = 0; i < 50; ++i) {
    pts.push_back({PointRect({0.5, 0.5}), i, 0.0, {}});
  }
  const PagedTree tree = Pack(pts, 4, kPlain);
  EXPECT_EQ(PagedRange(tree, MakeRect2(0.5, 0.5, 0.5, 0.5)).size(), 50u);
}

TEST(PageLayoutTest, FanOutAndSlotFollowTheEntryWidth) {
  // Object tree: entry = 36 bytes; (4096 - 16) / 36 = 113, in one page.
  EXPECT_EQ(kPlain.entry_bytes(), 36u);
  EXPECT_EQ(kPlain.max_entries(4096), 113u);
  EXPECT_EQ(kPlain.slot_bytes(4096), 4096u);
  // A feature tree charges e.s and every keyword word: 260 signature
  // bits are 5 words, so 84 bytes and (4096 - 16) / 84 = 48 entries.
  const PageLayout ir2{260, /*has_score=*/true};
  EXPECT_EQ(ir2.entry_bytes(), 84u);
  EXPECT_EQ(ir2.max_entries(4096), 48u);
  EXPECT_EQ(ir2.slot_bytes(4096), 4096u);
  // Tiny pages floor at 4 entries, and only then does a node span pages.
  EXPECT_EQ(ir2.max_entries(128), 4u);
  EXPECT_EQ(ir2.slot_bytes(128), 384u);  // 8 + 4 x 84 = 344 bytes
}

TEST(PageLayoutTest, SpillRowIsTheEntryInItsPageColumns) {
  const PageLayout layout{70, /*has_score=*/true};
  const PageEntry e{MakeRect2(0.25, 0.5, 0.75, 1.0), 42, 0.625,
                    {0x0123456789abcdefULL, 0x3fULL}};
  std::vector<uint8_t> row(layout.entry_bytes());
  EncodeEntryRow(e, layout, row.data());
  const PageEntry back = DecodeEntryRow(row.data(), layout);
  EXPECT_EQ(back.mbr.lo, e.mbr.lo);
  EXPECT_EQ(back.mbr.hi, e.mbr.hi);
  EXPECT_EQ(back.id, e.id);
  EXPECT_EQ(back.score, e.score);
  EXPECT_EQ(back.keywords, e.keywords);
  // Column order, as on a page: keyword words, e.s, id, MBR.
  uint64_t word = 0;
  std::memcpy(&word, row.data() + 8, sizeof(word));
  EXPECT_EQ(word, 0x3fULL);
  uint32_t id = 0;
  std::memcpy(&id, row.data() + 24, sizeof(id));
  EXPECT_EQ(id, 42u);
}

TEST(BulkLoadTest, HilbertOrderingIsSpatiallyLocal) {
  // Consecutive records in Hilbert order should usually be close: the mean
  // hop distance must be far below the mean distance of a random pairing.
  Rng rng(18);
  std::vector<PageEntry> pts = RandomPoints(&rng, 2000);
  std::vector<PageEntry> sorted = pts;
  SortByHilbertKey(&sorted, CenterPoints(sorted));
  auto mean_hop = [](const std::vector<PageEntry>& v) {
    double sum = 0;
    for (size_t i = 1; i < v.size(); ++i) {
      sum += Distance({v[i - 1].mbr.lo[0], v[i - 1].mbr.lo[1]},
                      {v[i].mbr.lo[0], v[i].mbr.lo[1]});
    }
    return sum / (v.size() - 1);
  };
  EXPECT_LT(mean_hop(sorted), 0.25 * mean_hop(pts));
}

}  // namespace
}  // namespace stpq
