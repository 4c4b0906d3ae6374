// Tests for debug/validate.h: every deep validator accepts freshly built
// structures and names the violated invariant after deliberate corruption.
// The negative tests corrupt node pages through the *_for_test accessors
// (editing them with NodePageWriter) and expect a descriptive non-OK
// Status — never a crash.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <filesystem>

#include "core/engine.h"
#include "debug/validate.h"
#include "gen/synthetic.h"
#include "index/ir2_tree.h"
#include "index/object_index.h"
#include "index/srt_index.h"
#include "rtree/bulk_load.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace stpq {
namespace {

/// Small clustered dataset; page_size 512 keeps the fan-out low so the
/// trees have real internal levels at a few hundred records.
Dataset MakeDataset() {
  SyntheticConfig cfg;
  cfg.num_objects = 300;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 24;
  cfg.num_clusters = 40;
  return GenerateSynthetic(cfg);
}

IndexBuildParams SmallPages() {
  IndexBuildParams opts;
  opts.page_size_bytes = 512;
  return opts;
}

/// Id of the leftmost leaf node.
NodeId FirstLeaf(const PagedTree& tree) {
  NodeId nid = tree.root_id();
  while (!tree.PeekNode(nid).IsLeaf()) {
    nid = tree.PeekNode(nid).id(0);
  }
  return nid;
}

/// Editor of node `id`'s page in an index that owns its pages.
NodePageWriter EditNode(PagedTree& tree, NodeId id) {
  return NodePageWriter(tree.MutablePageForTest(id), tree.layout());
}

// ----------------------------------------------------------- positive paths

TEST(SrtValidatorTest, AcceptsFreshIndex) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  Status st = ValidateSrtIndex(index);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(Ir2ValidatorTest, AcceptsFreshIndex) {
  Dataset ds = MakeDataset();
  Ir2Tree index(&ds.feature_tables[0], SmallPages());
  Status st = ValidateIr2Tree(index);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ObjectIndexValidatorTest, AcceptsFreshIndex) {
  Dataset ds = MakeDataset();
  IndexBuildParams opts;
  opts.page_size_bytes = 512;
  ObjectIndex index(&ds.objects, opts);
  ASSERT_GE(index.tree().height(), 2u);  // corruption tests need depth
  Status st = ValidateObjectIndex(index);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(RTreeValidatorTest, AcceptsDeepPackedImage) {
  // Fan-out 4 over 201 boxes: a four-level tree whose levels below the
  // root each end in a partial node (1, 3 and 1 entries, bottom up).
  std::vector<TreeEntry<2>> boxes;
  for (uint32_t i = 0; i < 201; ++i) {
    double x = 0.01 * i, y = 0.02 * (i % 7);
    boxes.push_back({MakeRect2(x, y, x + 0.005, y + 0.005), i, {}});
  }
  SortByHilbertKey(&boxes);
  const PageLayout layout;
  const PagedTree tree(PackTree(std::move(boxes), 4, 1.0, layout, 256),
                       layout, /*base=*/0);
  ASSERT_EQ(tree.height(), 4u);
  auto no_summary = [](const NodeView&, uint32_t, const NodeView&,
                       uint32_t) { return Status::OK(); };
  auto no_entry = [](const NodeView&, uint32_t) { return Status::OK(); };
  Status st = ValidatePagedTree(tree, no_summary, no_entry);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// --------------------------------------------------- R-tree structure faults

TEST(RTreeValidatorTest, DetectsLooseParentMbr) {
  Dataset ds = MakeDataset();
  IndexBuildParams opts;
  opts.page_size_bytes = 512;
  ObjectIndex index(&ds.objects, opts);
  PagedTree& tree = index.mutable_tree_for_test();
  Rect2 loose = tree.PeekNode(tree.root_id()).mbr(0);
  loose.hi[0] += 0.25;
  EditNode(tree, tree.root_id()).SetMbr(0, loose);
  Status st = ValidateObjectIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("union"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("root"), std::string::npos) << st.ToString();
}

TEST(RTreeValidatorTest, DetectsSharedSubtree) {
  Dataset ds = MakeDataset();
  IndexBuildParams opts;
  opts.page_size_bytes = 512;
  ObjectIndex index(&ds.objects, opts);
  PagedTree& tree = index.mutable_tree_for_test();
  ASSERT_GE(tree.PeekNode(tree.root_id()).size(), 2u);
  // Two entries now share one child.
  EditNode(tree, tree.root_id()).CopyEntry(1, 0);
  Status st = ValidateObjectIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("two paths"), std::string::npos)
      << st.ToString();
}

TEST(RTreeValidatorTest, DetectsLeafRecordBijectionBreak) {
  Dataset ds = MakeDataset();
  IndexBuildParams opts;
  opts.page_size_bytes = 512;
  ObjectIndex index(&ds.objects, opts);
  PagedTree& tree = index.mutable_tree_for_test();
  NodeId leaf = FirstLeaf(tree);
  const NodeView node = tree.PeekNode(leaf);
  ASSERT_GE(node.size(), 2u);
  // Overwrite an entry strictly inside the leaf MBR with a copy of entry 0
  // (id and rect together): the parent MBR stays exact and every entry
  // still matches its object, so the duplicated id is the only fault left.
  Rect2 mbr = node.mbr(0);
  for (uint32_t i = 0; i < node.size(); ++i) mbr.Enlarge(node.mbr(i));
  uint32_t victim = 0;
  for (uint32_t i = 1; i < node.size(); ++i) {
    const Rect2 r = node.mbr(i);
    if (r.lo[0] > mbr.lo[0] && r.hi[0] < mbr.hi[0] && r.lo[1] > mbr.lo[1] &&
        r.hi[1] < mbr.hi[1]) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, 0u) << "no interior leaf entry to corrupt";
  EditNode(tree, leaf).CopyEntry(victim, 0);
  Status st = ValidateObjectIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("appears"), std::string::npos) << st.ToString();
}

TEST(ObjectIndexValidatorTest, DetectsHilbertLeafOrderViolation) {
  Dataset ds = MakeDataset();
  IndexBuildParams opts;
  opts.page_size_bytes = 512;
  ObjectIndex index(&ds.objects, opts);
  PagedTree& tree = index.mutable_tree_for_test();
  NodeId leaf = FirstLeaf(tree);
  const uint32_t count = tree.PeekNode(leaf).size();
  ASSERT_GE(count, 2u);
  EditNode(tree, leaf).SwapEntries(0, count - 1);
  Status st = ValidateObjectIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("Hilbert"), std::string::npos)
      << st.ToString();
}

// ------------------------------------------------------- SRT-specific faults

TEST(SrtValidatorTest, DetectsScoreBoundViolation) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  ASSERT_GE(index.tree().height(), 2u);
  PagedTree& tree = index.mutable_tree_for_test();
  EditNode(tree, tree.root_id()).SetScore(0, -1.0);  // no longer a bound
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dominate"), std::string::npos)
      << st.ToString();
}

TEST(SrtValidatorTest, DetectsScoreAboveOne) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  ASSERT_GE(index.tree().height(), 2u);
  PagedTree& tree = index.mutable_tree_for_test();
  // Still an upper bound of every child score, so only the [0,1] range
  // check can catch it.
  EditNode(tree, tree.root_id()).SetScore(0, 1.5);
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("[0,1]"), std::string::npos) << st.ToString();
}

TEST(SrtValidatorTest, DetectsKeywordSupersetViolation) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  ASSERT_GE(index.tree().height(), 2u);
  PagedTree& tree = index.mutable_tree_for_test();
  // Empty keyword summary: the entry is self-consistent but no longer
  // covers its descendants.
  KeywordSet empty(ds.feature_tables[0].universe_size());
  EditNode(tree, tree.root_id()).SetKeywords(0, empty.blocks());
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("superset"), std::string::npos)
      << st.ToString();
}

TEST(SrtValidatorTest, DetectsKeywordOutsideUniverse) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  ASSERT_GE(index.tree().height(), 2u);
  PagedTree& tree = index.mutable_tree_for_test();
  const uint32_t universe = ds.feature_tables[0].universe_size();
  ASSERT_LT(universe, 64u);
  // A term past the universe: the entry still covers its descendants, but
  // no query could ever name the term.
  const uint64_t word = tree.PeekNode(tree.root_id()).keyword_word(0, 0);
  EditNode(tree, tree.root_id())
      .SetKeywords(0, {word | (uint64_t{1} << universe)});
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("universe"), std::string::npos)
      << st.ToString();
}

TEST(SrtValidatorTest, DetectsHilbertLeafOrderViolation) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  PagedTree& tree = index.mutable_tree_for_test();
  NodeId leaf = FirstLeaf(tree);
  const uint32_t count = tree.PeekNode(leaf).size();
  ASSERT_GE(count, 2u);
  EditNode(tree, leaf).SwapEntries(0, count - 1);
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("Hilbert"), std::string::npos)
      << st.ToString();
}

TEST(SrtValidatorTest, DetectsLeafTableMismatch) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  PagedTree& tree = index.mutable_tree_for_test();
  NodeId leaf = FirstLeaf(tree);
  // Lowering the stored score cannot trip the dominance check on the way
  // down, so the leaf/table comparison is what must catch it.
  EditNode(tree, leaf).SetScore(0, -0.5);
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("feature score"), std::string::npos)
      << st.ToString();
}

// ------------------------------------------------------- IR2-specific faults

TEST(Ir2ValidatorTest, DetectsSignatureCoverageViolation) {
  Dataset ds = MakeDataset();
  Ir2Tree index(&ds.feature_tables[0], SmallPages());
  ASSERT_GE(index.tree().height(), 2u);
  PagedTree& tree = index.mutable_tree_for_test();
  // All-zero signature: structurally valid width but covers nothing, which
  // would make queries silently skip matching subtrees.
  EditNode(tree, tree.root_id())
      .SetKeywords(0, Signature(index.scheme().signature_bits()).words());
  Status st = ValidateIr2Tree(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cover"), std::string::npos) << st.ToString();
}

TEST(Ir2ValidatorTest, DetectsHilbertLeafOrderViolation) {
  Dataset ds = MakeDataset();
  Ir2Tree index(&ds.feature_tables[0], SmallPages());
  PagedTree& tree = index.mutable_tree_for_test();
  NodeId leaf = FirstLeaf(tree);
  const uint32_t count = tree.PeekNode(leaf).size();
  ASSERT_GE(count, 2u);
  // The leaf keeps its records and its MBR; only their order breaks.
  EditNode(tree, leaf).SwapEntries(0, count - 1);
  Status st = ValidateIr2Tree(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("Hilbert"), std::string::npos)
      << st.ToString();
}

TEST(Ir2ValidatorTest, DetectsLeafSignatureMismatch) {
  Dataset ds = MakeDataset();
  Ir2Tree index(&ds.feature_tables[0], SmallPages());
  PagedTree& tree = index.mutable_tree_for_test();
  NodeId leaf = FirstLeaf(tree);
  EditNode(tree, leaf)
      .SetKeywords(0, Signature(index.scheme().signature_bits()).words());
  Status st = ValidateIr2Tree(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("signature"), std::string::npos)
      << st.ToString();
}

// ------------------------------------------------------- buffer pool faults

/// Pages [0, 16) of 64 bytes each, for the pool validator tests.
SimulatedPageStore SmallStore() {
  std::vector<SimulatedPageStore::Extent> extents;
  extents.push_back({0, 16, 64, std::vector<uint8_t>(16 * 64, 0)});
  return SimulatedPageStore(std::move(extents));
}

TEST(BufferPoolValidatorTest, AcceptsHealthyPool) {
  const SimulatedPageStore store = SmallStore();
  BufferPool pool(&store);
  for (PageId p = 0; p < 10; ++p) pool.Access(p);
  const PageView held = pool.Access(9);
  Status st = ValidateBufferPool(pool);
  EXPECT_TRUE(st.ok()) << st.ToString();
  // A failed fetch (a page the store lacks) is counted but not admitted.
  EXPECT_TRUE(pool.Access(99).bytes().empty());
  st = ValidateBufferPool(pool);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(BufferPoolValidatorTest, DetectsBrokenPageTable) {
  const SimulatedPageStore store = SmallStore();
  BufferPool pool(&store);
  pool.Access(1);
  pool.Access(2);
  BufferPool::Corrupter::RelabelFrame(&pool, 1, 3);
  Status st = ValidateBufferPool(pool);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("page table"), std::string::npos)
      << st.ToString();
}

// ------------------------------------------------- reopened-index validation

// A .stpqx round trip must restore trees the deep validators accept: MBR
// containment, augment bounds, leaf/record bijections — everything checked
// on a built index holds verbatim on the reopened image.
TEST(ReopenedIndexValidatorTest, DeepValidatorsAcceptReopenedIndexes) {
  SyntheticConfig cfg;
  cfg.seed = 21;
  cfg.num_objects = 300;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 16;
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    Dataset ds = GenerateSynthetic(cfg);
    EngineOptions opts;
    opts.build.index_kind = kind;
    opts.build.page_size_bytes = 256;
    Engine built = Engine::Build(std::move(ds.objects),
                                 std::move(ds.feature_tables), opts)
                       .TakeValue();
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("stpq_invariants_" + std::to_string(::getpid()) + ".stpqx");
    ASSERT_TRUE(built.Save(path.string()).ok());
    Result<Engine> reopened = Engine::Open(path.string());
    std::filesystem::remove(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

    Status st = ValidateObjectIndex(reopened.value().object_index());
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (size_t i = 0; i < reopened.value().num_feature_sets(); ++i) {
      const FeatureIndex& fi = reopened.value().feature_index(i);
      if (kind == FeatureIndexKind::kSrt) {
        const auto* srt = dynamic_cast<const SrtIndex*>(&fi);
        ASSERT_NE(srt, nullptr);
        st = ValidateSrtIndex(*srt);
      } else {
        const auto* ir2 = dynamic_cast<const Ir2Tree*>(&fi);
        ASSERT_NE(ir2, nullptr);
        st = ValidateIr2Tree(*ir2);
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }
}

TEST(BufferPoolValidatorTest, DetectsAdmissionCounterRollback) {
  const SimulatedPageStore store = SmallStore();
  BufferPool pool(&store);
  pool.Access(1);
  pool.Access(2);
  BufferPool::Corrupter::RewindReads(&pool);
  Status st = ValidateBufferPool(pool);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("reads since Reset"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace stpq
