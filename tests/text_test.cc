// Tests for text/: vocabulary, keyword sets, signatures.
#include <gtest/gtest.h>

#include <algorithm>

#include "text/keyword_set.h"
#include "text/signature.h"
#include "text/vocabulary.h"
#include "util/rng.h"

namespace stpq {
namespace {

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary v;
  TermId pizza = v.Intern("pizza");
  TermId burger = v.Intern("burger");
  EXPECT_NE(pizza, burger);
  EXPECT_EQ(v.Intern("pizza"), pizza);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.Term(pizza), "pizza");
}

TEST(VocabularyTest, LookupMissing) {
  Vocabulary v;
  v.Intern("espresso");
  EXPECT_TRUE(v.Lookup("espresso").ok());
  Result<TermId> missing = v.Lookup("noexist");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(VocabularyTest, SyntheticHasRequestedSize) {
  Vocabulary v = Vocabulary::Synthetic(256);
  EXPECT_EQ(v.size(), 256u);
  EXPECT_TRUE(v.Lookup("kw000").ok());
  EXPECT_TRUE(v.Lookup("kw255").ok());
}

TEST(KeywordSetTest, InsertContainsCount) {
  KeywordSet s(130);
  EXPECT_TRUE(s.Empty());
  s.Insert(0);
  s.Insert(129);
  s.Insert(129);  // duplicate
  EXPECT_EQ(s.Count(), 2u);
  EXPECT_TRUE(s.Contains(0));
  EXPECT_TRUE(s.Contains(129));
  EXPECT_FALSE(s.Contains(64));
}

TEST(KeywordSetTest, SetAlgebra) {
  KeywordSet a(64, {1, 2, 3});
  KeywordSet b(64, {3, 4});
  EXPECT_EQ(a.IntersectCount(b), 1u);
  EXPECT_EQ(a.UnionCount(b), 4u);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(KeywordSet(64, {10})));
  a.UnionWith(b);
  EXPECT_EQ(a.Count(), 4u);
}

TEST(KeywordSetTest, JaccardMatchesDefinition) {
  KeywordSet a(64, {1, 2});
  KeywordSet b(64, {2, 3, 4});
  EXPECT_DOUBLE_EQ(a.Jaccard(b), 0.25);  // |{2}| / |{1,2,3,4}|
  EXPECT_DOUBLE_EQ(a.Jaccard(a), 1.0);
  EXPECT_DOUBLE_EQ(KeywordSet(64).Jaccard(KeywordSet(64)), 0.0);
}

TEST(KeywordSetTest, PaperExampleScores) {
  // Figure 2 + Definition 1 with W = {italian, pizza}, lambda = 0.5:
  // Ontario's Pizza (rating .8, {pizza, italian}): s = .5*.8 + .5*1 = 0.9.
  // Beijing Restaurant (rating .6, {chinese, asian}): s = .5*.6 + 0 = 0.3.
  Vocabulary v;
  TermId italian = v.Intern("italian"), pizza = v.Intern("pizza");
  TermId chinese = v.Intern("chinese"), asian = v.Intern("asian");
  const uint32_t w = 16;
  KeywordSet query(w, {italian, pizza});
  KeywordSet ontario(w, {pizza, italian});
  KeywordSet beijing(w, {chinese, asian});
  double lambda = 0.5;
  EXPECT_DOUBLE_EQ((1 - lambda) * 0.8 + lambda * ontario.Jaccard(query), 0.9);
  EXPECT_DOUBLE_EQ((1 - lambda) * 0.6 + lambda * beijing.Jaccard(query), 0.3);
}

TEST(KeywordSetTest, ToTermsSorted) {
  KeywordSet s(200, {150, 3, 64});
  std::vector<TermId> terms = s.ToTerms();
  EXPECT_EQ(terms, (std::vector<TermId>{3, 64, 150}));
}

TEST(KeywordSetTest, CrossWordBoundaries) {
  KeywordSet a(192, {63, 64, 127, 128, 191});
  KeywordSet b(192, {64, 128});
  EXPECT_EQ(a.IntersectCount(b), 2u);
  EXPECT_EQ(a.UnionCount(b), 5u);
}

TEST(SignatureTest, CoversAndUnion) {
  Signature a(64), b(64);
  a.SetBit(3);
  a.SetBit(40);
  b.SetBit(3);
  EXPECT_TRUE(a.Covers(b));
  EXPECT_FALSE(b.Covers(a));
  b.UnionWith(a);
  EXPECT_TRUE(b.Covers(a));
}

TEST(SignatureSchemeTest, NoFalseNegatives) {
  // A keyword present in the set is always reported possibly-present; the
  // upper-bound intersection therefore never undercounts.
  const uint32_t w = 128;
  SignatureScheme scheme(256, 3);
  Rng rng(31);
  for (int iter = 0; iter < 200; ++iter) {
    KeywordSet set(w);
    for (int j = 0; j < 4; ++j) {
      set.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
    }
    Signature sig = scheme.SetSignature(set);
    KeywordSet query(w);
    for (int j = 0; j < 3; ++j) {
      query.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
    }
    uint32_t actual = set.IntersectCount(query);
    uint32_t bound = scheme.UpperBoundIntersect(sig, query);
    EXPECT_GE(bound, actual);
    if (set.Intersects(query)) {
      EXPECT_TRUE(scheme.MayIntersect(sig, query));
    }
  }
}

TEST(SignatureSchemeTest, FalsePositiveRateIsModerate) {
  // Disjoint query keywords should usually not match a small signature.
  const uint32_t w = 256;
  SignatureScheme scheme(512, 3);
  Rng rng(37);
  int false_positives = 0;
  const int trials = 1000;
  for (int iter = 0; iter < trials; ++iter) {
    KeywordSet set(w, {static_cast<TermId>(rng.UniformInt(0, 127))});
    KeywordSet query(w,
                     {static_cast<TermId>(rng.UniformInt(128, w - 1))});
    if (scheme.UpperBoundIntersect(scheme.SetSignature(set), query) > 0) {
      ++false_positives;
    }
  }
  EXPECT_LT(false_positives, trials / 10);
}

TEST(SignatureSchemeTest, DeterministicAcrossInstances) {
  SignatureScheme a(256, 3), b(256, 3);
  KeywordSet set(64, {1, 7, 33});
  EXPECT_TRUE(a.SetSignature(set) == b.SetSignature(set));
}

// ------------------------- keyword-signature properties (one-word OR-fold)

namespace {

/// Reference OR-fold of the raw blocks — what signature() must equal.
uint64_t FoldBlocks(const KeywordSet& s) {
  uint64_t sig = 0;
  for (uint64_t b : s.blocks()) sig |= b;
  return sig;
}

/// Reference intersection test over the raw blocks, bypassing the
/// signature fast path.
bool BlockScanIntersects(const KeywordSet& a, const KeywordSet& b) {
  for (size_t i = 0; i < a.blocks().size(); ++i) {
    if (a.blocks()[i] & b.blocks()[i]) return true;
  }
  return false;
}

/// Random set over `w` terms; expected density `bits` terms (possibly 0).
KeywordSet RandomSet(Rng& rng, uint32_t w, uint32_t bits) {
  KeywordSet s(w);
  for (uint32_t i = 0; i < bits; ++i) {
    s.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
  }
  return s;
}

}  // namespace

TEST(KeywordSignatureProperty, IntersectsAgreesWithBlockScan) {
  // Universes deliberately include sizes not divisible by 64 and sub-word
  // sizes where the signature is exact.
  const uint32_t universes[] = {1, 5, 63, 64, 65, 100, 999, 4113};
  Rng rng(321);
  for (uint32_t w : universes) {
    for (int iter = 0; iter < 200; ++iter) {
      // Densities from empty through dense: empty sets must never
      // intersect anything, dense ones exercise the fallback scan.
      const uint32_t bits_a = static_cast<uint32_t>(rng.UniformInt(0, 8));
      const uint32_t bits_b = static_cast<uint32_t>(rng.UniformInt(0, 8));
      KeywordSet a = RandomSet(rng, w, bits_a);
      KeywordSet b = RandomSet(rng, w, bits_b);
      const bool expected = BlockScanIntersects(a, b);
      EXPECT_EQ(a.Intersects(b), expected) << "universe " << w;
      EXPECT_EQ(b.Intersects(a), expected) << "universe " << w;
      // The signed short-circuit must not change the exact counters
      // either: IntersectCount is zero iff the scan finds no overlap,
      // and Jaccard stays consistent with the count-based definition.
      EXPECT_EQ(a.IntersectCount(b) > 0, expected);
      const uint32_t uni = a.UnionCount(b);
      const double expected_jaccard =
          uni == 0 ? 0.0
                   : static_cast<double>(a.IntersectCount(b)) / uni;
      EXPECT_DOUBLE_EQ(a.Jaccard(b), expected_jaccard);
    }
  }
}

TEST(KeywordSignatureProperty, SignatureIsExactNegative) {
  // sig_a & sig_b == 0 must *prove* disjointness (no false negatives).
  Rng rng(654);
  for (int iter = 0; iter < 500; ++iter) {
    KeywordSet a = RandomSet(rng, 777, 6);
    KeywordSet b = RandomSet(rng, 777, 6);
    if ((a.signature() & b.signature()) == 0) {
      EXPECT_FALSE(BlockScanIntersects(a, b));
    }
  }
}

TEST(KeywordSignatureProperty, MaintainedAcrossMutations) {
  Rng rng(987);
  for (int iter = 0; iter < 100; ++iter) {
    const uint32_t w = static_cast<uint32_t>(rng.UniformInt(1, 300));
    KeywordSet a = RandomSet(rng, w, 5);
    EXPECT_EQ(a.signature(), FoldBlocks(a));

    // UnionWith folds the other set's signature in.
    KeywordSet b = RandomSet(rng, w, 5);
    a.UnionWith(b);
    EXPECT_EQ(a.signature(), FoldBlocks(a));

    // FromBlocks recomputes from raw storage; round-tripping preserves
    // both the blocks and the signature.
    KeywordSet c = KeywordSet::FromBlocks(w, a.blocks());
    EXPECT_EQ(c.signature(), a.signature());
    EXPECT_TRUE(c == a);
  }
}

TEST(KeywordSignatureProperty, EmptySets) {
  KeywordSet empty(100), other(100, {3, 64, 99});
  EXPECT_EQ(empty.signature(), 0u);
  EXPECT_FALSE(empty.Intersects(other));
  EXPECT_FALSE(other.Intersects(empty));
  EXPECT_FALSE(empty.Intersects(empty));
  EXPECT_DOUBLE_EQ(empty.Jaccard(empty), 0.0);
  KeywordSet zero_universe;
  EXPECT_FALSE(zero_universe.Intersects(zero_universe));
}

}  // namespace
}  // namespace stpq
