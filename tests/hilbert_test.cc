// Tests for hilbert/: Skilling transcoding and the keyword mapping of
// Section 4.2.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "hilbert/hilbert.h"
#include "hilbert/keyword_hilbert.h"
#include "util/rng.h"

namespace stpq {
namespace {

// ---------------------------------------------------------------- Skilling

struct DimsBits {
  int dims;
  int bits;
};

class HilbertKeyTest : public ::testing::TestWithParam<DimsBits> {};

TEST_P(HilbertKeyTest, Bijective) {
  const auto [n, b] = GetParam();
  const uint64_t total = uint64_t{1} << (n * b);
  if (total > (1u << 16)) GTEST_SKIP() << "space too large for full sweep";
  std::set<uint64_t> keys;
  const uint32_t side = 1u << b;
  std::vector<uint32_t> coords(n, 0);
  // Enumerate the whole grid; every key must be distinct and < total.
  uint64_t count = 0;
  while (true) {
    uint64_t key = HilbertKey(coords.data(), b, n);
    EXPECT_LT(key, total);
    keys.insert(key);
    ++count;
    // Round-trip.
    std::vector<uint32_t> back(n);
    HilbertKeyToAxes(key, b, n, back.data());
    EXPECT_EQ(back, coords);
    // Odometer increment.
    int d = 0;
    while (d < n && ++coords[d] == side) {
      coords[d] = 0;
      ++d;
    }
    if (d == n) break;
  }
  EXPECT_EQ(keys.size(), count);
  EXPECT_EQ(count, total);
}

TEST_P(HilbertKeyTest, AdjacentKeysAreAdjacentCells) {
  // The defining Hilbert property: consecutive keys differ by exactly one
  // grid step in exactly one dimension.
  const auto [n, b] = GetParam();
  const uint64_t total = uint64_t{1} << (n * b);
  if (total > (1u << 16)) GTEST_SKIP() << "space too large for full sweep";
  std::vector<uint32_t> prev(n), cur(n);
  HilbertKeyToAxes(0, b, n, prev.data());
  for (uint64_t key = 1; key < total; ++key) {
    HilbertKeyToAxes(key, b, n, cur.data());
    int changed = 0;
    for (int i = 0; i < n; ++i) {
      uint32_t diff = cur[i] > prev[i] ? cur[i] - prev[i] : prev[i] - cur[i];
      if (diff == 1) {
        ++changed;
      } else {
        EXPECT_EQ(diff, 0u) << "key " << key << " dim " << i;
      }
    }
    EXPECT_EQ(changed, 1) << "key " << key;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, HilbertKeyTest,
    ::testing::Values(DimsBits{2, 1}, DimsBits{2, 4}, DimsBits{2, 8},
                      DimsBits{3, 1}, DimsBits{3, 4}, DimsBits{4, 1},
                      DimsBits{4, 2}, DimsBits{4, 4}, DimsBits{5, 1},
                      DimsBits{8, 1}, DimsBits{8, 2}, DimsBits{16, 1}),
    [](const ::testing::TestParamInfo<DimsBits>& param_info) {
      // Appended piecewise: GCC 12's -Wrestrict misfires on
      // "literal" + std::to_string(...).
      std::string name = "d";
      name += std::to_string(param_info.param.dims);
      name += "b";
      name += std::to_string(param_info.param.bits);
      return name;
    });

TEST(HilbertKeyTest, UnitCoordinatesClamped) {
  double lo[2] = {-0.5, 0.0};
  double hi[2] = {1.5, 1.0};
  uint64_t key_lo = HilbertKeyFromUnit(lo, 8, 2);
  uint64_t key_hi = HilbertKeyFromUnit(hi, 8, 2);
  double lo_c[2] = {0.0, 0.0};
  double hi_c[2] = {1.0, 1.0};
  EXPECT_EQ(key_lo, HilbertKeyFromUnit(lo_c, 8, 2));
  EXPECT_EQ(key_hi, HilbertKeyFromUnit(hi_c, 8, 2));
}

TEST(HilbertKeyTest, FirstOrder3DOrderingIsGrayWalk) {
  // For n=3, b=1, the curve visits all 8 hypercube corners, each step
  // flipping one coordinate (this is the ordering of the paper's Fig. 5 up
  // to dimension labeling).
  uint32_t prev[3], cur[3];
  HilbertKeyToAxes(0, 1, 3, prev);
  EXPECT_EQ(prev[0] | prev[1] | prev[2], 0u);  // starts at 000
  for (uint64_t key = 1; key < 8; ++key) {
    HilbertKeyToAxes(key, 1, 3, cur);
    int flips = 0;
    for (int i = 0; i < 3; ++i) flips += cur[i] != prev[i];
    EXPECT_EQ(flips, 1);
    std::copy(cur, cur + 3, prev);
  }
}

// ------------------------------------------------------- keyword mapping

KeywordSet MakeSet(uint32_t universe, std::initializer_list<TermId> terms) {
  return KeywordSet(universe, terms);
}

TEST(KeywordHilbertTest, EncodeDecodeRoundTripSmall) {
  const uint32_t w = 3;
  for (uint32_t mask = 0; mask < 8; ++mask) {
    KeywordSet s(w);
    for (uint32_t i = 0; i < w; ++i) {
      if (mask & (1u << i)) s.Insert(i);
    }
    HilbertValue h = EncodeKeywords(s);
    EXPECT_EQ(DecodeKeywords(h, w), s) << "mask " << mask;
  }
}

class KeywordHilbertUniverseTest : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(KeywordHilbertUniverseTest, RoundTripRandomSets) {
  const uint32_t w = GetParam();
  Rng rng(w);
  for (int iter = 0; iter < 200; ++iter) {
    KeywordSet s(w);
    uint32_t n = static_cast<uint32_t>(rng.UniformInt(0, 8));
    for (uint32_t i = 0; i < n; ++i) {
      s.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
    }
    HilbertValue h = EncodeKeywords(s);
    EXPECT_EQ(h.bits(), w);
    EXPECT_EQ(DecodeKeywords(h, w), s);
  }
}

TEST_P(KeywordHilbertUniverseTest, EncodingIsInjective) {
  const uint32_t w = GetParam();
  Rng rng(w + 1);
  std::set<std::vector<uint64_t>> seen_values;
  std::set<std::vector<uint64_t>> seen_sets;
  for (int iter = 0; iter < 300; ++iter) {
    KeywordSet s(w);
    uint32_t n = static_cast<uint32_t>(rng.UniformInt(0, 6));
    for (uint32_t i = 0; i < n; ++i) {
      s.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
    }
    bool new_set = seen_sets.insert(s.blocks()).second;
    bool new_value = seen_values.insert(EncodeKeywords(s).words()).second;
    EXPECT_EQ(new_set, new_value);
  }
}

INSTANTIATE_TEST_SUITE_P(Universes, KeywordHilbertUniverseTest,
                         ::testing::Values(3u, 8u, 63u, 64u, 65u, 128u, 130u,
                                           192u, 256u, 300u),
                         [](const ::testing::TestParamInfo<uint32_t>&
                                param_info) {
                           std::string name = "w";
                           name += std::to_string(param_info.param);
                           return name;
                         });

TEST(KeywordHilbertTest, LocalityAdjacentValuesDifferInOneKeyword) {
  // Section 4.2: "vectors with distance 1 have only one different keyword".
  // Walk the full order for w = 8 by decoding consecutive values.
  const uint32_t w = 8;
  KeywordSet prev = DecodeKeywords(HilbertValue(w), w);  // value 0
  for (uint32_t v = 1; v < 256; ++v) {
    HilbertValue h(w);
    h.words()[0] = static_cast<uint64_t>(v) << (64 - w);
    KeywordSet cur = DecodeKeywords(h, w);
    uint32_t diff = cur.UnionCount(prev) - cur.IntersectCount(prev);
    EXPECT_EQ(diff, 1u) << "value " << v;
    prev = cur;
  }
}

TEST(KeywordHilbertTest, DistanceBoundsKeywordDifference) {
  // Section 4.2: Hilbert distance w' bounds the number of differing
  // keywords by w'.  (Each unit step flips one keyword.)
  const uint32_t w = 10;
  Rng rng(11);
  for (int iter = 0; iter < 100; ++iter) {
    uint64_t a = rng.UniformInt(0, (1u << w) - 1);
    uint64_t b = rng.UniformInt(0, (1u << w) - 1);
    HilbertValue ha(w), hb(w);
    ha.words()[0] = a << (64 - w);
    hb.words()[0] = b << (64 - w);
    KeywordSet sa = DecodeKeywords(ha, w);
    KeywordSet sb = DecodeKeywords(hb, w);
    uint64_t hdist = a > b ? a - b : b - a;
    uint32_t kdiff = sa.UnionCount(sb) - sa.IntersectCount(sb);
    EXPECT_LE(kdiff, hdist);
  }
}

TEST(KeywordHilbertTest, ComparisonMatchesNumericOrder) {
  const uint32_t w = 8;
  for (uint32_t a = 0; a < 64; ++a) {
    for (uint32_t b = 0; b < 64; ++b) {
      HilbertValue ha(w), hb(w);
      ha.words()[0] = static_cast<uint64_t>(a) << (64 - w);
      hb.words()[0] = static_cast<uint64_t>(b) << (64 - w);
      EXPECT_EQ(ha < hb, a < b);
      EXPECT_EQ(ha == hb, a == b);
    }
  }
}

TEST(KeywordHilbertTest, ToUnitDoubleMonotone) {
  const uint32_t w = 16;
  double prev = -1.0;
  for (uint32_t v = 0; v < (1u << w); v += 97) {
    HilbertValue h(w);
    h.words()[0] = static_cast<uint64_t>(v) << (64 - w);
    double d = h.ToUnitDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(KeywordHilbertTest, AggregateIsKeywordUnion) {
  // The SRT node update: decode, OR, re-encode (Section 4.2).
  const uint32_t w = 130;
  Rng rng(13);
  for (int iter = 0; iter < 100; ++iter) {
    KeywordSet a(w), b(w);
    for (int i = 0; i < 4; ++i) {
      a.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
      b.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
    }
    HilbertValue agg = AggregateHilbert(EncodeKeywords(a), EncodeKeywords(b),
                                        w);
    KeywordSet expected = a;
    expected.UnionWith(b);
    EXPECT_EQ(DecodeKeywords(agg, w), expected);
  }
}

TEST(KeywordHilbertTest, AggregateIdempotentAndCommutative) {
  const uint32_t w = 64;
  KeywordSet a = MakeSet(w, {1, 5, 60});
  KeywordSet b = MakeSet(w, {2, 5});
  HilbertValue ha = EncodeKeywords(a), hb = EncodeKeywords(b);
  EXPECT_EQ(AggregateHilbert(ha, hb, w), AggregateHilbert(hb, ha, w));
  EXPECT_EQ(AggregateHilbert(ha, ha, w), ha);
}

TEST(KeywordHilbertTest, EmptySetMapsToZero) {
  KeywordSet empty(128);
  HilbertValue h = EncodeKeywords(empty);
  for (uint64_t wrd : h.words()) EXPECT_EQ(wrd, 0u);
  EXPECT_DOUBLE_EQ(h.ToUnitDouble(), 0.0);
}

}  // namespace
}  // namespace stpq
