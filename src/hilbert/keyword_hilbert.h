// The SRT-index keyword mapping of Section 4.2.
//
// A keyword set over a w-term vocabulary is a binary vector of length w;
// its Hilbert value is its position on the order-1 Hilbert walk of the
// w-dimensional unit hypercube.  For order 1, Skilling's transform reduces
// to a prefix-XOR (Gray) transform of the vector, so consecutive Hilbert
// values differ in exactly one keyword and a Hilbert distance of w' bounds
// the number of differing keywords by w' — the locality property the paper
// exploits to cluster textually similar features in the same index node.
//
// The paper's Figure 5 ordering for w=3 (000,010,011,001,101,111,110,100)
// is this walk up to a fixed permutation of the dimension labels; the
// locality guarantees are identical.
#ifndef STPQ_HILBERT_KEYWORD_HILBERT_H_
#define STPQ_HILBERT_KEYWORD_HILBERT_H_

#include <compare>
#include <cstdint>
#include <vector>

#include "text/keyword_set.h"

namespace stpq {

/// A w-bit Hilbert value, stored most-significant-word first with
/// dimension 0 (the first keyword) at bit 63 of word 0.
class HilbertValue {
 public:
  HilbertValue() = default;
  explicit HilbertValue(uint32_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  uint32_t bits() const { return bits_; }
  const std::vector<uint64_t>& words() const { return words_; }
  std::vector<uint64_t>& words() { return words_; }

  /// Numeric comparison (dimension 0 is the most significant bit).
  std::strong_ordering operator<=>(const HilbertValue& other) const;
  bool operator==(const HilbertValue& other) const = default;

  /// The value normalized into [0, 1), using the leading 64 bits.  This is
  /// the coordinate the SRT-index uses for the 4th tree dimension; the exact
  /// node summaries keep the bound computation exact regardless of this
  /// truncation (Section 4.2: the index choice affects only performance).
  double ToUnitDouble() const;

 private:
  uint32_t bits_ = 0;
  std::vector<uint64_t> words_;
};

/// Maps a keyword set to its Hilbert value, H(t.W).
HilbertValue EncodeKeywords(const KeywordSet& set);

/// Inverse mapping: recovers the keyword set from a Hilbert value.
KeywordSet DecodeKeywords(const HilbertValue& value, uint32_t universe_size);

/// The SRT node-summary update (Section 4.2): both values are mapped back
/// to binary vectors, OR-ed, and the disjunction is re-encoded.  The index
/// folds e.W as the equivalent bitmap union (SrtAug::Merge); this is the
/// paper-literal reference that fold is tested against.
HilbertValue AggregateHilbert(const HilbertValue& a, const HilbertValue& b,
                              uint32_t universe_size);

}  // namespace stpq

#endif  // STPQ_HILBERT_KEYWORD_HILBERT_H_
