// Signature files (superimposed coding) for the IR2-tree baseline.
//
// Felipe et al.'s IR2-tree [8] attaches a fixed-width bit signature to each
// node: the OR of the signatures of all keywords below the node.  A query
// keyword *may* be present below a node iff all its signature bits are set;
// false positives are possible, false negatives are not — so counting the
// possibly-present query keywords yields a valid upper bound on
// |e.W n W|, which the modified IR2-tree uses for s-hat(e).
#ifndef STPQ_TEXT_SIGNATURE_H_
#define STPQ_TEXT_SIGNATURE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "text/keyword_set.h"

namespace stpq {

/// A fixed-width bit signature.
class Signature {
 public:
  Signature() = default;
  explicit Signature(uint32_t bits) : bits_(bits), words_((bits + 63) / 64) {}

  uint32_t bits() const { return bits_; }

  void SetBit(uint32_t i) { words_[i / 64] |= uint64_t{1} << (i % 64); }
  bool TestBit(uint32_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  /// OR-in another signature (node aggregation).
  void UnionWith(const Signature& other);

  /// True iff every set bit of `needle` is set in this signature.
  bool Covers(const Signature& needle) const;

  bool operator==(const Signature& other) const = default;

  /// Raw backing words, bit i at words()[i / 64] bit (i % 64)
  /// (serialization; storage/index_file.*).
  const std::vector<uint64_t>& words() const { return words_; }

  /// Rebuilds a signature from serialized words.  `words` must hold
  /// exactly (bits + 63) / 64 entries; extra or missing words are adopted
  /// as-is and caught by the deep validators, not here.
  static Signature FromWords(uint32_t bits, std::vector<uint64_t> words) {
    Signature s;
    s.bits_ = bits;
    s.words_ = std::move(words);
    return s;
  }

 private:
  uint32_t bits_ = 0;
  std::vector<uint64_t> words_;
};

/// Deterministic term -> signature hashing scheme shared by an index.
class SignatureScheme {
 public:
  /// `signature_bits` is the signature width F; `hashes_per_term` is the
  /// number of bits m each keyword sets.
  SignatureScheme(uint32_t signature_bits, uint32_t hashes_per_term,
                  uint64_t seed = 0x5157'4a2d'9e3b'71c5ULL);

  uint32_t signature_bits() const { return signature_bits_; }

  /// Signature of a single keyword.
  Signature TermSignature(TermId term) const;

  /// Signature of a keyword set (OR of its terms' signatures).
  Signature SetSignature(const KeywordSet& set) const;

  /// Upper bound on |set n query| given only `set`'s signature: the number
  /// of query keywords whose term signature is covered.
  uint32_t UpperBoundIntersect(const Signature& signature,
                               const KeywordSet& query) const;
  /// The same bound over a signature stored as little-endian words at
  /// `words` (an IR2 node page's signature column).
  uint32_t UpperBoundIntersect(const uint8_t* words,
                               const KeywordSet& query) const;

  /// True iff at least one query keyword may be present (sim > 0 filter).
  bool MayIntersect(const Signature& signature,
                    const KeywordSet& query) const;
  bool MayIntersect(const uint8_t* words, const KeywordSet& query) const;

 private:
  /// The j-th hash bit of `term` (j < hashes_per_term_).
  uint32_t TermBit(TermId term, uint32_t j) const;

  /// Whether all of `term`'s hash bits are set in the signature stored at
  /// `words` — the same answer as `signature.Covers(TermSignature(term))`
  /// without building the per-term Signature.
  bool CoversTerm(const uint8_t* words, TermId term) const;

  uint32_t signature_bits_;
  uint32_t hashes_per_term_;
  uint64_t seed_;
};

}  // namespace stpq

#endif  // STPQ_TEXT_SIGNATURE_H_
