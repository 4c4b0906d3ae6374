#include "text/signature.h"

#include <bit>
#include <cstring>

#include "util/logging.h"

namespace stpq {

namespace {
// splitmix64: cheap, well-distributed stateless hash.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Calls `fn(term)` for every keyword in `set`, ascending.  Enumerates
/// set bits with countr_zero over the raw blocks — no temporary term
/// vector on the query hot path.
template <typename Fn>
void ForEachTerm(const KeywordSet& set, Fn&& fn) {
  const std::vector<uint64_t>& blocks = set.blocks();
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (uint64_t b = blocks[i]; b != 0; b &= b - 1) {
      fn(static_cast<TermId>(i * 64 + std::countr_zero(b)));
    }
  }
}
}  // namespace

void Signature::UnionWith(const Signature& other) {
  STPQ_DCHECK(bits_ == other.bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

bool Signature::Covers(const Signature& needle) const {
  STPQ_DCHECK(bits_ == needle.bits_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((needle.words_[i] & ~words_[i]) != 0) return false;
  }
  return true;
}

SignatureScheme::SignatureScheme(uint32_t signature_bits,
                                 uint32_t hashes_per_term, uint64_t seed)
    : signature_bits_(signature_bits),
      hashes_per_term_(hashes_per_term),
      seed_(seed) {
  STPQ_CHECK(signature_bits_ > 0 && hashes_per_term_ > 0);
}

uint32_t SignatureScheme::TermBit(TermId term, uint32_t j) const {
  uint64_t h = Mix(seed_ ^ (static_cast<uint64_t>(term) << 32 | j));
  return static_cast<uint32_t>(h % signature_bits_);
}

Signature SignatureScheme::TermSignature(TermId term) const {
  Signature sig(signature_bits_);
  for (uint32_t j = 0; j < hashes_per_term_; ++j) sig.SetBit(TermBit(term, j));
  return sig;
}

Signature SignatureScheme::SetSignature(const KeywordSet& set) const {
  // Sets each term's hash bits directly into the result: the same bits
  // TermSignature would set, without a per-term Signature allocation.
  Signature sig(signature_bits_);
  ForEachTerm(set, [&](TermId t) {
    for (uint32_t j = 0; j < hashes_per_term_; ++j) sig.SetBit(TermBit(t, j));
  });
  return sig;
}

bool SignatureScheme::CoversTerm(const uint8_t* words, TermId term) const {
  for (uint32_t j = 0; j < hashes_per_term_; ++j) {
    const uint32_t bit = TermBit(term, j);
    uint64_t word = 0;
    std::memcpy(&word, words + 8 * (bit / 64), sizeof(word));
    if (((word >> (bit % 64)) & 1u) == 0) return false;
  }
  return true;
}

namespace {
/// A Signature's words as the byte sequence a node page stores.
const uint8_t* BytesOf(const Signature& signature) {
  return reinterpret_cast<const uint8_t*>(signature.words().data());
}
}  // namespace

uint32_t SignatureScheme::UpperBoundIntersect(const Signature& signature,
                                              const KeywordSet& query) const {
  STPQ_DCHECK(signature.bits() == signature_bits_);
  return UpperBoundIntersect(BytesOf(signature), query);
}

uint32_t SignatureScheme::UpperBoundIntersect(const uint8_t* words,
                                              const KeywordSet& query) const {
  uint32_t n = 0;
  ForEachTerm(query, [&](TermId t) {
    if (CoversTerm(words, t)) ++n;
  });
  return n;
}

bool SignatureScheme::MayIntersect(const Signature& signature,
                                   const KeywordSet& query) const {
  STPQ_DCHECK(signature.bits() == signature_bits_);
  return MayIntersect(BytesOf(signature), query);
}

bool SignatureScheme::MayIntersect(const uint8_t* words,
                                   const KeywordSet& query) const {
  const std::vector<uint64_t>& blocks = query.blocks();
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (uint64_t b = blocks[i]; b != 0; b &= b - 1) {
      const TermId t = static_cast<TermId>(i * 64 + std::countr_zero(b));
      if (CoversTerm(words, t)) return true;
    }
  }
  return false;
}

}  // namespace stpq
