// Result explanation: which feature of each set gives an object its score.
//
// tau(p) = sum_i tau_i(p); each tau_i is realized by one feature (or by
// none).  Explain() re-derives the realizing features through the indexes,
// so UIs can answer "why is this hotel first?" with "because of Ontario's
// Pizza at distance 2.2 and Royal Coffe Shop at distance 1.8".
#ifndef STPQ_CORE_EXPLAIN_H_
#define STPQ_CORE_EXPLAIN_H_

#include <vector>

#include "core/compute_score.h"
#include "core/engine.h"
#include "core/query.h"

namespace stpq {

/// One feature set's contribution to tau(p).
struct Contribution {
  size_t feature_set = 0;     ///< index i of F_i
  bool has_feature = false;   ///< false when tau_i(p) = 0 with no feature
  ObjectId feature = 0;       ///< realizing feature id (valid if has_feature)
  double score = 0.0;         ///< tau_i(p)
  double distance = 0.0;      ///< dist(p, feature)
};

/// A fully explained score.
struct Explanation {
  ObjectId object = 0;
  double total = 0.0;  ///< tau(p) = sum of contribution scores
  std::vector<Contribution> contributions;  ///< one per feature set
  /// Cost counters of the explaining traversals themselves: their page
  /// reads and hits, and the per-level traversal profile (which nodes were
  /// visited, pruned, descended while re-deriving each tau_i).
  QueryStats stats;
};

/// Explains tau(p) for `object` under `query` using `engine`'s indexes.
/// The re-derivation reads through a session of its own over the
/// engine's page store, so a page that cannot be fetched fails the call
/// with the fetch's IoError or Corruption, as Engine::Execute does.  A
/// malformed query or an unknown object is InvalidArgument.
[[nodiscard]] Result<Explanation> ExplainScore(const Engine* engine,
                                               const Query& query,
                                               ObjectId object);

}  // namespace stpq

#endif  // STPQ_CORE_EXPLAIN_H_
