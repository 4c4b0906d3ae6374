// Execution metrics: per-query cost counters reported by the benchmarks.
//
// The paper reports average execution time per query broken down into I/O
// time (proportional to page reads) and CPU time.  QueryStats carries both,
// plus algorithm-internal counters that the ablation benches inspect, plus
// a per-phase wall-time breakdown filled by obs/trace.h's Span
// (DESIGN.md §12).
#ifndef STPQ_UTIL_METRICS_H_
#define STPQ_UTIL_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace stpq {

/// Named query-execution phases that Span (obs/trace.h) attributes
/// wall-time to.  The taxonomy follows the algorithmic structure shared by
/// STDS and STPS (DESIGN.md §12): combination enumeration (Algorithm 4),
/// component-score search over the feature indexes (Algorithm 2 and the
/// sorted feature streams), data-object retrieval/scanning, and Voronoi
/// cell construction (NN variant).  Time not covered by any span is
/// reported as "other" (total CPU minus the traced phases); simulated
/// buffer-pool I/O is priced separately from page reads, so it is a
/// *derived* phase, not a timed one.
enum class QueryPhase : uint8_t {
  kCombination = 0,    ///< combination enumeration / threshold maintenance
  kComponentScore,     ///< tau_i(p) searches and sorted feature retrieval
  kObjectRetrieval,    ///< data-object fetching, scanning, and scoring
  kVoronoi,            ///< Voronoi cell construction (NN variant)
};

/// Number of timed phases (the extent of the QueryPhase enum).
inline constexpr size_t kNumQueryPhases = 4;

/// Human-readable phase name ("combination", "component_score", ...).
const char* QueryPhaseName(QueryPhase phase);

/// Feature sets the traversal profile resolves individually.  Mirrors
/// core/scratch.h's kMaxFeatureSets (a static_assert there keeps the two in
/// sync); deeper ordinals fold into the last slot.
inline constexpr size_t kMaxProfiledFeatureSets = 8;

/// Per-tree-level traversal counters for one index tree.
///
/// `visited[L]` counts node expansions at level L (one per page access of
/// that tree in the query path); while a level-L node is expanded, each of
/// its child entries is either discarded by a filter (`pruned[L]`) or
/// enqueued for traversal / accepted into the result (`descended[L]`).
/// Levels follow the R-tree convention (0 = leaf); levels beyond
/// kNumLevels-1 clamp into the last slot.
struct TreeTraversalCounts {
  static constexpr size_t kNumLevels = 8;

  uint64_t visited[kNumLevels] = {};
  uint64_t pruned[kNumLevels] = {};
  uint64_t descended[kNumLevels] = {};

  void RecordVisit(size_t level, uint64_t pruned_n, uint64_t descended_n) {
    const size_t slot = level < kNumLevels ? level : kNumLevels - 1;
    visited[slot] += 1;
    pruned[slot] += pruned_n;
    descended[slot] += descended_n;
  }

  uint64_t TotalVisited() const {
    uint64_t sum = 0;
    for (uint64_t v : visited) sum += v;
    return sum;
  }
  uint64_t TotalPruned() const {
    uint64_t sum = 0;
    for (uint64_t v : pruned) sum += v;
    return sum;
  }
  uint64_t TotalDescended() const {
    uint64_t sum = 0;
    for (uint64_t v : descended) sum += v;
    return sum;
  }

  TreeTraversalCounts& operator+=(const TreeTraversalCounts& other) {
    for (size_t i = 0; i < kNumLevels; ++i) {
      visited[i] += other.visited[i];
      pruned[i] += other.pruned[i];
      descended[i] += other.descended[i];
    }
    return *this;
  }
};

/// Per-query traversal profile: one TreeTraversalCounts for the object
/// R-tree plus one per feature set.  Every simulated page access in the
/// query path records exactly one visit here, so per-tree visited totals
/// reconcile with the buffer-pool read+hit counters (trace_export_test
/// asserts the invariant).
struct TraversalProfile {
  TreeTraversalCounts object_tree;
  TreeTraversalCounts feature_tree[kMaxProfiledFeatureSets];

  /// The counts of feature set `ordinal` (clamped into the last slot).
  TreeTraversalCounts& FeatureTree(uint32_t ordinal) {
    return feature_tree[ordinal < kMaxProfiledFeatureSets
                            ? ordinal
                            : kMaxProfiledFeatureSets - 1];
  }
  const TreeTraversalCounts& FeatureTree(uint32_t ordinal) const {
    return feature_tree[ordinal < kMaxProfiledFeatureSets
                            ? ordinal
                            : kMaxProfiledFeatureSets - 1];
  }

  uint64_t TotalVisited() const;
  uint64_t TotalPruned() const;
  uint64_t TotalDescended() const;
  uint64_t FeatureVisited() const;
  uint64_t FeaturePruned() const;
  uint64_t FeatureDescended() const;

  TraversalProfile& operator+=(const TraversalProfile& other) {
    object_tree += other.object_tree;
    for (size_t i = 0; i < kMaxProfiledFeatureSets; ++i) {
      feature_tree[i] += other.feature_tree[i];
    }
    return *this;
  }
};

/// Cost counters accumulated while processing a single query (or a batch).
///
/// Contract: every field must be covered by operator+= and ToString(), and
/// the phase_ms array is element-wise summable like the counters.  A
/// regression guard in metrics.cc (sizeof static_assert) and
/// util_test.cc's QueryStatsContract tests fail when a field is added
/// without updating both.
struct QueryStats {
  // Simulated disk reads (buffer-pool misses), split by index family.
  uint64_t object_index_reads = 0;
  uint64_t feature_index_reads = 0;
  // Buffer-pool hits (no I/O charged).
  uint64_t buffer_hits = 0;

  // Algorithm-internal work counters.
  uint64_t heap_pushes = 0;            ///< entries pushed on any search heap
  uint64_t features_retrieved = 0;     ///< feature objects popped sorted by s(t)
  uint64_t combinations_generated = 0; ///< valid combinations materialized
  uint64_t combinations_emitted = 0;   ///< combinations returned by the iterator
  uint64_t objects_scored = 0;         ///< data objects whose tau(p) was computed
  uint64_t voronoi_cells = 0;          ///< Voronoi cells computed (NN variant)
  uint64_t voronoi_clip_features = 0;  ///< features streamed for cell clipping
  uint64_t voronoi_reads = 0;          ///< page reads charged to cell computation

  /// Wall time of the query span (Engine::Execute), read from the same
  /// clock as the phase spans nested in it.
  double cpu_ms = 0.0;

  /// Self-time per phase (spans attribute exclusive time, so nested spans
  /// never double-count and the entries sum to at most cpu_ms).  Cell
  /// construction nests no span, so phase_ms[kVoronoi] is the whole time
  /// spent computing Voronoi cells.
  double phase_ms[kNumQueryPhases] = {};

  /// Per-tree-level visited/pruned/descended counts (DESIGN.md §14).
  /// Always populated — the counters are plain adds on state the kernels
  /// already touch, so they change neither allocations nor page reads.
  TraversalProfile traversal;

  /// Total simulated page reads.
  uint64_t TotalReads() const {
    return object_index_reads + feature_index_reads;
  }

  /// Simulated I/O time given a per-read unit cost in milliseconds.
  double IoMillis(double io_unit_cost_ms) const {
    return static_cast<double>(TotalReads()) * io_unit_cost_ms;
  }

  /// Self-time attributed to `phase`.
  double PhaseMillis(QueryPhase phase) const {
    return phase_ms[static_cast<size_t>(phase)];
  }

  /// Sum of all traced phase self-times (<= cpu_ms when every phase span
  /// nests in the query span).
  double TracedMillis() const;

  /// CPU time not attributed to any traced phase (never negative).
  double UntracedMillis() const;

  /// Element-wise accumulation (used to average over a query workload).
  QueryStats& operator+=(const QueryStats& other);

  std::string ToString() const;
};

}  // namespace stpq

#endif  // STPQ_UTIL_METRICS_H_
