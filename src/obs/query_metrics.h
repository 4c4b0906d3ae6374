// The engine's standard metric set over the global MetricsRegistry.
//
// One QueryMetrics instance caches the instrument handles for every
// stpq_* metric the engine exports, so the per-query feeding cost is a
// fixed set of relaxed atomic adds — no registry lookups, no locks, no
// allocation.  Engine::Execute calls RecordQuery() with the final
// QueryStats of each completed query, RecordRejected() for queries that
// fail validation, and bumps io_failed_total for queries a page fetch
// failed.
#ifndef STPQ_OBS_QUERY_METRICS_H_
#define STPQ_OBS_QUERY_METRICS_H_

#include "obs/metrics_registry.h"
#include "util/metrics.h"

namespace stpq {

class QueryMetrics {
 public:
  /// Handles into MetricsRegistry::Global() (registered on first call).
  static QueryMetrics& Global();

  /// Instruments over `registry` (tests can use a private registry).
  explicit QueryMetrics(MetricsRegistry& registry);

  /// Folds one completed query's counters into the process totals.
  void RecordQuery(const QueryStats& stats);

  /// Counts a query rejected by validation.
  void RecordRejected();

  Counter& queries_total;
  Counter& rejected_total;
  Counter& io_failed_total;
  Counter& pages_read_total;
  Counter& buffer_hits_total;
  Counter& heap_pushes_total;
  Counter& features_retrieved_total;
  Counter& combinations_emitted_total;
  Counter& objects_scored_total;
  Counter& voronoi_cells_total;
  // Traversal-profile totals (tentpole of DESIGN.md §14): node expansions
  // and per-entry prune/descend verdicts, split object tree vs feature
  // trees.
  Counter& object_tree_nodes_visited_total;
  Counter& object_tree_entries_pruned_total;
  Counter& object_tree_entries_descended_total;
  Counter& feature_tree_nodes_visited_total;
  Counter& feature_tree_entries_pruned_total;
  Counter& feature_tree_entries_descended_total;
  HistogramMetric& query_cpu_ms;
  /// Per-phase self-time totals, indexed by QueryPhase.
  Counter* phase_us_total[kNumQueryPhases];
};

}  // namespace stpq

#endif  // STPQ_OBS_QUERY_METRICS_H_
