#include "obs/query_metrics.h"

#include <string>

namespace stpq {

// stpq-lint: allow(hot-alloc) leaky singleton: one allocation per process
QueryMetrics& QueryMetrics::Global() {
  static QueryMetrics* metrics = new QueryMetrics(MetricsRegistry::Global());
  return *metrics;
}

// stpq-lint: allow(hot-alloc) runs once, registering metric names at startup
QueryMetrics::QueryMetrics(MetricsRegistry& registry)
    : queries_total(registry.GetCounter(
          "stpq_queries_total", "Queries executed to completion")),
      rejected_total(registry.GetCounter(
          "stpq_queries_rejected_total",
          "Queries rejected by validation before execution")),
      io_failed_total(registry.GetCounter(
          "stpq_query_io_failed_total",
          "Queries failed by a page fetch (IoError or Corruption)")),
      pages_read_total(registry.GetCounter(
          "stpq_pages_read_total", "Simulated page reads (buffer misses)")),
      buffer_hits_total(registry.GetCounter(
          "stpq_buffer_hits_total", "Buffer-pool hits (no I/O charged)")),
      heap_pushes_total(registry.GetCounter(
          "stpq_heap_pushes_total", "Entries pushed on any search heap")),
      features_retrieved_total(registry.GetCounter(
          "stpq_features_retrieved_total",
          "Feature objects retrieved in sorted score order")),
      combinations_emitted_total(registry.GetCounter(
          "stpq_combinations_emitted_total",
          "Combinations emitted by Algorithm 4's iterator")),
      objects_scored_total(registry.GetCounter(
          "stpq_objects_scored_total", "Data objects scored or fetched")),
      voronoi_cells_total(registry.GetCounter(
          "stpq_voronoi_cells_total", "Voronoi cells computed (NN variant)")),
      object_tree_nodes_visited_total(registry.GetCounter(
          "stpq_object_tree_nodes_visited_total",
          "Object R-tree nodes expanded by query traversals")),
      object_tree_entries_pruned_total(registry.GetCounter(
          "stpq_object_tree_entries_pruned_total",
          "Object R-tree child entries pruned during traversal")),
      object_tree_entries_descended_total(registry.GetCounter(
          "stpq_object_tree_entries_descended_total",
          "Object R-tree child entries descended into or accepted")),
      feature_tree_nodes_visited_total(registry.GetCounter(
          "stpq_feature_tree_nodes_visited_total",
          "Feature-index nodes expanded by query traversals")),
      feature_tree_entries_pruned_total(registry.GetCounter(
          "stpq_feature_tree_entries_pruned_total",
          "Feature-index child entries pruned during traversal")),
      feature_tree_entries_descended_total(registry.GetCounter(
          "stpq_feature_tree_entries_descended_total",
          "Feature-index child entries descended into or accepted")),
      query_cpu_ms(registry.GetHistogram(
          "stpq_query_cpu_ms", "Per-query CPU time in milliseconds")) {
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    const char* phase = QueryPhaseName(static_cast<QueryPhase>(i));
    phase_us_total[i] = &registry.GetCounter(
        std::string("stpq_phase_") + phase + "_us_total",
        std::string("Self-time spent in the ") + phase +
            " phase, microseconds");
  }
}

void QueryMetrics::RecordQuery(const QueryStats& stats) {
  queries_total.Increment();
  pages_read_total.Increment(stats.TotalReads());
  buffer_hits_total.Increment(stats.buffer_hits);
  heap_pushes_total.Increment(stats.heap_pushes);
  features_retrieved_total.Increment(stats.features_retrieved);
  combinations_emitted_total.Increment(stats.combinations_emitted);
  objects_scored_total.Increment(stats.objects_scored);
  voronoi_cells_total.Increment(stats.voronoi_cells);
  object_tree_nodes_visited_total.Increment(
      stats.traversal.object_tree.TotalVisited());
  object_tree_entries_pruned_total.Increment(
      stats.traversal.object_tree.TotalPruned());
  object_tree_entries_descended_total.Increment(
      stats.traversal.object_tree.TotalDescended());
  feature_tree_nodes_visited_total.Increment(stats.traversal.FeatureVisited());
  feature_tree_entries_pruned_total.Increment(stats.traversal.FeaturePruned());
  feature_tree_entries_descended_total.Increment(
      stats.traversal.FeatureDescended());
  query_cpu_ms.Record(stats.cpu_ms);
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    phase_us_total[i]->Increment(
        static_cast<uint64_t>(stats.phase_ms[i] * 1000.0));
  }
}

void QueryMetrics::RecordRejected() { rejected_total.Increment(); }

}  // namespace stpq
