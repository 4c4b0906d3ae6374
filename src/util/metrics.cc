#include "util/metrics.h"

#include <algorithm>
#include <sstream>

namespace stpq {

// Regression guard: QueryStats has 11 uint64_t counters, 1 standalone
// double, the phase_ms array, and the traversal profile — all 8-byte
// members (no padding on any supported ABI).  Adding a field changes the
// size and fails this assert — update operator+=, ToString(), and the
// QueryStatsContract tests in util_test.cc, then bump the count.
static_assert(sizeof(TraversalProfile) ==
                  (1 + kMaxProfiledFeatureSets) *
                      TreeTraversalCounts::kNumLevels * 3 * 8,
              "TraversalProfile changed: update QueryStats's contract");
static_assert(sizeof(QueryStats) ==
                  (11 + 1 + kNumQueryPhases) * 8 + sizeof(TraversalProfile),
              "QueryStats changed: update operator+=, ToString(), and the "
              "QueryStatsContract tests, then adjust this assert");

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kCombination:
      return "combination";
    case QueryPhase::kComponentScore:
      return "component_score";
    case QueryPhase::kObjectRetrieval:
      return "object_retrieval";
    case QueryPhase::kVoronoi:
      return "voronoi";
  }
  return "unknown";
}

uint64_t TraversalProfile::TotalVisited() const {
  return object_tree.TotalVisited() + FeatureVisited();
}

uint64_t TraversalProfile::TotalPruned() const {
  return object_tree.TotalPruned() + FeaturePruned();
}

uint64_t TraversalProfile::TotalDescended() const {
  return object_tree.TotalDescended() + FeatureDescended();
}

uint64_t TraversalProfile::FeatureVisited() const {
  uint64_t sum = 0;
  for (const TreeTraversalCounts& t : feature_tree) sum += t.TotalVisited();
  return sum;
}

uint64_t TraversalProfile::FeaturePruned() const {
  uint64_t sum = 0;
  for (const TreeTraversalCounts& t : feature_tree) sum += t.TotalPruned();
  return sum;
}

uint64_t TraversalProfile::FeatureDescended() const {
  uint64_t sum = 0;
  for (const TreeTraversalCounts& t : feature_tree) sum += t.TotalDescended();
  return sum;
}

double QueryStats::TracedMillis() const {
  double sum = 0.0;
  for (double ms : phase_ms) sum += ms;
  return sum;
}

double QueryStats::UntracedMillis() const {
  return std::max(0.0, cpu_ms - TracedMillis());
}

QueryStats& QueryStats::operator+=(const QueryStats& other) {
  object_index_reads += other.object_index_reads;
  feature_index_reads += other.feature_index_reads;
  buffer_hits += other.buffer_hits;
  heap_pushes += other.heap_pushes;
  features_retrieved += other.features_retrieved;
  combinations_generated += other.combinations_generated;
  combinations_emitted += other.combinations_emitted;
  objects_scored += other.objects_scored;
  voronoi_cells += other.voronoi_cells;
  voronoi_clip_features += other.voronoi_clip_features;
  voronoi_reads += other.voronoi_reads;
  cpu_ms += other.cpu_ms;
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    phase_ms[i] += other.phase_ms[i];
  }
  traversal += other.traversal;
  return *this;
}

std::string QueryStats::ToString() const {
  std::ostringstream os;
  os << "reads=" << TotalReads() << " (obj=" << object_index_reads
     << ", feat=" << feature_index_reads << ") hits=" << buffer_hits
     << " heap_pushes=" << heap_pushes
     << " features=" << features_retrieved
     << " combos=" << combinations_emitted << "/" << combinations_generated
     << " scored=" << objects_scored << " cpu_ms=" << cpu_ms;
  if (voronoi_cells > 0 || voronoi_clip_features > 0 || voronoi_reads > 0) {
    os << " voronoi(cells=" << voronoi_cells
       << ", clip_features=" << voronoi_clip_features
       << ", reads=" << voronoi_reads << ")";
  }
  if (traversal.TotalVisited() > 0 || traversal.TotalPruned() > 0 ||
      traversal.TotalDescended() > 0) {
    os << " traversal(obj_visited=" << traversal.object_tree.TotalVisited()
       << ", obj_pruned=" << traversal.object_tree.TotalPruned()
       << ", obj_descended=" << traversal.object_tree.TotalDescended()
       << ", feat_visited=" << traversal.FeatureVisited()
       << ", feat_pruned=" << traversal.FeaturePruned()
       << ", feat_descended=" << traversal.FeatureDescended() << ")";
  }
  if (TracedMillis() > 0.0) {
    os << " phases(";
    bool first = true;
    for (size_t i = 0; i < kNumQueryPhases; ++i) {
      if (!first) os << ", ";
      first = false;
      os << QueryPhaseName(static_cast<QueryPhase>(i)) << "=" << phase_ms[i];
    }
    os << ")";
  }
  return os.str();
}

}  // namespace stpq
