#include "obs/trace.h"

namespace stpq {

namespace {

/// Epoch every timestamp is relative to (a SteadyClockNs() reading): fixed
/// once per process so lanes from different threads share one timeline.
int64_t EpochNs() {
  static const int64_t epoch = SteadyClockNs();
  return epoch;
}

/// The calling thread's ring, null until its first event.  The emission
/// path reads only this pointer; the owner below is touched once per
/// thread, when the ring is allocated.
thread_local TraceRing* tls_ring = nullptr;

/// Owns the thread's ring: hands its last events off and frees it when the
/// thread exits.
struct ThreadRingOwner {
  std::unique_ptr<TraceRing> ring;
  ~ThreadRingOwner() {
    Tracer::HandOff();
    tls_ring = nullptr;
  }
};

thread_local ThreadRingOwner tls_ring_owner;

}  // namespace

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kQuery:
      return "query";
    case TraceEventType::kComponentScore:
      return "component_score";
    case TraceEventType::kCombinationRound:
      return "combination_round";
    case TraceEventType::kRetrievalBatch:
      return "retrieval_batch";
    case TraceEventType::kVoronoiCell:
      return "voronoi_cell";
    case TraceEventType::kNodeVisit:
      return "node_visit";
    case TraceEventType::kPoolHit:
      return "pool_hit";
    case TraceEventType::kPoolMiss:
      return "pool_miss";
    case TraceEventType::kHeapHighWater:
      return "heap_high_water";
    case TraceEventType::kBuildPhase:
      return "build_phase";
    case TraceEventType::kAdminRequest:
      return "admin_request";
  }
  return "unknown";
}

TraceRing::TraceRing(uint32_t thread_ordinal)
    : thread_ordinal_(thread_ordinal),
      slots_(std::make_unique<TraceEvent[]>(kCapacity)) {}

std::atomic<bool> Tracer::active_{false};
thread_local uint32_t Tracer::tls_trace_id_ = 0;

// stpq-lint: allow(hot-alloc) leaky singleton: one allocation per process
Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  // Pin the epoch before the first event so timestamps never go negative.
  (void)EpochNs();
  return *tracer;
}

void Tracer::Start() { active_.store(true, std::memory_order_release); }

void Tracer::Stop() { active_.store(false, std::memory_order_release); }

void Tracer::HandOff(uint32_t trace_id, std::vector<TraceEvent>* query_events) {
  TraceRing* const ring = tls_ring;
  if (ring == nullptr) return;
  if (query_events != nullptr) {
    for (const TraceEvent& e : ring->events()) {
      if (e.trace_id == trace_id) query_events->push_back(e);
    }
  }
  Global().Fold(*ring);
  ring->Clear();
}

void Tracer::Fold(const TraceRing& ring) {
  const std::span<const TraceEvent> batch = ring.events();
  const uint32_t ordinal = ring.thread_ordinal();
  MutexLock lock(mu_);
  if (lanes_.size() <= ordinal) lanes_.resize(ordinal + 1);
  std::vector<TraceEvent>& lane = lanes_[ordinal];
  const size_t kept =
      std::min(batch.size(), TraceRing::kCapacity - lane.size());
  lane.insert(lane.end(), batch.begin(), batch.begin() + kept);
  summary_.events += batch.size();
  summary_.dropped += ring.dropped();
  for (const TraceEvent& e : batch) {
    TraceSummary::TypeTotals& totals =
        summary_.types[static_cast<size_t>(e.type)];
    if (e.mark == TraceMark::kInstant) {
      ++totals.instants;
    } else if (e.mark == TraceMark::kEnd) {
      const double ms = static_cast<double>(e.arg_d) / 1e6;
      ++totals.spans;
      totals.span_total_ms += ms;
      if (e.type == TraceEventType::kQuery) {
        summary_.recent_queries.emplace_back(e.arg_c, ms);
        if (summary_.recent_queries.size() > TraceSummary::kRecentQueries) {
          summary_.recent_queries.pop_front();
        }
      }
    }
  }
}

TraceCollection Tracer::Lanes() const {
  TraceCollection out;
  MutexLock lock(mu_);
  for (uint32_t ordinal = 0; ordinal < lanes_.size(); ++ordinal) {
    if (lanes_[ordinal].empty()) continue;
    out.threads.push_back({ordinal, lanes_[ordinal]});
  }
  // The events a full lane turned away were handed off, so they are in
  // the summary, but not in this export.
  out.dropped = summary_.dropped + (summary_.events - out.TotalEvents());
  return out;
}

TraceSummary Tracer::Summary() const {
  MutexLock lock(mu_);
  return summary_;
}

void Tracer::Discard() {
  if (tls_ring != nullptr) tls_ring->Clear();
  MutexLock lock(mu_);
  lanes_.clear();
  summary_ = TraceSummary{};
}

void Tracer::Emit(TraceEventType type, TraceMark mark, uint8_t arg_a,
                  uint8_t arg_b, uint32_t arg_c, uint64_t arg_d) {
  if (!Active()) return;
  Record(SteadyClockNs(), type, mark, arg_a, arg_b, arg_c, arg_d);
}

void Tracer::EmitAt(int64_t clock_ns, TraceEventType type, TraceMark mark,
                    uint32_t arg_c, uint64_t arg_d) {
  Record(clock_ns, type, mark, 0, 0, arg_c, arg_d);
}

void Tracer::Record(int64_t clock_ns, TraceEventType type, TraceMark mark,
                    uint8_t arg_a, uint8_t arg_b, uint32_t arg_c,
                    uint64_t arg_d) {
  if (tls_ring == nullptr) {
    tls_ring_owner.ring = std::make_unique<TraceRing>(
        Global().next_thread_ordinal_.fetch_add(1, std::memory_order_relaxed));
    tls_ring = tls_ring_owner.ring.get();
  }
  TraceEvent e;
  e.ts_ns = static_cast<uint64_t>(clock_ns - EpochNs());
  e.trace_id = tls_trace_id_;
  e.type = type;
  e.mark = mark;
  e.arg_a = arg_a;
  e.arg_b = arg_b;
  e.arg_c = arg_c;
  e.arg_d = arg_d;
  tls_ring->TryEmit(e);
}

uint32_t Tracer::CurrentThreadOrdinal() {
  return tls_ring != nullptr ? tls_ring->thread_ordinal() : 0;
}

void SlowQueryLog::Offer(uint32_t trace_id, double elapsed_ms,
                         const QueryStats& stats,
                         std::vector<TraceEvent> events) {
  if (elapsed_ms < threshold_ms_) return;
  SlowQueryRecord record;
  record.trace_id = trace_id;
  record.thread_ordinal = Tracer::CurrentThreadOrdinal();
  record.elapsed_ms = elapsed_ms;
  record.stats = stats;
  record.events = std::move(events);
  MutexLock lock(mu_);
  records_.push_back(std::move(record));
  while (records_.size() > max_records_) {
    records_.pop_front();
    ++dropped_;
  }
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  MutexLock lock(mu_);
  return {records_.begin(), records_.end()};
}

size_t SlowQueryLog::size() const {
  MutexLock lock(mu_);
  return records_.size();
}

uint64_t SlowQueryLog::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

}  // namespace stpq
