#include "obs/trace.h"

namespace stpq {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Epoch every timestamp is relative to (a SteadyClockNs() reading): fixed
/// once per process so rings from different threads share one timeline.
int64_t EpochNs() {
  static const int64_t epoch = SteadyClockNs();
  return epoch;
}

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
    case TraceEventType::kPoolEvict:
      return "pool_evict";
    case TraceEventType::kHeapHighWater:
      return "heap_high_water";
    case TraceEventType::kBuildPhase:
      return "build_phase";
    case TraceEventType::kAdminRequest:
      return "admin_request";
  }
  return "unknown";
}

TraceRing::TraceRing(uint32_t thread_ordinal, size_t capacity)
    : thread_ordinal_(thread_ordinal),
      mask_(RoundUpPow2(capacity < 2 ? 2 : capacity) - 1),
      buf_(mask_ + 1) {}

bool TraceRing::TryEmit(const TraceEvent& e) {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  const uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail > mask_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  buf_[head & mask_] = e;
  head_.store(head + 1, std::memory_order_release);
  return true;
}

void TraceRing::Drain(bool keep_all, uint32_t filter_trace_id,
                      std::vector<TraceEvent>* out) {
  MutexLock lock(consume_mu_);
  const uint64_t head = head_.load(std::memory_order_acquire);
  uint64_t tail = tail_.load(std::memory_order_relaxed);
  for (; tail != head; ++tail) {
    const TraceEvent& e = buf_[tail & mask_];
    if (out != nullptr && (keep_all || e.trace_id == filter_trace_id)) {
      out->push_back(e);
    }
  }
  tail_.store(tail, std::memory_order_release);
}

std::atomic<bool> Tracer::active_{false};
thread_local TraceRing* Tracer::tls_ring_ = nullptr;
thread_local uint32_t Tracer::tls_trace_id_ = 0;

// stpq-lint: allow(hot-alloc) leaky singleton: one allocation per process
Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  // Pin the epoch before the first event so timestamps never go negative.
  (void)EpochNs();
  return *tracer;
}

void Tracer::Start(size_t ring_capacity) {
  {
    MutexLock lock(mu_);
    ring_capacity_ = ring_capacity < 2 ? 2 : ring_capacity;
  }
  active_.store(true, std::memory_order_release);
}

void Tracer::Stop() { active_.store(false, std::memory_order_release); }

TraceCollection Tracer::Collect() {
  TraceCollection out;
  MutexLock lock(mu_);
  for (const std::unique_ptr<TraceRing>& ring : rings_) {
    TraceThreadEvents t;
    t.thread_ordinal = ring->thread_ordinal();
    ring->Drain(/*keep_all=*/true, 0, &t.events);
    t.dropped = ring->TakeDropped();
    out.dropped += t.dropped;
    if (!t.events.empty() || t.dropped > 0) {
      out.threads.push_back(std::move(t));
    }
  }
  return out;
}

void Tracer::Discard() {
  MutexLock lock(mu_);
  for (const std::unique_ptr<TraceRing>& ring : rings_) {
    ring->Drain(/*keep_all=*/false, 0, nullptr);
    (void)ring->TakeDropped();
  }
}

TraceRing* Tracer::RingForThisThread() {
  if (tls_ring_ == nullptr) {
    MutexLock lock(mu_);
    rings_.push_back(std::make_unique<TraceRing>(
        static_cast<uint32_t>(rings_.size()), ring_capacity_));
    tls_ring_ = rings_.back().get();
  }
  return tls_ring_;
}

void Tracer::Emit(TraceEventType type, TraceMark mark, uint8_t arg_a,
                  uint8_t arg_b, uint32_t arg_c, uint64_t arg_d) {
  if (!Active()) return;
  Record(NowNs(), type, mark, arg_a, arg_b, arg_c, arg_d);
}

void Tracer::EmitAt(int64_t clock_ns, TraceEventType type, TraceMark mark,
                    uint32_t arg_c, uint64_t arg_d) {
  Record(static_cast<uint64_t>(clock_ns - EpochNs()), type, mark, 0, 0, arg_c,
         arg_d);
}

void Tracer::Record(uint64_t ts_ns, TraceEventType type, TraceMark mark,
                    uint8_t arg_a, uint8_t arg_b, uint32_t arg_c,
                    uint64_t arg_d) {
  TraceEvent e;
  e.ts_ns = ts_ns;
  e.trace_id = tls_trace_id_;
  e.type = type;
  e.mark = mark;
  e.arg_a = arg_a;
  e.arg_b = arg_b;
  e.arg_c = arg_c;
  e.arg_d = arg_d;
  Global().RingForThisThread()->TryEmit(e);
}

void Tracer::DrainCurrentThread(uint32_t trace_id,
                                std::vector<TraceEvent>* out) {
  if (tls_ring_ == nullptr) return;
  tls_ring_->Drain(/*keep_all=*/false, trace_id, out);
}

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(SteadyClockNs() - EpochNs());
}

void SlowQueryLog::Offer(uint32_t trace_id, double elapsed_ms,
                         const QueryStats& stats) {
  std::vector<TraceEvent> events;
  // Consume this thread's pending events whether or not the query was
  // slow: discarding fast queries keeps the ring from filling up over a
  // long capture session.
  Tracer::DrainCurrentThread(trace_id, &events);
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
