// Query timing and per-query event tracing (DESIGN.md §12, §14).
//
// Span is the one timing primitive of the query path.  It reads the steady
// clock once when opened and once when closed; from that pair it adds its
// phase self-time to QueryStats, sets the query's cpu_ms, and — when the
// tracer is armed — emits begin/end events carrying the same two readings,
// so trace durations and QueryStats agree to the nanosecond.
//
// Every worker thread owns one fixed-capacity SPSC ring of 32-byte POD
// trace events.  Emission is wait-free and allocation-free after the
// thread's first event (which registers the ring): one relaxed flag load
// when the tracer is idle, plus a bounds check and a store when it is
// recording.  When a ring fills, new events are *dropped and counted* —
// recording never blocks and never reallocates, so the alloc_test and
// golden-I/O guarantees of §13 hold with tracing active.
//
// Span events (query, component-score search, combination round, retrieval
// batch, Voronoi construction, build phase, admin request) are begin/end
// pairs; instant events record individual node visits (tree, level,
// prune/descend verdicts), buffer-pool hits/misses/evictions, and search
// heap high-water marks.  Each event carries the per-query trace id
// assigned by the query span in Engine::Execute, so one ring can hold
// interleaved queries and the exporter (obs/trace_export.h) can still
// attribute every event.  The TraversalProfile counters in QueryStats are
// not part of tracing and are always recorded.
#ifndef STPQ_OBS_TRACE_H_
#define STPQ_OBS_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "util/metrics.h"
#include "util/thread_annotations.h"

namespace stpq {

/// What a trace event describes.  The first five and kBuildPhase are span
/// types (begin/end pairs); the rest are instants.
enum class TraceEventType : uint8_t {
  kQuery = 0,          ///< one Engine::Execute call
  kComponentScore,     ///< one tau_i(p) search / batch search
  kCombinationRound,   ///< one CombinationIterator::Next call
  kRetrievalBatch,     ///< one data-object retrieval traversal
  kVoronoiCell,        ///< one Voronoi cell construction
  kNodeVisit,          ///< one index-node expansion (instant)
  kPoolHit,            ///< buffer-pool hit (instant)
  kPoolMiss,           ///< buffer-pool miss = simulated read (instant)
  kPoolEvict,          ///< buffer-pool eviction (instant)
  kHeapHighWater,      ///< search-heap high-water mark (instant)
  kBuildPhase,         ///< one external bulk-load phase (span)
  kAdminRequest,       ///< one admin-server HTTP request (span)
};

inline constexpr size_t kNumTraceEventTypes = 12;

/// Stable lowercase name ("query", "node_visit", ...), used as the Chrome
/// trace event name.
const char* TraceEventTypeName(TraceEventType type);

/// Span phase of an event.
enum class TraceMark : uint8_t {
  kBegin = 0,
  kEnd,
  kInstant,
};

/// `tree` value of a kNodeVisit event addressing the object R-tree (other
/// values are feature-set ordinals).
inline constexpr uint8_t kTraceObjectTree = 0xff;

/// One ring slot.  Arg semantics depend on `type`:
///   kQuery:          arg_c = trace id
///   kComponentScore: arg_c = feature set ordinal
///   kNodeVisit:      arg_a = tree (kTraceObjectTree or set ordinal),
///                    arg_b = node level (0 = leaf),
///                    arg_c = (pruned << 16) | descended (each capped),
///                    arg_d = node id
///   kPool*:          arg_d = page id;
///                    kPoolMiss: arg_a = storage backend tag
///                    (static_cast<uint8_t>(StorageBackend), 0 = simulated)
///   kHeapHighWater:  arg_d = max heap size observed by the span
struct TraceEvent {
  uint64_t ts_ns = 0;    ///< steady-clock nanos since the tracer epoch
  uint32_t trace_id = 0; ///< per-query id (0 = outside any query)
  TraceEventType type = TraceEventType::kQuery;
  TraceMark mark = TraceMark::kInstant;
  uint8_t arg_a = 0;
  uint8_t arg_b = 0;
  uint32_t arg_c = 0;
  uint64_t arg_d = 0;
};

static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay one cache "
                                        "half-line: fix the field packing");

/// Single-producer single-consumer ring of trace events.  The producer is
/// the owning thread (TryEmit); consumers (Collect, slow-query capture)
/// serialize against each other on an internal mutex the producer never
/// touches.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two; allocation happens here
  /// and never again.
  TraceRing(uint32_t thread_ordinal, size_t capacity);

  /// Appends `e`; returns false (and counts a drop) when full.  Producer
  /// thread only.  Never allocates.
  bool TryEmit(const TraceEvent& e);

  /// Consumes every pending event.  Events are appended to `out` (may be
  /// nullptr to discard); when `keep_all` is false only events whose
  /// trace id equals `filter_trace_id` are kept.
  void Drain(bool keep_all, uint32_t filter_trace_id,
             std::vector<TraceEvent>* out) STPQ_EXCLUDES(consume_mu_);

  /// Drops recorded since the last TakeDropped call.
  uint64_t TakeDropped() {
    return dropped_.exchange(0, std::memory_order_relaxed);
  }

  uint32_t thread_ordinal() const { return thread_ordinal_; }

 private:
  const uint32_t thread_ordinal_;
  size_t mask_;
  std::vector<TraceEvent> buf_;
  /// Serializes concurrent consumers (Collect vs. slow-query capture);
  /// the ring state itself is the SPSC atomic head_/tail_ pair, which the
  /// lock-free producer also touches, so no member can be GUARDED_BY it.
  // stpq-lint: allow(mutex-guard) consumer-ordering lock over atomics
  Mutex consume_mu_;
  alignas(64) std::atomic<uint64_t> head_{0};  ///< next slot to write
  alignas(64) std::atomic<uint64_t> tail_{0};  ///< next slot to read
  std::atomic<uint64_t> dropped_{0};
};

/// Events drained from one ring, tagged with the owning thread's ordinal.
struct TraceThreadEvents {
  uint32_t thread_ordinal = 0;
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
};

/// Everything collected from the tracer at one point in time.
struct TraceCollection {
  std::vector<TraceThreadEvents> threads;
  uint64_t dropped = 0;  ///< sum over threads

  size_t TotalEvents() const {
    size_t n = 0;
    for (const TraceThreadEvents& t : threads) n += t.events.size();
    return n;
  }
  bool Empty() const { return TotalEvents() == 0; }
};

/// Steady-clock reading in nanoseconds: the clock every Span reads.
inline int64_t SteadyClockNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The process-wide tracer.  Start() arms recording; rings register
/// lazily on each thread's first emission and live for the process
/// lifetime (reused if the same thread traces again).
class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = size_t{1} << 16;

  static Tracer& Global();

  /// Arms recording.  `ring_capacity` applies to rings created after this
  /// call; existing rings keep their size.
  void Start(size_t ring_capacity = kDefaultRingCapacity) STPQ_EXCLUDES(mu_);

  /// Disarms recording; already-recorded events stay collectable.
  void Stop();

  /// Whether emission points should record.  One relaxed atomic load.
  static bool Active() {
    return active_.load(std::memory_order_relaxed);
  }

  /// Allocates a fresh nonzero per-query trace id.
  uint32_t NextTraceId() {
    uint32_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
    return id == 0 ? next_trace_id_.fetch_add(1, std::memory_order_relaxed)
                   : id;
  }

  /// Drains every ring into a collection (consumes the events).
  TraceCollection Collect() STPQ_EXCLUDES(mu_);

  /// Discards all pending events and drop counts (tests / re-arming).
  void Discard() STPQ_EXCLUDES(mu_);

  /// Records one event on the calling thread's ring, stamped now.  No-op
  /// when the tracer is idle.  The first call on a thread allocates its
  /// ring.
  static void Emit(TraceEventType type, TraceMark mark, uint8_t arg_a,
                   uint8_t arg_b, uint32_t arg_c, uint64_t arg_d);

  /// Records one span event stamped with `clock_ns`, a SteadyClockNs()
  /// reading taken while the tracer was armed.  Records even if the tracer
  /// was stopped since, so a recorded begin always gets its end.
  static void EmitAt(int64_t clock_ns, TraceEventType type, TraceMark mark,
                     uint32_t arg_c, uint64_t arg_d);

  /// Consumes the calling thread's pending events, keeping those with
  /// `trace_id` (slow-query capture).  Nothing happens if the thread has
  /// never emitted.
  static void DrainCurrentThread(uint32_t trace_id,
                                 std::vector<TraceEvent>* out);

  /// The trace id stamped on events emitted by this thread.
  static uint32_t CurrentTraceId() { return tls_trace_id_; }
  static void SetCurrentTraceId(uint32_t id) { tls_trace_id_ = id; }

  /// Ordinal of the calling thread's ring (0 before the first emission).
  static uint32_t CurrentThreadOrdinal() {
    return tls_ring_ != nullptr ? tls_ring_->thread_ordinal() : 0;
  }

  /// Nanoseconds since the tracer epoch (pinned by the first Global()).
  static uint64_t NowNs();

 private:
  Tracer() = default;

  TraceRing* RingForThisThread() STPQ_EXCLUDES(mu_);

  /// Appends one event to the calling thread's ring.
  static void Record(uint64_t ts_ns, TraceEventType type, TraceMark mark,
                     uint8_t arg_a, uint8_t arg_b, uint32_t arg_c,
                     uint64_t arg_d);

  Mutex mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_ STPQ_GUARDED_BY(mu_);
  size_t ring_capacity_ STPQ_GUARDED_BY(mu_) = kDefaultRingCapacity;
  std::atomic<uint32_t> next_trace_id_{1};

  static std::atomic<bool> active_;
  static thread_local TraceRing* tls_ring_;
  static thread_local uint32_t tls_trace_id_;
};

/// The span event type each QueryPhase emits, indexed by phase.
inline constexpr TraceEventType kPhaseSpanEvent[kNumQueryPhases] = {
    TraceEventType::kCombinationRound,  // QueryPhase::kCombination
    TraceEventType::kComponentScore,    // QueryPhase::kComponentScore
    TraceEventType::kRetrievalBatch,    // QueryPhase::kObjectRetrieval
    TraceEventType::kVoronoiCell,       // QueryPhase::kVoronoi
};

/// RAII span over the rest of the enclosing block.  Three forms:
///
///   Span span(stats, phase, arg_c, arg_d);  // phase span
///   Span span(stats);                       // query span
///   Span span(type, arg_c, arg_d);          // trace-only span
///
/// Spans with a stats target read the clock at open and at close.  A
/// phase span adds its self-time — elapsed time minus the elapsed time of
/// the stats-target spans nested in it, whichever QueryStats those write
/// to — to `stats.phase_ms[phase]`, so phase entries never double-count.
/// The query span sets `stats.cpu_ms` to its elapsed time; when the tracer
/// is armed it also assigns a fresh trace id and stamps it on the thread
/// until it closes.  Such spans nest through a thread-local slot and must
/// close in LIFO order on the thread that opened them.
///
/// When the tracer is armed at open, a span emits a begin event and, at
/// close, an end event, stamped with those same two clock readings; the
/// event type of a phase span comes from kPhaseSpanEvent.  A trace-only
/// span (build phases, admin requests) has no stats target: it reads no
/// clock while the tracer is idle and takes no part in self-time.
class Span {
 public:
  Span(QueryStats& stats, QueryPhase phase, uint32_t arg_c = 0,
       uint64_t arg_d = 0)
      : type_(kPhaseSpanEvent[static_cast<size_t>(phase)]),
        phase_(static_cast<uint8_t>(phase)),
        stats_(&stats) {
    Open(arg_c, arg_d);
  }

  explicit Span(QueryStats& stats)
      : type_(TraceEventType::kQuery), stats_(&stats) {
    if (recording_) {
      trace_id_ = Tracer::Global().NextTraceId();
      prev_trace_id_ = Tracer::CurrentTraceId();
      Tracer::SetCurrentTraceId(trace_id_);
    }
    Open(trace_id_, 0);
  }

  explicit Span(TraceEventType type, uint32_t arg_c = 0, uint64_t arg_d = 0)
      : type_(type) {
    Open(arg_c, arg_d);
  }

  ~Span() { End(); }

  /// Closes the span early (the query span closes before the slow-query
  /// log drains the ring); later calls and the destructor do nothing.
  void End() {
    if (closed_) return;
    closed_ = true;
    const int64_t end_ns =
        stats_ != nullptr || recording_ ? SteadyClockNs() : 0;
    if (stats_ != nullptr) {
      const int64_t elapsed_ns = end_ns - begin_ns_;
      if (phase_ == kQuerySpan) {
        stats_->cpu_ms = NsToMillis(elapsed_ns);
      } else {
        stats_->phase_ms[phase_] += NsToMillis(elapsed_ns - child_ns_);
      }
      if (parent_ != nullptr) parent_->child_ns_ += elapsed_ns;
      current_ = parent_;
    }
    if (recording_) {
      Tracer::EmitAt(end_ns, type_, TraceMark::kEnd, trace_id_, 0);
      if (trace_id_ != 0) Tracer::SetCurrentTraceId(prev_trace_id_);
    }
  }

  /// The query span's trace id (0 when the tracer was idle at open, and
  /// for every other span).
  uint32_t trace_id() const { return trace_id_; }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr uint8_t kQuerySpan = kNumQueryPhases;

  static double NsToMillis(int64_t ns) {
    return static_cast<double>(ns) / 1e6;
  }

  void Open(uint32_t arg_c, uint64_t arg_d) {
    if (stats_ != nullptr) {
      parent_ = current_;
      current_ = this;
    }
    if (stats_ != nullptr || recording_) begin_ns_ = SteadyClockNs();
    if (recording_) {
      Tracer::EmitAt(begin_ns_, type_, TraceMark::kBegin, arg_c, arg_d);
    }
  }

  /// Innermost open stats-target span on this thread.
  static inline thread_local Span* current_ = nullptr;

  // recording_ comes first: the tracer flag is read before any other field
  // is stored, so an idle trace-only span folds down to that one load.
  bool recording_ = Tracer::Active();
  bool closed_ = false;
  TraceEventType type_;
  uint8_t phase_ = kQuerySpan;  ///< QueryPhase, or kQuerySpan
  uint32_t trace_id_ = 0;
  uint32_t prev_trace_id_ = 0;
  QueryStats* stats_ = nullptr;
  Span* parent_ = nullptr;
  int64_t begin_ns_ = 0;
  int64_t child_ns_ = 0;  ///< elapsed time of the spans nested in this one
};

/// Tracks a search heap's high-water mark and emits one kHeapHighWater
/// instant at scope exit.  Recording is latched at construction, so an
/// idle tracer costs one branch per Observe call and nothing at exit.
class HeapWatermark {
 public:
  HeapWatermark() : active_(Tracer::Active()) {}

  void Observe(size_t size) {
    if (active_ && size > high_water_) high_water_ = size;
  }

  ~HeapWatermark() {
    if (active_ && high_water_ > 0) {
      Tracer::Emit(TraceEventType::kHeapHighWater, TraceMark::kInstant, 0, 0,
                   0, high_water_);
    }
  }

  HeapWatermark(const HeapWatermark&) = delete;
  HeapWatermark& operator=(const HeapWatermark&) = delete;

 private:
  bool active_;
  size_t high_water_ = 0;
};

/// kNodeVisit `tree` value for feature set `ordinal` (clamped below the
/// object-tree sentinel; real ordinals are bounded by kMaxFeatureSets).
inline uint8_t TraceTreeForSet(uint32_t ordinal) {
  return static_cast<uint8_t>(
      ordinal < kTraceObjectTree ? ordinal : kTraceObjectTree - 1);
}

/// Records one node expansion in the query's traversal profile and, when
/// the tracer is recording, as a kNodeVisit instant.  `tree` is
/// kTraceObjectTree or a feature-set ordinal; `pruned`/`descended` count
/// the verdicts over the node's child entries.
inline void RecordNodeVisit(QueryStats& stats, uint8_t tree, unsigned level,
                            uint64_t node_id, uint32_t pruned,
                            uint32_t descended) {
  TreeTraversalCounts& counts = tree == kTraceObjectTree
                                    ? stats.traversal.object_tree
                                    : stats.traversal.FeatureTree(tree);
  counts.RecordVisit(level, pruned, descended);
  if (Tracer::Active()) {
    const uint32_t verdicts =
        (std::min<uint32_t>(pruned, 0xffff) << 16) |
        std::min<uint32_t>(descended, 0xffff);
    Tracer::Emit(TraceEventType::kNodeVisit, TraceMark::kInstant, tree,
                 static_cast<uint8_t>(level < 0xff ? level : 0xff), verdicts,
                 node_id);
  }
}

/// One captured slow query: its trace id, latency, final stats, and the
/// events its executing thread recorded for it (empty when the tracer was
/// idle).
struct SlowQueryRecord {
  uint32_t trace_id = 0;
  uint32_t thread_ordinal = 0;  ///< ring the events came from
  double elapsed_ms = 0.0;
  QueryStats stats;
  std::vector<TraceEvent> events;
};

/// Thread-safe bounded retention of the most recent queries at or above a
/// latency threshold; the oldest record is evicted, and counted, when a
/// new one would exceed `max_records`.  Engine::Execute offers every
/// completed query; the offer additionally drains the executing thread's
/// ring (keeping only the offered query's events), which doubles as
/// per-query ring hygiene during long captures.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(double threshold_ms, size_t max_records = 32)
      : threshold_ms_(threshold_ms), max_records_(max_records) {}

  /// Called on the thread that executed the query, after completion.
  void Offer(uint32_t trace_id, double elapsed_ms, const QueryStats& stats)
      STPQ_EXCLUDES(mu_);

  /// Copies the retained records, most recent last.
  std::vector<SlowQueryRecord> Snapshot() const STPQ_EXCLUDES(mu_);

  size_t size() const STPQ_EXCLUDES(mu_);
  /// Qualifying queries evicted so far to stay within max_records.
  uint64_t dropped() const STPQ_EXCLUDES(mu_);
  double threshold_ms() const { return threshold_ms_; }

 private:
  const double threshold_ms_;
  const size_t max_records_;
  mutable Mutex mu_;
  std::deque<SlowQueryRecord> records_ STPQ_GUARDED_BY(mu_);
  uint64_t dropped_ STPQ_GUARDED_BY(mu_) = 0;
};

}  // namespace stpq

/// Records one instant event when the tracer is recording.
#define STPQ_TRACE_INSTANT(type, arg_a, arg_b, arg_c, arg_d)               \
  do {                                                                     \
    if (::stpq::Tracer::Active()) {                                        \
      ::stpq::Tracer::Emit(type, ::stpq::TraceMark::kInstant, arg_a,       \
                           arg_b, arg_c, arg_d);                           \
    }                                                                      \
  } while (false)

#endif  // STPQ_OBS_TRACE_H_
