// Micro-benchmarks (google-benchmark) for the substrate operations:
// Hilbert transcoding, keyword-set algebra, signatures, score and Voronoi
// kernels, tracing, and the buffer pool and page stores.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/combination.h"
#include "core/compute_score.h"
#include "core/engine.h"
#include "core/exec_session.h"
#include "core/voronoi.h"
#include "gen/synthetic.h"
#include "hilbert/hilbert.h"
#include "hilbert/keyword_hilbert.h"
#include "index/srt_index.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "text/keyword_set.h"
#include "text/signature.h"
#include "util/rng.h"

namespace stpq {
namespace {

void BM_HilbertKey2D(benchmark::State& state) {
  uint32_t coords[2] = {12345, 54321};
  for (auto _ : state) {
    benchmark::DoNotOptimize(HilbertKey(coords, 16, 2));
    coords[0] += 7;
  }
}
BENCHMARK(BM_HilbertKey2D);

void BM_HilbertKey4D(benchmark::State& state) {
  uint32_t coords[4] = {123, 456, 789, 1011};
  for (auto _ : state) {
    benchmark::DoNotOptimize(HilbertKey(coords, 16, 4));
    coords[2] += 3;
  }
}
BENCHMARK(BM_HilbertKey4D);

void BM_EncodeKeywords(benchmark::State& state) {
  const uint32_t w = static_cast<uint32_t>(state.range(0));
  Rng rng(1);
  KeywordSet set(w);
  for (int i = 0; i < 4; ++i) {
    set.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeKeywords(set));
  }
}
BENCHMARK(BM_EncodeKeywords)->Arg(64)->Arg(128)->Arg(256);

void BM_AggregateHilbert(benchmark::State& state) {
  const uint32_t w = static_cast<uint32_t>(state.range(0));
  Rng rng(2);
  KeywordSet a(w), b(w);
  for (int i = 0; i < 4; ++i) {
    a.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
    b.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
  }
  HilbertValue ha = EncodeKeywords(a), hb = EncodeKeywords(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AggregateHilbert(ha, hb, w));
  }
}
BENCHMARK(BM_AggregateHilbert)->Arg(128)->Arg(256);

void BM_Jaccard(benchmark::State& state) {
  const uint32_t w = static_cast<uint32_t>(state.range(0));
  Rng rng(3);
  KeywordSet a(w), b(w);
  for (int i = 0; i < 4; ++i) {
    a.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
    b.Insert(static_cast<TermId>(rng.UniformInt(0, w - 1)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Jaccard(b));
  }
}
BENCHMARK(BM_Jaccard)->Arg(128)->Arg(256);

void BM_SignatureMatch(benchmark::State& state) {
  SignatureScheme scheme(256, 3);
  Rng rng(4);
  KeywordSet set(128), query(128);
  for (int i = 0; i < 4; ++i) {
    set.Insert(static_cast<TermId>(rng.UniformInt(0, 127)));
    query.Insert(static_cast<TermId>(rng.UniformInt(0, 127)));
  }
  Signature sig = scheme.SetSignature(set);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.UpperBoundIntersect(sig, query));
  }
}
BENCHMARK(BM_SignatureMatch);

/// Pre-drawn page sequence: keeps the RNG's 64-bit division out of the
/// timed loop (it costs as much as the pool access being measured).
std::vector<PageId> PageSequence(uint64_t seed, PageId max_page) {
  Rng rng(seed);
  std::vector<PageId> seq(4096);
  for (PageId& p : seq) p = rng.UniformInt(0, max_page);
  return seq;
}

/// An in-memory store of `pages` 64-byte pages at page ids [0, pages).
SimulatedPageStore MemoryStore(uint64_t pages) {
  std::vector<SimulatedPageStore::Extent> extents;
  extents.push_back({0, pages, 64, std::vector<uint8_t>(pages * 64, 0)});
  return SimulatedPageStore(std::move(extents));
}

/// One cold query's access mix: 4096 random touches of 4096 pages (about
/// 63% first touches, each a read), then Reset for the next query.
void BM_BufferPoolAccess(benchmark::State& state) {
  const SimulatedPageStore store = MemoryStore(4096);
  BufferPool pool(&store);
  const std::vector<PageId> seq = PageSequence(7, 4095);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Access(seq[i]).hit());
    i = (i + 1) & (seq.size() - 1);
    if (i == 0) pool.Reset();
  }
}
BENCHMARK(BM_BufferPoolAccess);

// ---------------------------------------------------------------------------
// Hot-path kernels: steady-state query work per node visit / page access.

/// One clustered synthetic feature set indexed by an SRT-index with no
/// buffer pool, so the kernels below measure pure CPU traversal cost.
struct TraversalFixture {
  Dataset ds;
  std::unique_ptr<SrtIndex> index;
  std::vector<Point> points;
  std::vector<KeywordSet> queries;

  TraversalFixture() {
    SyntheticConfig cfg;
    cfg.seed = 11;
    cfg.num_objects = 64;
    cfg.num_features_per_set = 20'000;
    cfg.num_feature_sets = 1;
    cfg.vocabulary_size = 128;
    cfg.num_clusters = 512;
    ds = GenerateSynthetic(cfg);
    index = std::make_unique<SrtIndex>(&ds.feature_tables[0],
                                       IndexBuildParams{});
    Rng rng(12);
    for (int i = 0; i < 64; ++i) {
      points.push_back({rng.Uniform(), rng.Uniform()});
      KeywordSet kw(cfg.vocabulary_size);
      kw.Insert(static_cast<TermId>(rng.UniformInt(0, cfg.vocabulary_size - 1)));
      kw.Insert(static_cast<TermId>(rng.UniformInt(0, cfg.vocabulary_size - 1)));
      queries.push_back(std::move(kw));
    }
  }

  static const TraversalFixture& Get() {
    static TraversalFixture fixture;
    return fixture;
  }
};

void BM_ComputeScoreRange(benchmark::State& state) {
  const TraversalFixture& fx = TraversalFixture::Get();
  QueryStats stats;
  ExecutionSession session(&fx.index->tree().pages());
  TraversalScratch& scratch = session.scratch();
  size_t i = 0;
  for (auto _ : state) {
    scratch.Reset();  // every iteration is a query of its own
    benchmark::DoNotOptimize(ComputeBestRange(*fx.index, fx.points[i],
                                              fx.queries[i], 0.5, 0.05, stats,
                                              scratch));
    i = (i + 1) % fx.points.size();
  }
}
BENCHMARK(BM_ComputeScoreRange);

void BM_ComputeScoresRangeBatch(benchmark::State& state) {
  const TraversalFixture& fx = TraversalFixture::Get();
  Rng rng(13);
  std::vector<BatchObject> batch;
  for (uint32_t i = 0; i < 64; ++i) {
    batch.push_back({i, {rng.Uniform(0.4, 0.45), rng.Uniform(0.4, 0.45)}});
  }
  const Rect2 mbr = MakeRect2(0.4, 0.4, 0.45, 0.45);
  std::vector<double> scores(batch.size());
  QueryStats stats;
  ExecutionSession session(&fx.index->tree().pages());
  TraversalScratch& scratch = session.scratch();
  size_t qi = 0;
  for (auto _ : state) {
    scratch.Reset();  // every iteration is a query of its own
    ComputeScoresRangeBatch(*fx.index, batch, mbr, fx.queries[qi], 0.5, 0.05,
                            scores, stats, scratch);
    benchmark::DoNotOptimize(scores.data());
    qi = (qi + 1) % fx.queries.size();
  }
}
BENCHMARK(BM_ComputeScoresRangeBatch)->Unit(benchmark::kMicrosecond);

/// Two clustered feature sets with SRT-indexes in one engine (so one
/// session's pool reads both) and two-set range queries: the combination
/// and Voronoi kernels below run what one STPS query runs, on a warm
/// session.
struct CombinationFixture {
  Dataset ds;
  std::optional<Engine> engine;
  std::vector<const FeatureIndex*> indexes;
  std::vector<Query> queries;

  CombinationFixture() {
    SyntheticConfig cfg;
    cfg.seed = 14;
    cfg.num_objects = 64;
    cfg.num_features_per_set = 10'000;
    cfg.num_feature_sets = 2;
    cfg.vocabulary_size = 128;
    cfg.num_clusters = 512;
    ds = GenerateSynthetic(cfg);
    engine.emplace(
        Engine::Build({}, ds.feature_tables, EngineOptions{}).TakeValue());
    for (size_t i = 0; i < engine->num_feature_sets(); ++i) {
      indexes.push_back(&engine->feature_index(i));
    }
    Rng rng(15);
    for (int i = 0; i < 16; ++i) {
      Query q;
      q.radius = 0.02;
      for (size_t s = 0; s < indexes.size(); ++s) {
        KeywordSet kw(cfg.vocabulary_size);
        for (int j = 0; j < 3; ++j) {
          kw.Insert(static_cast<TermId>(
              rng.UniformInt(0, cfg.vocabulary_size - 1)));
        }
        q.keywords.push_back(std::move(kw));
      }
      queries.push_back(std::move(q));
    }
  }

  static const CombinationFixture& Get() {
    static CombinationFixture fixture;
    return fixture;
  }
};

// Product mode (the range variant's 2r-constrained enumeration): one
// iteration opens an iterator and takes its first 32 combinations, as an
// STPS range query does before k objects are found.
void BM_CombinationIteratorProductNext(benchmark::State& state) {
  const CombinationFixture& fx = CombinationFixture::Get();
  QueryStats stats;
  ExecutionSession session(&fx.engine->page_store());
  TraversalScratch& scratch = session.scratch();
  size_t qi = 0;
  for (auto _ : state) {
    scratch.Reset();  // a new query
    CombinationIterator it(fx.indexes, fx.queries[qi], true,
                           PullingStrategy::kPrioritized, &stats, scratch);
    for (int n = 0; n < 32; ++n) {
      std::optional<Combination> combo = it.Next();
      if (!combo.has_value()) break;
      benchmark::DoNotOptimize(combo->score);
    }
    qi = (qi + 1) % fx.queries.size();
  }
  state.counters["features"] = benchmark::Counter(
      static_cast<double>(stats.features_retrieved),
      benchmark::Counter::kAvgIterations);
  state.counters["combinations"] = benchmark::Counter(
      static_cast<double>(stats.combinations_emitted),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CombinationIteratorProductNext)->Unit(benchmark::kMicrosecond);

// One Voronoi cell per iteration, on a warm session: 64 cells of relevant
// features per keyword set share one query's pool and relevant-children
// memo, as the cells of one NN query do.
void BM_ComputeVoronoiCell(benchmark::State& state) {
  const CombinationFixture& fx = CombinationFixture::Get();
  const FeatureIndex& index = *fx.indexes[0];
  std::vector<std::vector<ObjectId>> centers;
  for (const Query& q : fx.queries) {
    std::vector<ObjectId> ids;
    for (const FeatureObject& t : index.table().All()) {
      if (ids.size() == 64) break;
      if (t.keywords.Intersects(q.keywords[0])) ids.push_back(t.id);
    }
    centers.push_back(std::move(ids));
  }
  const Rect2 domain = MakeRect2(0, 0, 1, 1);
  QueryStats stats;
  ExecutionSession session(&fx.engine->page_store());
  TraversalScratch& scratch = session.scratch();
  VoronoiCell cell;
  size_t i = 0;
  for (auto _ : state) {
    if (i % 64 == 0) scratch.Reset();  // the next keyword set's query
    const size_t qi = (i / 64) % fx.queries.size();
    const std::vector<ObjectId>& ids = centers[qi];
    if (!ids.empty()) {
      ComputeVoronoiCell(index, ids[i % ids.size()],
                         fx.queries[qi].keywords[0], 0.5, domain, stats,
                         scratch, &cell);
      benchmark::DoNotOptimize(cell.polygon.vertices().data());
    }
    ++i;
  }
}
BENCHMARK(BM_ComputeVoronoiCell)->Unit(benchmark::kMicrosecond);

void BM_KeywordIntersectsSigned(benchmark::State& state) {
  const uint32_t w = static_cast<uint32_t>(state.range(0));
  // Disjoint sets: the common pruning case — a node summary that shares no
  // term with the query must be rejected as cheaply as possible.
  KeywordSet a(w), b(w);
  for (uint32_t t = 0; t < 4; ++t) a.Insert(static_cast<TermId>(t * 7));
  for (uint32_t t = 0; t < 4; ++t) {
    b.Insert(static_cast<TermId>(w / 2 + 1 + t * 5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersects(b));
    benchmark::DoNotOptimize(b.Intersects(a));
  }
}
BENCHMARK(BM_KeywordIntersectsSigned)->Arg(128)->Arg(1024)->Arg(4096);

void BM_BufferPoolAccessHit(benchmark::State& state) {
  // Resident-set size is the axis: a few hundred pages is what one query
  // actually keeps warm; 4096 makes every touch an L2 round-trip.
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const SimulatedPageStore store = MemoryStore(n);
  BufferPool pool(&store);
  for (PageId p = 0; p < n; ++p) pool.Access(p);
  const std::vector<PageId> seq = PageSequence(14, n - 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Access(seq[i]).hit());
    i = (i + 1) & (seq.size() - 1);
  }
}
BENCHMARK(BM_BufferPoolAccessHit)->Arg(256)->Arg(4096);

// ------------------------------- file-backed page store (DESIGN.md §16)

/// Lazily writes a zero-filled fixture file of `pages` 4 KiB pages and
/// opens a FilePageStore over it in the requested I/O mode.
std::unique_ptr<FilePageStore> OpenFixtureStore(uint64_t pages,
                                                FilePageStore::IoMode mode) {
  static const std::string path = [] {
    std::string p = (std::filesystem::temp_directory_path() /
                     "stpq_bench_store.bin")
                        .string();
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    std::vector<char> zeros(4096, 0);
    for (uint64_t i = 0; i < 4096; ++i) {
      out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
    }
    return p;
  }();
  Result<std::unique_ptr<FilePageStore>> store = FilePageStore::Open(
      path, {FilePageStore::Extent{0, pages, 0, 4096}}, mode);
  return store.TakeValue();
}

/// Cost of serving one buffer-pool miss from the index file: an extent
/// lookup plus a read of the mapped slot's header.
void BM_FilePageStoreFetchMmap(benchmark::State& state) {
  std::unique_ptr<FilePageStore> store =
      OpenFixtureStore(4096, FilePageStore::IoMode::kMmap);
  const std::vector<PageId> seq = PageSequence(18, 4095);
  std::vector<uint8_t> buffer;
  FetchFault fault;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->FetchPage(seq[i], &buffer, &fault));
    benchmark::ClobberMemory();
    i = (i + 1) & (seq.size() - 1);
  }
}
BENCHMARK(BM_FilePageStoreFetchMmap);

/// Same fetch through the pread fallback (no mapping): what platforms
/// without mmap — or files opened with IoMode::kPread — pay per miss.
void BM_FilePageStoreFetchPread(benchmark::State& state) {
  std::unique_ptr<FilePageStore> store =
      OpenFixtureStore(4096, FilePageStore::IoMode::kPread);
  const std::vector<PageId> seq = PageSequence(19, 4095);
  std::vector<uint8_t> buffer;
  FetchFault fault;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->FetchPage(seq[i], &buffer, &fault));
    benchmark::ClobberMemory();
    i = (i + 1) & (seq.size() - 1);
  }
}
BENCHMARK(BM_FilePageStoreFetchPread);

/// End-to-end miss path: admission + file fetch, the per-page cost a cold
/// query pays on a reopened engine.  The walk touches 4096 distinct pages
/// in random order and resets the pool when it wraps, so every access is
/// a miss.
void BM_BufferPoolMissFileBacked(benchmark::State& state) {
  std::unique_ptr<FilePageStore> store =
      OpenFixtureStore(4096, FilePageStore::IoMode::kAuto);
  BufferPool pool(store.get());
  std::vector<PageId> seq(4096);
  std::iota(seq.begin(), seq.end(), PageId{0});
  Rng rng(20);
  for (size_t j = seq.size() - 1; j > 0; --j) {
    std::swap(seq[j], seq[rng.UniformInt(0, j)]);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Access(seq[i]).hit());
    i = (i + 1) & (seq.size() - 1);
    if (i == 0) pool.Reset();
  }
}
BENCHMARK(BM_BufferPoolMissFileBacked);

// ------------------------------------------ tracer overhead (DESIGN.md §14)

// The idle cost every emission point pays when tracing is compiled in but
// the tracer is stopped: one relaxed load and a predicted branch.
void BM_TraceInstantIdle(benchmark::State& state) {
  Tracer::Global().Stop();
  uint64_t i = 0;
  for (auto _ : state) {
    STPQ_TRACE_INSTANT(TraceEventType::kPoolHit, 0, 0, 0, i);
    benchmark::DoNotOptimize(++i);
  }
}
BENCHMARK(BM_TraceInstantIdle);

void BM_TraceSpanIdle(benchmark::State& state) {
  Tracer::Global().Stop();
  for (auto _ : state) {
    Span span(TraceEventType::kComponentScore);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_TraceSpanIdle);

// Recording cost: timestamp + ring store.  The thread hands its ring off
// periodically, as a query's end does, so the steady state measures the
// emit path (plus the amortized hand-off), not the ring-full drop path.
void BM_TraceInstantActive(benchmark::State& state) {
  Tracer::Global().Start();
  uint64_t i = 0;
  for (auto _ : state) {
    STPQ_TRACE_INSTANT(TraceEventType::kPoolHit, 0, 0, 0, i);
    if ((++i & 0x3fff) == 0) Tracer::HandOff();
  }
  Tracer::Global().Stop();
  Tracer::Global().Discard();
}
BENCHMARK(BM_TraceInstantActive);

// A trace-only span hands the thread's events off where it closes: begin
// and end recorded, then one hand-off per span.
void BM_TraceSpanActive(benchmark::State& state) {
  Tracer::Global().Start();
  for (auto _ : state) {
    Span span(TraceEventType::kComponentScore);
    benchmark::ClobberMemory();
  }
  Tracer::Global().Stop();
  Tracer::Global().Discard();
}
BENCHMARK(BM_TraceSpanActive);

// Raw ring throughput: amortized ring store (EmitAt reads no clock) + a
// hand-off every 4096 events that also copies the query's events into a
// reused buffer, as a captured slow query's hand-off does.
void BM_TraceRingEmitDrain(benchmark::State& state) {
  Tracer::Global().Start();
  Tracer::SetCurrentTraceId(1);
  const int64_t clock_ns = SteadyClockNs();
  std::vector<TraceEvent> out;
  out.reserve(4096);
  uint64_t i = 0;
  for (auto _ : state) {
    Tracer::EmitAt(clock_ns, TraceEventType::kNodeVisit, TraceMark::kInstant,
                   0, i);
    if ((++i & 0xfff) == 0) {
      out.clear();
      Tracer::HandOff(/*trace_id=*/1, &out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  Tracer::SetCurrentTraceId(0);
  Tracer::Global().Stop();
  Tracer::Global().Discard();
}
BENCHMARK(BM_TraceRingEmitDrain);

}  // namespace
}  // namespace stpq

BENCHMARK_MAIN();
