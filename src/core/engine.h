// Engine: the library's main entry point.
//
// Owns the data objects, the feature tables, their indexes and the page
// store behind them, and executes top-k spatio-textual preference queries
// with either algorithm.  See examples/quickstart.cc for usage.
//
// Concurrency (DESIGN.md §11): a fully constructed Engine is immutable
// apart from its list of idle execution sessions, and Execute/OpenCursor
// are const and safe to call from any number of threads concurrently.
// Each call runs inside its own ExecutionSession, which owns all per-query
// mutable state including the query's cold buffer pools; Execute leases
// one from the engine's SessionPool and returns it when the query ends.
// The per-query page-read counters are therefore identical to a
// sequential run regardless of thread count.
#ifndef STPQ_CORE_ENGINE_H_
#define STPQ_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/cursor.h"
#include "core/query.h"
#include "core/stps.h"  // InfluenceMode
#include "index/feature_index.h"
#include "index/ir2_tree.h"
#include "index/object_index.h"
#include "index/srt_index.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/page_store.h"
#include "text/vocabulary.h"
#include "util/result.h"

namespace stpq {


/// Query processing algorithms (Sections 5 and 6).
enum class Algorithm {
  kStds,  ///< Spatio-Textual Data Scan (baseline)
  kStps,  ///< Spatio-Textual Preference Search
};

/// Per-call execution knobs for Engine::Execute.
struct ExecuteOptions {
  Algorithm algorithm = Algorithm::kStps;
  /// Optional slow-query capture; not owned.  Every query is offered to the
  /// log with its latency; the log retains trace events + stats for queries
  /// at or above its threshold (bounded retention, drop-oldest).
  SlowQueryLog* slow_log = nullptr;
};

/// Engine construction knobs: the build parameters, which fix every page
/// (Engine::Open takes them from the file), and two runtime settings.
/// Every query reads through two cold buffer pools of its own (object
/// index, feature indexes), so its reported I/O is the number of distinct
/// pages it touches.
/// The page source is not an option: Engine::Build serves the in-memory
/// page array it packs, Engine::Open the index file it opens
/// (Engine::page_store() reports which).
struct EngineOptions {
  /// Feature-index kind (the benchmark axis SRT vs IR2), page size, fill
  /// and IR2 signature parameters.
  IndexBuildParams build;
  /// STPS feature-pulling strategy.
  PullingStrategy pulling = PullingStrategy::kPrioritized;
  /// Influence-variant strategy: anchored retrieval (default) or the
  /// paper's Algorithm 5 (see InfluenceMode).
  InfluenceMode influence_mode = InfluenceMode::kAnchored;
};

/// A fully indexed dataset ready to answer STPQ queries.
class Engine {
 public:
  /// Builds all indexes in memory over `objects` and `feature_tables`:
  /// packs every tree once into node pages held in an in-memory page
  /// array (SimulatedPageStore), which the queries' buffer pools read.
  /// Checks `options.build` and the table count with CheckBuildParams, and
  /// the tables with CheckUniverses, and returns their InvalidArgument
  /// instead of building a broken engine.  A file-backed engine comes from
  /// Engine::Open on a file written by Save.
  [[nodiscard]] static Result<Engine> Build(std::vector<DataObject> objects,
                                            std::vector<FeatureTable> feature_tables,
                                            EngineOptions options = {});

  /// Opens a prebuilt .stpqx index file (WriteIndexFile / Engine::Save):
  /// verifies it, maps it, and reads every node in place from its page in
  /// the file (FilePageStore); no node is decoded into memory.
  /// `options.build` is replaced by the file's superblock, whose values
  /// and table count pass CheckBuildParams first (LoadIndexFile); the
  /// runtime settings (pool capacity, pulling, influence mode) are taken
  /// from `options`.  A reopened engine answers every query with results
  /// and per-query page-read counters identical to the engine that built
  /// the file.  Typed errors: IoError (unreadable/truncated),
  /// InvalidArgument (not an index file / unsupported version, versions 1
  /// and 2 included / build parameters or table count CheckBuildParams
  /// refuses), Corruption (checksum or structural damage).
  [[nodiscard]] static Result<Engine> Open(const std::string& path,
                                           EngineOptions options = {});

  /// Persists the whole index set to `path` for Engine::Open; the node
  /// segments are the engine's pages, written verbatim.
  /// `vocabularies` (one per feature table, table order) ride along so a
  /// reopened CLI can still parse query keywords; pass empty to persist
  /// blank vocabularies.
  [[nodiscard]] Status Save(const std::string& path,
                            const std::vector<Vocabulary>& vocabularies = {}) const;

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes `query` with the given algorithm.  The result carries the
  /// entries sorted by descending tau(p) and the cost counters (CPU time,
  /// simulated page reads per index family).  Returns InvalidArgument for
  /// malformed queries: keyword-set count != num_feature_sets(), a keyword
  /// set over another universe than its feature table's, k == 0, lambda
  /// outside [0, 1], or radius <= 0 (NN-variant queries ignore the radius
  /// and are exempt from the radius check).  When a page the query needs
  /// cannot be fetched, returns that fetch's IoError or Corruption instead
  /// of a result and counts the query in stpq_query_io_failed_total.
  ///
  /// Thread-safe: any number of Execute/OpenCursor calls may run
  /// concurrently on one engine.
  [[nodiscard]] Result<QueryResult> Execute(const Query& query,
                                           Algorithm algorithm) const;

  /// Execute with per-call options (algorithm + optional slow-query log).
  [[nodiscard]] Result<QueryResult> Execute(
      const Query& query, const ExecuteOptions& options) const;

  /// Opens an incremental cursor over a range-score query (k is ignored;
  /// results stream in non-increasing tau(p) until the caller stops).
  /// The engine must outlive the cursor.  The cursor owns its own
  /// execution session, so it may be drained after Execute calls complete
  /// and from a different thread than the one that opened it (one thread
  /// at a time).  Returns InvalidArgument for malformed queries and for
  /// non-range variants.
  [[nodiscard]] Result<std::unique_ptr<StpsCursor>> OpenCursor(
      const Query& query) const;

  /// Checks `query` against this engine's shape: keyword-set count, each
  /// set's universe size against its feature table's, k >= 1, lambda in
  /// [0, 1], radius > 0 for radius-dependent variants.
  [[nodiscard]] Status ValidateQuery(const Query& query) const;

  size_t num_feature_sets() const { return feature_indexes_.size(); }
  const std::vector<DataObject>& objects() const { return *objects_; }
  const FeatureTable& feature_table(size_t i) const {
    return (*feature_tables_)[i];
  }
  const FeatureIndex& feature_index(size_t i) const {
    return *feature_indexes_[i];
  }
  const ObjectIndex& object_index() const { return *object_index_; }
  const EngineOptions& options() const { return options_; }
  /// The page source behind every query's buffer pools (the in-memory
  /// page array of a built engine, the FilePageStore of an opened one).
  const PageStore& page_store() const { return *page_store_; }

  /// Name of the feature index in use ("SRT" or "IR2").
  const char* IndexName() const {
    return feature_indexes_.empty() ? "none" : feature_indexes_[0]->Name();
  }

 private:
  /// Sets up the object index and one feature index per table over the
  /// packed trees `trees` (tree order: the object tree, then one per
  /// table), whose pages `store` serves to the queries' buffer pools.
  /// `options.build` and the table count must already have passed
  /// CheckBuildParams.
  Engine(EngineOptions options, std::vector<DataObject> objects,
         std::vector<FeatureTable> feature_tables,
         std::unique_ptr<PageStore> store, std::vector<TreeMeta> trees);

  EngineOptions options_;
  // The indexes and executors hold raw pointers into the object and
  // feature-table storage, so both live behind unique_ptr: moving the
  // engine (Result<Engine>, factory returns) keeps their addresses stable.
  std::unique_ptr<std::vector<DataObject>> objects_;
  std::unique_ptr<std::vector<FeatureTable>> feature_tables_;
  // Sessions' pools and the indexes hold a raw pointer into it.
  std::unique_ptr<PageStore> page_store_;
  std::unique_ptr<ObjectIndex> object_index_;
  std::vector<std::unique_ptr<FeatureIndex>> feature_indexes_;
  /// Borrowed views of feature_indexes_, in table order; immutable after
  /// construction and handed to the per-call executors.
  std::vector<const FeatureIndex*> index_ptrs_;
  /// Idle execution sessions that Execute leases (core/exec_session.h).
  /// Behind a pointer so the engine stays movable.
  std::unique_ptr<SessionPool> sessions_;
};

}  // namespace stpq

#endif  // STPQ_CORE_ENGINE_H_
