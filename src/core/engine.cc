#include "core/engine.h"

#include <string>
#include <utility>

#include "core/exec_session.h"
#include "core/stds.h"
#include "core/stps.h"
#include "debug/validate.h"
#include "io/index_file.h"
#include "obs/query_metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace stpq {

namespace {

/// Deep structural check of every index over its pages.
[[maybe_unused]] Status ValidateIndexes(
    const ObjectIndex& objects,
    const std::vector<std::unique_ptr<FeatureIndex>>& features) {
  STPQ_RETURN_NOT_OK(ValidateObjectIndex(objects));
  for (const auto& index : features) {
    STPQ_RETURN_NOT_OK(ValidateFeatureIndex(*index));
  }
  return Status::OK();
}

}  // namespace

Result<Engine> Engine::Build(std::vector<DataObject> objects,
                             std::vector<FeatureTable> feature_tables,
                             EngineOptions options) {
  STPQ_RETURN_NOT_OK(CheckBuildParams(options.build, feature_tables.size()));
  for (size_t i = 0; i < objects.size(); ++i) {
    objects[i].id = static_cast<ObjectId>(i);
  }
  // Pack every tree once into its pages; the trees themselves are gone
  // when Pack returns, and the page array is all the engine keeps.
  const IndexBuildParams& params = options.build;
  std::vector<TreeImage> images;
  images.push_back(ObjectIndex::Pack(objects, params));
  for (const FeatureTable& table : feature_tables) {
    images.push_back(params.index_kind == FeatureIndexKind::kSrt
                         ? SrtIndex::Pack(table, params)
                         : Ir2Tree::Pack(table, params));
  }
  std::vector<TreeMeta> trees;
  std::vector<SimulatedPageStore::Extent> extents;
  for (size_t t = 0; t < images.size(); ++t) {
    TreeImage& image = images[t];
    if (image.meta.node_count > 0) {
      extents.push_back({TreePageBase(t), image.meta.node_count,
                         image.slot_bytes, std::move(image.pages)});
    }
    trees.push_back(std::move(image.meta));
  }
  Engine engine(options, std::move(objects), std::move(feature_tables),
                std::make_unique<SimulatedPageStore>(std::move(extents)),
                std::move(trees));
  // Debug builds check every packed index; a violation is a packing bug.
  // (An opened file is not checked this way: damage there must reach the
  // caller as a typed error, never an abort.)
  STPQ_VALIDATE(ValidateIndexes(*engine.object_index_,
                                engine.feature_indexes_));
  return engine;
}

Engine::Engine(EngineOptions options, std::vector<DataObject> objects,
               std::vector<FeatureTable> feature_tables,
               std::unique_ptr<PageStore> store, std::vector<TreeMeta> trees)
    : options_(std::move(options)),
      objects_(std::make_unique<std::vector<DataObject>>(std::move(objects))),
      feature_tables_(std::make_unique<std::vector<FeatureTable>>(
          std::move(feature_tables))),
      page_store_(std::move(store)) {
  STPQ_CHECK(trees.size() == feature_tables_->size() + 1);
  object_index_ = std::make_unique<ObjectIndex>(
      objects_.get(), std::move(trees[0]), page_store_.get());
  for (uint32_t i = 0; i < feature_tables_->size(); ++i) {
    const FeatureTable* table = &(*feature_tables_)[i];
    TreeMeta& meta = trees[i + 1];
    switch (options_.build.index_kind) {
      case FeatureIndexKind::kSrt:
        feature_indexes_.push_back(std::make_unique<SrtIndex>(
            table, i, std::move(meta), page_store_.get()));
        break;
      case FeatureIndexKind::kIr2:
        feature_indexes_.push_back(std::make_unique<Ir2Tree>(
            table, options_.build, i, std::move(meta), page_store_.get()));
        break;
    }
    index_ptrs_.push_back(feature_indexes_.back().get());
  }

  sessions_ = std::make_unique<SessionPool>(options_.pool_capacity,
                                            page_store_.get());
}

Result<Engine> Engine::Open(const std::string& path, EngineOptions options) {
  Result<LoadedIndex> loaded_r = LoadIndexFile(path);
  if (!loaded_r.ok()) return loaded_r.status();
  LoadedIndex loaded = loaded_r.TakeValue();

  // The file's build parameters win: fan-outs, signature widths and page
  // layout must match the persisted node records exactly.  LoadIndexFile
  // has already put them and the table count through CheckBuildParams.
  options.build = loaded.params;

  Result<std::unique_ptr<FilePageStore>> store_r =
      FilePageStore::Open(path, std::move(loaded.extents));
  if (!store_r.ok()) return store_r.status();
  return Engine(std::move(options), std::move(loaded.objects),
                std::move(loaded.feature_tables), store_r.TakeValue(),
                std::move(loaded.trees));
}

Status Engine::Save(const std::string& path,
                    const std::vector<Vocabulary>& vocabularies) const {
  const size_t num_tables = feature_tables_->size();
  if (!vocabularies.empty() && vocabularies.size() != num_tables) {
    return Status::InvalidArgument(
        "Save needs one vocabulary per feature table (" +
        std::to_string(num_tables) + "), got " +
        std::to_string(vocabularies.size()));
  }
  std::vector<Vocabulary> blank;
  if (vocabularies.empty()) blank.resize(num_tables);

  IndexFileWriteRequest request;
  request.params = options_.build;
  request.objects = objects_.get();
  request.feature_tables = feature_tables_.get();
  request.vocabularies = vocabularies.empty() ? &blank : &vocabularies;
  request.object_index = object_index_.get();
  request.feature_indexes = index_ptrs_;
  return WriteIndexFile(path, request);
}

Status Engine::ValidateQuery(const Query& query) const {
  if (query.keywords.size() != num_feature_sets()) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.keywords.size()) +
        " keyword sets but the engine indexes " +
        std::to_string(num_feature_sets()) + " feature sets");
  }
  // Keyword-set algebra assumes one universe per feature set: a smaller
  // query universe would be read past its blocks, a larger one would have
  // its extra terms silently ignored.
  for (size_t i = 0; i < query.keywords.size(); ++i) {
    const uint32_t universe = feature_table(i).universe_size();
    if (query.keywords[i].universe_size() != universe) {
      return Status::InvalidArgument(
          "keyword set " + std::to_string(i) + " is over " +
          std::to_string(query.keywords[i].universe_size()) +
          " terms but feature set " + std::to_string(i) + " has " +
          std::to_string(universe));
    }
  }
  if (query.k == 0) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (!(query.lambda >= 0.0 && query.lambda <= 1.0)) {
    return Status::InvalidArgument("lambda must be in [0, 1], got " +
                                   std::to_string(query.lambda));
  }
  if (query.variant != ScoreVariant::kNearestNeighbor &&
      !(query.radius > 0.0)) {
    return Status::InvalidArgument("radius must be > 0, got " +
                                   std::to_string(query.radius));
  }
  return Status::OK();
}

Result<QueryResult> Engine::Execute(const Query& query,
                                    Algorithm algorithm) const {
  return Execute(query, ExecuteOptions{algorithm, nullptr});
}

Result<QueryResult> Engine::Execute(const Query& query,
                                    const ExecuteOptions& options) const {
  Status st = ValidateQuery(query);
  if (!st.ok()) {
    QueryMetrics::Global().RecordRejected();
    return st;
  }

  // All per-query mutable state lives in the leased session (buffer
  // pools, scratch buffers) and in the executor's stack frames; the
  // engine itself is only read, apart from the idle-session list.
  SessionPool::Lease lease(sessions_.get());
  ExecutionSession& session = lease.session();
  QueryResult result;
  Span query_span(result.stats);
  if (options.algorithm == Algorithm::kStds) {
    Stds stds(object_index_.get(), index_ptrs_);
    result = stds.Execute(query, &session.scratch());
  } else {
    Stps stps(object_index_.get(), index_ptrs_, options_.influence_mode);
    result = stps.Execute(query, options_.pulling, &session.scratch());
  }
  // Closing the query span sets cpu_ms.  It closes before the slow log
  // drains this thread's ring so the end event is part of any captured
  // record.
  query_span.End();
  // A page that could not be fetched read as an empty node, so the result
  // may be missing entries: fail the query with the fetch's typed error.
  st = session.status();
  if (!st.ok()) {
    QueryMetrics::Global().io_failed_total.Increment();
    return st;
  }
  session.ExportIoCounters(result.stats);
  if (options.slow_log != nullptr) {
    options.slow_log->Offer(query_span.trace_id(), result.stats.cpu_ms,
                            result.stats);
  }
  // Feed the process-wide registry once per completed query: a fixed set
  // of relaxed atomic adds, never inside the search loops.
  QueryMetrics::Global().RecordQuery(result.stats);
  return result;
}

Result<std::unique_ptr<StpsCursor>> Engine::OpenCursor(
    const Query& query) const {
  // The cursor ignores k, so a default-constructed k of 0 would be fine —
  // but rejecting it keeps one validation story for both entry points.
  Status st = ValidateQuery(query);
  if (!st.ok()) return st;
  if (query.variant != ScoreVariant::kRange) {
    return Status::InvalidArgument(
        "cursors support the range score variant only");
  }
  auto session = std::make_unique<ExecutionSession>(
      options_.pool_capacity, page_store_.get());
  return std::make_unique<StpsCursor>(object_index_.get(), index_ptrs_, query,
                                      options_.pulling, std::move(session));
}

}  // namespace stpq
