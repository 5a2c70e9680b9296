#include "core/batch_engine.h"

#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"

namespace semsim {

Result<BatchQueryEngine> BatchQueryEngine::Create(
    const Hin* graph, const SemanticMeasure* semantic, const WalkIndex* index,
    const BatchQueryEngineOptions& options,
    const PairNormalizerCache* static_cache) {
  if (graph == nullptr || semantic == nullptr || index == nullptr) {
    return Status::InvalidArgument(
        "graph, semantic measure, and walk index are required");
  }
  SEMSIM_TRACE_SPAN("semsim_batch_engine_create");
  EngineSnapshotOptions snap_options;
  snap_options.query = options.query;
  snap_options.normalizer_cache_capacity = options.normalizer_cache_capacity;
  snap_options.semantic_cache_capacity = options.semantic_cache_capacity;
  SEMSIM_ASSIGN_OR_RETURN(
      EngineSnapshotPtr snapshot,
      EngineSnapshot::Create(Unowned(graph), Unowned(semantic), Unowned(index),
                             snap_options, /*version=*/0, static_cache));
  SEMSIM_ASSIGN_OR_RETURN(
      BatchQueryEngine engine,
      CreateFromSnapshot(std::move(snapshot), options.num_threads));
  return engine;
}

Result<BatchQueryEngine> BatchQueryEngine::CreateFromSnapshot(
    EngineSnapshotPtr snapshot, int num_threads) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot is required");
  }
  BatchQueryEngine engine;
  engine.options_.query = snapshot->options().query;
  engine.options_.normalizer_cache_capacity =
      snapshot->options().normalizer_cache_capacity;
  engine.options_.semantic_cache_capacity =
      snapshot->options().semantic_cache_capacity;
  engine.options_.num_threads = ThreadPool::ResolveThreadCount(num_threads);
  engine.snapshot_ = std::move(snapshot);
  engine.pool_ = std::make_unique<ThreadPool>(engine.options_.num_threads);
  engine.scratch_pool_ = std::make_unique<ScratchPool>();
  return engine;
}

BatchResult<double> BatchQueryEngine::QueryBatch(
    std::span<const NodePair> pairs) const {
  return QueryBatch(*snapshot_, pairs, snapshot_->options().query.mc);
}

BatchResult<double> BatchQueryEngine::QueryBatch(
    std::span<const NodePair> pairs, const SemSimMcOptions& mc) const {
  return QueryBatch(*snapshot_, pairs, mc);
}

BatchResult<double> BatchQueryEngine::QueryBatch(
    const EngineSnapshot& snap, std::span<const NodePair> pairs,
    const SemSimMcOptions& mc) const {
  SEMSIM_TRACE_SPAN("semsim_batch_query_batch");
  SEMSIM_DCHECK(ValidateMcOptions(mc).ok());
  static Counter* items = MetricsRegistry::Global().GetCounter(
      "semsim_batch_query_items_total");
  items->Add(pairs.size());
  BatchResult<double> result;
  result.values = snap.estimator().QueryBatch(pairs, mc, *pool_, &result.stats);
  return result;
}

BatchResult<std::vector<double>> BatchQueryEngine::SingleSourceBatch(
    std::span<const NodeId> sources) const {
  return SingleSourceBatch(*snapshot_, sources, snapshot_->options().query.mc);
}

BatchResult<std::vector<double>> BatchQueryEngine::SingleSourceBatch(
    std::span<const NodeId> sources, const SemSimMcOptions& mc) const {
  return SingleSourceBatch(*snapshot_, sources, mc);
}

BatchResult<std::vector<double>> BatchQueryEngine::SingleSourceBatch(
    const EngineSnapshot& snap, std::span<const NodeId> sources,
    const SemSimMcOptions& mc) const {
  SEMSIM_TRACE_SPAN("semsim_batch_single_source_batch");
  SEMSIM_DCHECK(ValidateMcOptions(mc).ok());
  static Counter* items = MetricsRegistry::Global().GetCounter(
      "semsim_batch_single_source_items_total");
  items->Add(sources.size());
  BatchResult<std::vector<double>> result;
  result.values = ParallelSemSimFrom(snap.InvertedIndex(pool_.get()), sources,
                                     snap.estimator(), mc, *pool_,
                                     *scratch_pool_, &result.stats);
  return result;
}

BatchResult<std::vector<Scored>> BatchQueryEngine::TopKBatch(
    std::span<const NodeId> sources, size_t k) const {
  return TopKBatch(*snapshot_, sources, k, snapshot_->options().query.mc);
}

BatchResult<std::vector<Scored>> BatchQueryEngine::TopKBatch(
    std::span<const NodeId> sources, size_t k,
    const SemSimMcOptions& mc) const {
  return TopKBatch(*snapshot_, sources, k, mc);
}

BatchResult<std::vector<Scored>> BatchQueryEngine::TopKBatch(
    const EngineSnapshot& snap, std::span<const NodeId> sources, size_t k,
    const SemSimMcOptions& mc) const {
  SEMSIM_TRACE_SPAN("semsim_batch_topk_batch");
  SEMSIM_DCHECK(ValidateMcOptions(mc).ok());
  static Counter* items = MetricsRegistry::Global().GetCounter(
      "semsim_batch_topk_items_total");
  items->Add(sources.size());
  BatchResult<std::vector<Scored>> result;
  result.values = ParallelTopKFrom(snap.InvertedIndex(pool_.get()), sources, k,
                                   snap.estimator(), mc, *pool_, *scratch_pool_,
                                   &result.stats);
  return result;
}

size_t BatchQueryEngine::MemoryBytes() const {
  // The engine never owned the walk index (it is borrowed into the
  // snapshot), so its footprint reports the derived artifacts only —
  // the same accounting the pre-snapshot engine used.
  return snapshot_->MemoryBytes() - snapshot_->walk_index().MemoryBytes() +
         scratch_pool_->MemoryBytes();
}

namespace {

// Shared shape of the two drivers: each source is one work item, chunks
// are claimed dynamically (source cost is skewed by degree and semantic
// pruning), per-thread stats partials merge commutatively. One scratch
// arena is leased per chunk (not per source) so its buffers amortize
// across the chunk's sweeps.
template <typename Result, typename PerSource>
std::vector<Result> PerSourceParallel(std::span<const NodeId> sources,
                                      const ThreadPool& pool,
                                      ScratchPool& scratch_pool,
                                      McQueryStats* stats,
                                      const CancelToken* cancel,
                                      const PerSource& per_source) {
  std::vector<Result> results(sources.size());
  std::mutex stats_mu;
  pool.ParallelFor(
      0, sources.size(),
      [&](size_t begin, size_t end) {
        McQueryStats local;
        ScratchPool::Lease lease = scratch_pool.Acquire();
        for (size_t i = begin; i < end; ++i) {
          // Between-sources poll; each sweep also polls internally
          // through the options' own token.
          if (cancel != nullptr && cancel->ShouldStop()) break;
          results[i] = per_source(sources[i], stats ? &local : nullptr,
                                  *lease);
        }
        if (stats) {
          std::lock_guard<std::mutex> lock(stats_mu);
          stats->Merge(local);
        }
      },
      cancel);
  return results;
}

}  // namespace

std::vector<std::vector<double>> ParallelSemSimFrom(
    const SingleSourceIndex& inverted, std::span<const NodeId> sources,
    const SemSimMcEstimator& estimator, const SemSimMcOptions& options,
    const ThreadPool& pool, ScratchPool& scratch_pool, McQueryStats* stats) {
  return PerSourceParallel<std::vector<double>>(
      sources, pool, scratch_pool, stats, options.cancel,
      [&](NodeId u, McQueryStats* local, QueryScratch& scratch) {
        std::vector<double> out;
        inverted.SemSimFromInto(u, estimator, options, scratch, out, local);
        return out;
      });
}

std::vector<std::vector<Scored>> ParallelTopKFrom(
    const SingleSourceIndex& inverted, std::span<const NodeId> sources,
    size_t k, const SemSimMcEstimator& estimator,
    const SemSimMcOptions& options, const ThreadPool& pool,
    ScratchPool& scratch_pool, McQueryStats* stats) {
  return PerSourceParallel<std::vector<Scored>>(
      sources, pool, scratch_pool, stats, options.cancel,
      [&](NodeId u, McQueryStats* local, QueryScratch& scratch) {
        return inverted.TopKFrom(u, k, estimator, options, scratch, local);
      });
}

}  // namespace semsim
