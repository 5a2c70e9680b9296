#include "core/batch_engine.h"

#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"

namespace semsim {

namespace {

// Shared shape of the single-source and top-k batches: each source is
// one work item, chunks are claimed dynamically (source cost is skewed
// by degree and semantic pruning), per-thread stats partials merge
// commutatively. One scratch arena is leased per chunk (not per source)
// so its buffers amortize across the chunk's sweeps.
template <typename Result, typename PerSource>
std::vector<Result> PerSourceParallel(std::span<const NodeId> sources,
                                      const ThreadPool& pool,
                                      ScratchPool& scratch_pool,
                                      McQueryStats& stats,
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
          results[i] = per_source(sources[i], &local, *lease);
        }
        std::lock_guard<std::mutex> lock(stats_mu);
        stats.Merge(local);
      },
      cancel);
  return results;
}

}  // namespace

Result<BatchQueryEngine> BatchQueryEngine::CreateFromSnapshot(
    EngineSnapshotPtr snapshot, int num_threads) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("snapshot is required");
  }
  SEMSIM_TRACE_SPAN("semsim_batch_engine_create");
  BatchQueryEngine engine;
  engine.snapshot_ = std::move(snapshot);
  engine.pool_ = std::make_unique<ThreadPool>(
      ThreadPool::ResolveThreadCount(num_threads));
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
  const SingleSourceIndex& inverted = snap.InvertedIndex(pool_.get());
  const SemSimMcEstimator& estimator = snap.estimator();
  BatchResult<std::vector<double>> result;
  result.values = PerSourceParallel<std::vector<double>>(
      sources, *pool_, *scratch_pool_, result.stats, mc.cancel,
      [&](NodeId u, McQueryStats* local, QueryScratch& scratch) {
        std::vector<double> out;
        inverted.SemSimFromInto(u, estimator, mc, scratch, out, local);
        return out;
      });
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
  const SingleSourceIndex& inverted = snap.InvertedIndex(pool_.get());
  const SemSimMcEstimator& estimator = snap.estimator();
  BatchResult<std::vector<Scored>> result;
  result.values = PerSourceParallel<std::vector<Scored>>(
      sources, *pool_, *scratch_pool_, result.stats, mc.cancel,
      [&](NodeId u, McQueryStats* local, QueryScratch& scratch) {
        return inverted.TopKFrom(u, k, estimator, mc, scratch, local);
      });
  return result;
}

size_t BatchQueryEngine::MemoryBytes() const {
  // The walk index belongs to the snapshot's producer (and is shared by
  // every snapshot chained off it), so the engine reports the derived
  // artifacts and its own arenas only.
  return snapshot_->MemoryBytes() - snapshot_->walk_index().MemoryBytes() +
         scratch_pool_->MemoryBytes();
}

}  // namespace semsim
