#ifndef SEMSIM_CORE_BATCH_ENGINE_H_
#define SEMSIM_CORE_BATCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/concurrent_cache.h"
#include "core/engine_snapshot.h"
#include "core/mc_semsim.h"
#include "core/query_scratch.h"
#include "core/single_source.h"
#include "core/topk.h"
#include "core/walk_index.h"
#include "graph/hin.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {

/// Configuration of the parallel batch query engine.
struct BatchQueryEngineOptions {
  /// Worker count; <= 0 resolves to hardware concurrency (the resolved
  /// value is reported by BatchQueryEngine::num_threads()).
  int num_threads = 0;
  /// Slot budget of the cross-query SO-normalizer cache. 0 disables it;
  /// negative values are rejected by Create().
  int64_t normalizer_cache_capacity = 1 << 20;
  /// Slot budget of the memoizing sem(·,·) cache wrapped around the
  /// semantic measure. 0 disables memoization (negative rejected).
  /// Ignored (no wrapper is built) when the flat kernel devirtualizes
  /// the measure — the flat table reads are cheaper than the cache's
  /// sharded lookup.
  int64_t semantic_cache_capacity = 1 << 20;
  /// Estimator parameters applied to every batch item — the
  /// QueryOptions surface shared with SemSimEngineOptions (defaults:
  /// c=0.6, θ=0.05).
  QueryOptions query;
};

/// The parallel batch query engine: owns a persistent ThreadPool and the
/// per-worker scratch arenas, and drives single-pair, full
/// single-source, and top-k SemSim workloads over an EngineSnapshot —
/// the immutable artifact bundle of DESIGN.md §14. The engine's own
/// snapshot backs the convenience overloads; the serving layer passes
/// an explicit `const EngineSnapshot&` per request instead, which is
/// what makes RCU-style hot swaps possible: a request runs start to
/// finish against the snapshot it was handed, while the manager
/// publishes the next one underneath.
///
/// Determinism contract: for a fixed snapshot and fixed batch, every
/// result vector is bit-identical for every thread count and regardless
/// of prior cache contents. This holds because (a) each item is
/// computed in isolation and written to its own slot, (b) the estimator
/// draws no randomness at query time (all sampling happened at
/// walk-index build, seeded per node), and (c) the snapshot's caches
/// store values that are bit-exact functions of their canonical pair
/// key.
class BatchQueryEngine {
 public:
  /// Validating factory, the counterpart of SemSimEngine::Create.
  /// `graph`, `semantic`, and `index` must be non-null and outlive the
  /// engine (they are borrowed into the engine's snapshot); decay must
  /// lie in (0,1) and θ ≤ 1 - decay (Lemma 4.7); negative cache
  /// capacities are rejected. `num_threads <= 0` is resolved here (the
  /// returned engine's options report the resolved count). The optional
  /// SLING-style `static_cache` is consulted before the concurrent
  /// caches, exactly as in SemSimMcEstimator.
  static Result<BatchQueryEngine> Create(
      const Hin* graph, const SemanticMeasure* semantic,
      const WalkIndex* index, const BatchQueryEngineOptions& options = {},
      const PairNormalizerCache* static_cache = nullptr);

  /// Binds a pool + scratch arenas over an existing snapshot. This is
  /// how the stress harness replays a response against the exact
  /// snapshot version that produced it.
  static Result<BatchQueryEngine> CreateFromSnapshot(EngineSnapshotPtr snapshot,
                                                     int num_threads = 0);

  // Construction is Create-only, the same surface as SemSimEngine (the
  // legacy aborting constructor is gone).
  BatchQueryEngine(BatchQueryEngine&&) = default;
  BatchQueryEngine& operator=(BatchQueryEngine&&) = default;

  /// result.values[i] == estimator().Query(pairs[i], ...) for every i;
  /// result.stats carries the merged instrumentation of the batch.
  BatchResult<double> QueryBatch(std::span<const NodePair> pairs) const;

  /// Per-request estimator override: same batch, but run with `mc`
  /// instead of the engine's configured options. This is the serving
  /// layer's entry point — it threads a shrunken walk_budget and a
  /// CancelToken through here. `mc` must satisfy ValidateMcOptions
  /// (checked in debug builds); with the engine's own mc the result is
  /// bit-identical to the override-free overload.
  BatchResult<double> QueryBatch(std::span<const NodePair> pairs,
                                 const SemSimMcOptions& mc) const;

  /// Per-snapshot form: runs the batch against `snap` instead of the
  /// engine's own snapshot (RCU read side — the caller acquired `snap`
  /// once and the whole request resolves on it). Bit-identical to an
  /// engine created from `snap` directly.
  BatchResult<double> QueryBatch(const EngineSnapshot& snap,
                                 std::span<const NodePair> pairs,
                                 const SemSimMcOptions& mc) const;

  /// Full single-source sweeps, one per requested source, partitioned
  /// across the pool (each source is one work item; the inverted index
  /// is built lazily on first use). result.values[i][v] ==
  /// sim(sources[i], v).
  BatchResult<std::vector<double>> SingleSourceBatch(
      std::span<const NodeId> sources) const;
  BatchResult<std::vector<double>> SingleSourceBatch(
      std::span<const NodeId> sources, const SemSimMcOptions& mc) const;
  BatchResult<std::vector<double>> SingleSourceBatch(
      const EngineSnapshot& snap, std::span<const NodeId> sources,
      const SemSimMcOptions& mc) const;

  /// Top-k per requested source through the inverted single-source
  /// sweep. Ties broken by node id, as everywhere in the library.
  BatchResult<std::vector<Scored>> TopKBatch(std::span<const NodeId> sources,
                                             size_t k) const;
  BatchResult<std::vector<Scored>> TopKBatch(std::span<const NodeId> sources,
                                             size_t k,
                                             const SemSimMcOptions& mc) const;
  BatchResult<std::vector<Scored>> TopKBatch(const EngineSnapshot& snap,
                                             std::span<const NodeId> sources,
                                             size_t k,
                                             const SemSimMcOptions& mc) const;

  /// The snapshot backing the convenience overloads. Copying the
  /// shared_ptr is the read-side acquire of the RCU protocol.
  EngineSnapshotPtr snapshot() const { return snapshot_; }

  const SemSimMcEstimator& estimator() const { return snapshot_->estimator(); }
  const ThreadPool& pool() const { return *pool_; }
  /// Resolved worker count (satellite of the num_threads <= 0 contract).
  int num_threads() const { return pool_->num_threads(); }
  const QueryOptions& query_options() const {
    return snapshot_->options().query;
  }
  /// The options the engine runs with; num_threads holds the resolved
  /// count.
  const BatchQueryEngineOptions& options() const { return options_; }

  /// Cross-query cache instrumentation for bench JSON output. The
  /// normalizer cache also counts per-query-context misses it could not
  /// see; rates below are lifetime shard-level hit fractions.
  const ConcurrentPairCache* normalizer_cache() const {
    return snapshot_->normalizer_cache();
  }
  /// nullptr when no memoizing wrapper was built (capacity 0, or the
  /// flat kernel devirtualized the measure).
  const CachedSemanticMeasure* cached_semantic() const {
    return snapshot_->cached_semantic();
  }

  /// The per-worker arena pool behind SingleSourceBatch / TopKBatch;
  /// exposed so benches can report the arena reuse rate.
  const ScratchPool& scratch_pool() const { return *scratch_pool_; }

  /// The snapshot's transition table, and its flat semantic table
  /// (nullptr when the measure is not flattenable).
  const TransitionTable* transition_table() const {
    return snapshot_->transition_table();
  }
  const FlatSemanticTable* flat_semantic_table() const {
    return snapshot_->flat_semantic_table();
  }
  /// "flat+<sem kernel name>" (e.g. "flat+flat-lin", or "flat+virtual"
  /// when the measure is not flattenable).
  std::string kernel_name() const { return snapshot_->kernel_name(); }

  size_t MemoryBytes() const;

 private:
  // Result<BatchQueryEngine> requires a movable engine, so the pool
  // lives behind unique_ptr.
  BatchQueryEngine() = default;

  EngineSnapshotPtr snapshot_;
  BatchQueryEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  // Pooled per-worker query arenas (leased per chunk by the single-
  // source drivers, so steady-state sweeps are allocation-free).
  std::unique_ptr<ScratchPool> scratch_pool_;
};

/// Free-standing parallel single-source entry point: one SemSimFromInto
/// sweep per source, partitioned across `pool`. Usable without a
/// BatchQueryEngine when the caller already owns an inverted index and
/// estimator. Each worker leases one arena from `scratch_pool` per chunk
/// and runs its sweeps allocation-free through it.
std::vector<std::vector<double>> ParallelSemSimFrom(
    const SingleSourceIndex& inverted, std::span<const NodeId> sources,
    const SemSimMcEstimator& estimator, const SemSimMcOptions& options,
    const ThreadPool& pool, ScratchPool& scratch_pool,
    McQueryStats* stats = nullptr);

/// Free-standing parallel top-k driver over the inverted index.
std::vector<std::vector<Scored>> ParallelTopKFrom(
    const SingleSourceIndex& inverted, std::span<const NodeId> sources,
    size_t k, const SemSimMcEstimator& estimator,
    const SemSimMcOptions& options, const ThreadPool& pool,
    ScratchPool& scratch_pool, McQueryStats* stats = nullptr);

}  // namespace semsim

#endif  // SEMSIM_CORE_BATCH_ENGINE_H_
