#ifndef SEMSIM_CORE_BATCH_ENGINE_H_
#define SEMSIM_CORE_BATCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/engine_snapshot.h"
#include "core/mc_semsim.h"
#include "core/query_scratch.h"
#include "core/single_source.h"
#include "core/topk.h"
#include "core/walk_index.h"
#include "graph/hin.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {

/// The parallel batch query engine: owns a persistent ThreadPool and the
/// per-worker scratch arenas, and drives single-pair, full
/// single-source, and top-k SemSim workloads over an EngineSnapshot —
/// the immutable artifact bundle of DESIGN.md §14, and the only place
/// the estimator and cache settings live. The engine's own snapshot
/// backs the convenience overloads; the serving layer passes
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
  /// The only factory: binds a pool of `num_threads` workers (<= 0
  /// resolves to hardware concurrency, reported by num_threads()) and
  /// scratch arenas over a non-null snapshot built by EngineSnapshot.
  /// This is also how the stress harness replays a response against the
  /// exact snapshot version that produced it.
  static Result<BatchQueryEngine> CreateFromSnapshot(EngineSnapshotPtr snapshot,
                                                     int num_threads = 0);

  BatchQueryEngine(BatchQueryEngine&&) = default;
  BatchQueryEngine& operator=(BatchQueryEngine&&) = default;

  /// result.values[i] == snapshot()->estimator().Query(pairs[i], ...)
  /// for every i; result.stats carries the merged instrumentation of
  /// the batch.
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

  /// The snapshot backing the convenience overloads; its estimator,
  /// options and caches are read through it. Copying the shared_ptr is
  /// the read-side acquire of the RCU protocol.
  EngineSnapshotPtr snapshot() const { return snapshot_; }

  const ThreadPool& pool() const { return *pool_; }
  /// Resolved worker count (satellite of the num_threads <= 0 contract).
  int num_threads() const { return pool_->num_threads(); }

  /// The per-worker arena pool behind SingleSourceBatch / TopKBatch;
  /// exposed so benches can report the arena reuse rate.
  const ScratchPool& scratch_pool() const { return *scratch_pool_; }

  size_t MemoryBytes() const;

 private:
  // Result<BatchQueryEngine> requires a movable engine, so the pool
  // lives behind unique_ptr.
  BatchQueryEngine() = default;

  EngineSnapshotPtr snapshot_;
  std::unique_ptr<ThreadPool> pool_;
  // Pooled per-worker query arenas (leased per chunk by the single-
  // source drivers, so steady-state sweeps are allocation-free).
  std::unique_ptr<ScratchPool> scratch_pool_;
};

}  // namespace semsim

#endif  // SEMSIM_CORE_BATCH_ENGINE_H_
