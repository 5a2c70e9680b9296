#ifndef SEMSIM_CORE_ENGINE_SNAPSHOT_H_
#define SEMSIM_CORE_ENGINE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/concurrent_cache.h"
#include "core/mc_semsim.h"
#include "core/single_source.h"
#include "core/walk_index.h"
#include "graph/hin.h"
#include "graph/node_sampler.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {

class EngineSnapshot;
/// The handle every reader holds. A snapshot is always shared and always
/// const: acquiring the pointer once per request is the whole RCU
/// read-side protocol (DESIGN.md §14).
using EngineSnapshotPtr = std::shared_ptr<const EngineSnapshot>;

/// Wraps a caller-owned pointer in a non-owning shared_ptr (no-op
/// deleter), so a caller that keeps its graph, measure or walk index on
/// the stack can feed the snapshot factories without transferring
/// ownership. The pointee must outlive every snapshot built from it.
template <typename T>
std::shared_ptr<const T> Unowned(const T* ptr) {
  return std::shared_ptr<const T>(ptr, [](const T*) {});
}

/// What one snapshot derives from its graph + measure + walk index —
/// the one option surface for building the artifact bundle; the thread
/// count of an executor over it is BatchQueryEngine::CreateFromSnapshot's
/// only other setting.
struct EngineSnapshotOptions {
  /// Estimator parameters applied to every query served from this
  /// snapshot.
  QueryOptions query;
  /// Slot budget of the cross-query SO-normalizer cache. 0 disables it;
  /// negative values are rejected.
  int64_t normalizer_cache_capacity = 1 << 20;
  /// Build the inverted single-source index at snapshot creation
  /// instead of lazily on the first single-source/top-k request.
  bool eager_single_source = false;
};

/// One immutable, versioned bundle of every artifact a query needs: the
/// HIN, the semantic measure, the walk index (owned or mapped), the alias
/// sampler, the normalizer cache, and the estimator bound over them with
/// its transition table and taxonomy groups (DESIGN.md §14). It is the only
/// way to build that bundle; BatchQueryEngine::CreateFromSnapshot binds
/// an executor over it.
///
/// Ownership model: a snapshot is created once, read forever, destroyed
/// when its last reader releases it — it is only ever handled through
/// EngineSnapshotPtr. The graph / measure / walk index are held as
/// shared_ptr so snapshots can chain through dynamic updates (the new
/// snapshot keeps the artifacts of the old one alive exactly as long as
/// needed); Unowned() adapts borrowed pointers.
///
/// The only mutable state is (a) the concurrent normalizer cache, whose
/// entries are bit-exact functions of their keys (cache history never
/// changes results), and (b) the lazily built inverted single-source
/// index, published through an atomic pointer after a mutex-guarded
/// idempotent build. Both preserve the determinism contract: every
/// query against a given snapshot is bit-identical regardless of thread
/// count, cache history, or concurrent swaps.
///
/// `version()` is the monotone publication id assigned by the producer
/// (SnapshotManager enforces monotonicity at the publish seam);
/// `fingerprint()` is a chained FNV-1a hash over the options, the graph
/// shape, and the full walk-index content — two snapshots with equal
/// fingerprints serve bit-identical results. Fingerprinting a mapped
/// index faults its pages in once at creation; that is a deliberate
/// publish-time cost, not a query-time one.
class EngineSnapshot {
 public:
  /// Derives a snapshot from existing artifacts. All three shared
  /// pointers must be non-null; a walk index sampled on a graph with a
  /// different node count, a negative normalizer cache capacity and
  /// invalid MC options (ValidateMcOptions: decay in (0,1), θ ≤ 1 - decay
  /// per Lemma 4.7, walk_budget ≥ 0) are rejected with InvalidArgument.
  /// `build_pool` (optional, borrowed only during the call) parallelizes
  /// the alias sampler and eager single-source builds.
  static Result<EngineSnapshotPtr> Create(
      std::shared_ptr<const Hin> graph,
      std::shared_ptr<const SemanticMeasure> semantic,
      std::shared_ptr<const WalkIndex> walk_index,
      const EngineSnapshotOptions& options, uint64_t version,
      const ThreadPool* build_pool = nullptr);

  /// Samples a fresh walk index with `walks`, then Create().
  static Result<EngineSnapshotPtr> Build(
      std::shared_ptr<const Hin> graph,
      std::shared_ptr<const SemanticMeasure> semantic,
      const WalkIndexOptions& walks, const EngineSnapshotOptions& options,
      uint64_t version, const ThreadPool* build_pool = nullptr);

  /// Zero-copy path: WalkIndex::Map()s the v2 artifact at `path`, then
  /// Create(). The cold-start story of DESIGN.md §10, now ending in a
  /// publishable snapshot.
  static Result<EngineSnapshotPtr> MapArtifact(
      std::shared_ptr<const Hin> graph,
      std::shared_ptr<const SemanticMeasure> semantic,
      const std::string& path, const EngineSnapshotOptions& options,
      uint64_t version, const WalkIndexMapOptions& map_options = {},
      const ThreadPool* build_pool = nullptr);

  EngineSnapshot(const EngineSnapshot&) = delete;
  EngineSnapshot& operator=(const EngineSnapshot&) = delete;
  ~EngineSnapshot();

  const Hin& graph() const { return *graph_; }
  const SemanticMeasure& semantic() const { return *semantic_; }
  const WalkIndex& walk_index() const { return *walk_index_; }
  const SemSimMcEstimator& estimator() const { return *estimator_; }
  const EngineSnapshotOptions& options() const { return options_; }

  /// Shared handles, for chaining the next snapshot off this one.
  const std::shared_ptr<const Hin>& graph_ptr() const { return graph_; }
  const std::shared_ptr<const SemanticMeasure>& semantic_ptr() const {
    return semantic_;
  }
  const std::shared_ptr<const WalkIndex>& walk_index_ptr() const {
    return walk_index_;
  }

  /// Monotone publication id (0 = never published through a manager).
  uint64_t version() const { return version_; }
  /// Chained FNV-1a over options, graph shape, and walk-index content.
  uint64_t fingerprint() const { return fingerprint_; }

  /// The estimator's transition table.
  const TransitionTable* transition_table() const {
    return &estimator_->transition_table();
  }
  /// "flat+" followed by SemSimMcEstimator::sem_kernel_name():
  /// "flat+group-table", "flat+virtual-grouped" or "flat+virtual".
  std::string kernel_name() const;

  /// The alias sampler over the graph's in-neighborhoods; built only
  /// when the walk index was sampled weighted (dynamic updates against
  /// this snapshot reuse it instead of rebuilding).
  const NodeSamplerIndex* sampler() const { return sampler_.get(); }

  /// Cross-query concurrent normalizer cache; nullptr when disabled.
  const ConcurrentPairCache* normalizer_cache() const {
    return normalizer_cache_.get();
  }

  /// The inverted single-source index, built on first use (idempotent;
  /// `pool` parallelizes a build that happens on this call, nullptr
  /// builds serially). Hot swaps warm the replacement by calling this
  /// from the builder before publishing (eager_single_source).
  const SingleSourceIndex& InvertedIndex(const ThreadPool* pool = nullptr)
      const;
  /// nullptr when no single-source/top-k request has forced the build.
  const SingleSourceIndex* inverted_if_built() const {
    return inverted_published_.load(std::memory_order_acquire);
  }

  size_t MemoryBytes() const;

 private:
  EngineSnapshot();

  static void ComputeFingerprint(EngineSnapshot& snap);

  std::shared_ptr<const Hin> graph_;
  std::shared_ptr<const SemanticMeasure> semantic_;
  std::shared_ptr<const WalkIndex> walk_index_;
  EngineSnapshotOptions options_;
  uint64_t version_ = 0;
  uint64_t fingerprint_ = 0;

  std::unique_ptr<NodeSamplerIndex> sampler_;
  std::unique_ptr<ConcurrentPairCache> normalizer_cache_;
  std::unique_ptr<SemSimMcEstimator> estimator_;

  // Lazy inverted index: build under the mutex, read through the
  // atomic (the release store pairs with inverted_if_built()'s and
  // InvertedIndex()'s acquire loads).
  mutable std::mutex inverted_mu_;
  mutable std::unique_ptr<SingleSourceIndex> inverted_;
  mutable std::atomic<const SingleSourceIndex*> inverted_published_{nullptr};
};

}  // namespace semsim

#endif  // SEMSIM_CORE_ENGINE_SNAPSHOT_H_
