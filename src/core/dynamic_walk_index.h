#ifndef SEMSIM_CORE_DYNAMIC_WALK_INDEX_H_
#define SEMSIM_CORE_DYNAMIC_WALK_INDEX_H_

#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/engine_snapshot.h"
#include "core/walk_index.h"
#include "graph/hin.h"

namespace semsim {

/// Incrementally maintainable reverse-walk index, in the spirit of
/// READS [14] — the dynamic-SimRank work the paper cites as directly
/// applicable to SemSim (Sec. 6: the random-walk approach is "compatible
/// with updates in the graph"). Graph versions are immutable Hin
/// snapshots (derive one with Hin::ToBuilder); on Update() only the
/// walks that *visit a node whose in-neighborhood changed* have their
/// suffix resampled against the new version, so small updates cost a
/// fraction of a rebuild while the index stays distributed exactly like
/// a freshly built one (reverse walks are Markov: per-node choices are
/// independent, so untouched prefixes remain valid samples).
///
/// Snapshot integration (DESIGN.md §14): UpdateToSnapshot() runs the
/// same suffix resampling and then exports the result as an immutable
/// EngineSnapshot ready for SnapshotManager::Publish. The export is
/// copy-on-write — the snapshot shares the maintainer's storage, and
/// the *next* Update clones the walks first, so readers of a published
/// snapshot never observe a mutation.
class DynamicWalkIndex {
 public:
  /// Builds the initial index over `graph` (kept by pointer; replaced by
  /// Update()).
  static DynamicWalkIndex Build(const Hin* graph,
                                const WalkIndexOptions& options);

  /// Wraps an existing index (e.g. one loaded or mapped from disk) for
  /// incremental maintenance. A mapped read-only index is promoted to
  /// owned heap storage first (copy-on-write) — in-place suffix
  /// resampling cannot legally write through an mmap'd artifact, and
  /// silently corrupting the shared page cache is the failure mode this
  /// guards against. Fails with InvalidArgument when the index shape
  /// does not match `graph`'s node count.
  static Result<DynamicWalkIndex> Adopt(const Hin* graph, WalkIndex index);

  /// Read view usable by every estimator (SemSimMcEstimator,
  /// McSimRankQuery, SingleSourceIndex, ...). Invalidated by Update();
  /// snapshots exported by UpdateToSnapshot are never invalidated.
  const WalkIndex& view() const { return *index_; }
  const Hin& graph() const { return *graph_; }

  /// Switches to `new_graph` (same node set, edges may differ) where
  /// `dirty_nodes` lists every node whose *in*-neighborhood changed.
  /// Walks are scanned; any walk visiting (or starting at) a dirty node
  /// is resampled from its first dirty visit onward. Returns the number
  /// of resampled walk suffixes. When the walks are shared with a
  /// previously exported snapshot, a private copy is cloned first
  /// (copy-on-write) so the snapshot's readers are unaffected. Fails if
  /// the node count changed or a dirty id is out of range. (A mapped
  /// index was already promoted to owned storage by Adopt.) Weighted
  /// suffixes draw through an alias sampler over `new_graph` that this
  /// call builds on the first weighted draw; no snapshot holds one.
  Result<size_t> Update(const Hin* new_graph,
                        std::span<const NodeId> dirty_nodes);

  /// Update() + snapshot export in one step: resamples against
  /// `new_graph`, then wraps the maintained walks (shared,
  /// copy-on-write) together with `semantic` into a fresh
  /// EngineSnapshot carrying `version`. The snapshot keeps `new_graph`
  /// alive; the maintainer keeps serving further updates. `resampled`
  /// (optional) receives the suffix count Update() would have returned.
  Result<EngineSnapshotPtr> UpdateToSnapshot(
      std::shared_ptr<const Hin> new_graph,
      std::span<const NodeId> dirty_nodes,
      std::shared_ptr<const SemanticMeasure> semantic,
      const EngineSnapshotOptions& options, uint64_t version,
      size_t* resampled = nullptr);

 private:
  DynamicWalkIndex() = default;

  /// Clones the walks when they are shared with an exported snapshot.
  void EnsurePrivateWalks();

  const Hin* graph_ = nullptr;
  // Keep-alive for graphs handed in via UpdateToSnapshot (graph_ points
  // into it); null when the caller owns the graph externally.
  std::shared_ptr<const Hin> graph_keepalive_;
  // The maintained walks. Shared (never mutated) after an export;
  // EnsurePrivateWalks clones before the next in-place resample.
  std::shared_ptr<WalkIndex> index_;
  bool exported_ = false;
  Rng rng_;
  std::vector<uint8_t> dirty_mark_;  // scratch, sized n
};

}  // namespace semsim

#endif  // SEMSIM_CORE_DYNAMIC_WALK_INDEX_H_
