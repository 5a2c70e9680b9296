#ifndef SEMSIM_CORE_SINGLE_SOURCE_H_
#define SEMSIM_CORE_SINGLE_SOURCE_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "core/mc_semsim.h"
#include "core/query_scratch.h"
#include "core/topk.h"
#include "core/walk_index.h"
#include "graph/hin.h"

namespace semsim {

/// Single-source similarity queries — the optimization direction the
/// paper leaves as future work (Sec. 7, "single-source and top-k
/// similarity queries, inspired by [17, 46]").
///
/// The structure inverts a WalkIndex: for every (walk id i, step s) it
/// stores the list of (position node, origin) pairs, sorted by node.
/// Two coupled walks from (u,v) meet at step s iff v's walk i occupies
/// the same node as u's walk i at step s — so *all* candidates whose
/// i-th walk collides with u's are found by one binary search per step,
/// and sim(u, ·) for every node costs O(n_w·t·log n + collisions) for
/// SimRank (plus the IS reweighting of colliding prefixes for SemSim)
/// instead of n separate pair queries.
class SingleSourceIndex {
 public:
  SingleSourceIndex() = default;

  /// Builds the inverted index; `index` (and the graph it was built on)
  /// must outlive the result. Memory mirrors the walk index,
  /// O(n·n_w·t). With a pool the three construction passes (bucket
  /// counting, fill, per-bucket sorts) are node- resp. bucket-
  /// partitioned across it; the result is bit-identical for every
  /// thread count (within a bucket, entries are canonicalized by a sort
  /// on the strictly unique (position, origin) key, so the fill order
  /// cannot show through). nullptr runs the same passes inline.
  static SingleSourceIndex Build(const WalkIndex& index, size_t num_nodes,
                                 const ThreadPool* pool = nullptr);

  /// A detected first meeting of the coupled walks from (u, v).
  /// Historically a nested struct; now the namespace-scope WalkMeeting
  /// so QueryScratch can buffer them.
  using Meeting = WalkMeeting;

  /// All first meetings of every node's walks with u's walks. Sorted by
  /// (node, walk). O(n_w·t·log n + total collisions).
  std::vector<Meeting> FirstMeetings(NodeId u) const;

  /// Allocation-free form: binds `scratch` to this index's shape,
  /// starts a fresh query epoch, and leaves the meetings (same order as
  /// FirstMeetings) in scratch.meetings.
  void FirstMeetingsInto(NodeId u, QueryScratch& scratch) const;

  /// Single-source SimRank: scores[v] = (1/n_w)·Σ c^{τ} over the first
  /// meetings of (u, v); scores[u] = 1.
  std::vector<double> SimRankFrom(NodeId u, double decay) const;

  /// Single-source SemSim via the IS estimator: equivalent to calling
  /// estimator.Query(u, v, options) for every v, but meeting detection is
  /// shared through this index and SO normalizers are shared through one
  /// QueryContext across all candidates. `estimator` must wrap the same
  /// WalkIndex this index was built from. All transient state lives in
  /// `scratch` (reusable across queries and sources); the result lands
  /// in `out` (resized to n; its capacity is reused on repeat calls).
  /// Scores and stats do not depend on the scratch's history.
  /// Instrumentation for the whole sweep accumulates into *stats when
  /// given.
  void SemSimFromInto(NodeId u, const SemSimMcEstimator& estimator,
                      const SemSimMcOptions& options, QueryScratch& scratch,
                      std::vector<double>& out,
                      McQueryStats* stats = nullptr) const;

  /// Top-k via SemSimFromInto, the dense score sweep staged in
  /// scratch.result. Ties broken by node id.
  std::vector<Scored> TopKFrom(NodeId u, size_t k,
                               const SemSimMcEstimator& estimator,
                               const SemSimMcOptions& options,
                               QueryScratch& scratch,
                               McQueryStats* stats = nullptr) const;

  size_t MemoryBytes() const {
    return entries_.size() * sizeof(Entry) +
           bucket_offsets_.size() * sizeof(size_t);
  }

  /// FNV-1a over the bucket offsets and entry array — the whole
  /// queryable state. Two builds over the same walk index fingerprint
  /// equal iff their structures are byte-identical; the determinism
  /// tests and the cold-start bench compare builds across thread counts
  /// with this.
  uint64_t Fingerprint() const;

 private:
  struct Entry {
    NodeId position;  // node occupied at (walk, step)
    NodeId origin;    // walk owner
  };

  // Bucket for (walk i, step s) at index i*walk_length + s.
  size_t BucketIndex(int walk, int step) const {
    return static_cast<size_t>(walk) * walk_length_ + static_cast<size_t>(step);
  }

  /// Meeting enumeration into scratch.meetings under the current epoch;
  /// shared by FirstMeetingsInto and SemSimFromInto (scratch must be
  /// bound and BeginQuery'd). Only walks < walk_cap are enumerated (the
  /// serving layer's walk-budget degradation; pass num_walks_ for the
  /// full index) and a fired `cancel` token stops the enumeration
  /// between walks.
  void EnumerateMeetings(NodeId u, int walk_cap, const CancelToken* cancel,
                         QueryScratch& scratch) const;

  const WalkIndex* index_ = nullptr;
  size_t num_nodes_ = 0;
  int num_walks_ = 0;
  int walk_length_ = 0;
  std::vector<size_t> bucket_offsets_;  // num_walks*walk_length + 1
  std::vector<Entry> entries_;          // sorted by position within bucket
};

}  // namespace semsim

#endif  // SEMSIM_CORE_SINGLE_SOURCE_H_
