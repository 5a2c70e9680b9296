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
/// The structure inverts a WalkIndex by (walk id i, position node p):
/// run (i, p) lists every (step s, origin o) such that o's i-th walk
/// stands on p after s+1 reverse steps, sorted by (step, origin). Two
/// coupled walks from (u,v) meet at step s iff v's walk i occupies the
/// same node as u's walk i at step s — so *all* candidates whose i-th
/// walk collides with u's at step s sit in run (i, walk_u[s]), found by
/// two offset loads and a binary search on the step inside a run of
/// about t entries. sim(u, ·) for every node costs O(n_w·t + collisions)
/// for SimRank (plus the IS reweighting of colliding prefixes for
/// SemSim) instead of n separate pair queries.
///
/// Layout (CSR per walk; ProbeSim's position-keyed walk index):
///  - walk_base_[i] — start of walk i's region in entries_ (n_w + 1);
///  - run_offsets_[i·(n+1) + p] — start of run (i, p), relative to
///    walk_base_[i] (n_w·(n+1) uint32_t; a walk region holds at most
///    n·t entries, which Build checks fits in 32 bits);
///  - entries_ — 8-byte (step, origin) records, run after run.
class SingleSourceIndex {
 public:
  SingleSourceIndex() = default;

  /// Builds the inverted index over all index.num_nodes() nodes;
  /// `index` (and the graph it was built on) must outlive the result.
  /// Memory mirrors the walk index, O(n·n_w·t). Construction is a
  /// counting build, O(n·n_w·t), partitioned by walk across `pool`
  /// (nullptr runs it inline). Every walk's region is written by
  /// exactly one task in a fixed order, so the result is bit-identical
  /// for every thread count.
  static SingleSourceIndex Build(const WalkIndex& index,
                                 const ThreadPool* pool = nullptr);

  /// A detected first meeting of the coupled walks from (u, v).
  /// Historically a nested struct; now the namespace-scope WalkMeeting
  /// so QueryScratch can buffer them.
  using Meeting = WalkMeeting;

  /// All first meetings of every node's walks with u's walks, grouped
  /// by node with walks ascending inside a node, i.e. strictly
  /// increasing in (node, walk). O(n + n_w·t + total collisions).
  std::vector<Meeting> FirstMeetings(NodeId u) const;

  /// Allocation-free form: binds `scratch` to this index's shape,
  /// starts a fresh query epoch, and leaves the meetings (same order as
  /// FirstMeetings) in scratch.meetings, with their walk-major
  /// enumeration order in scratch.walk_order_meetings. Only this entry
  /// point pays the by-node counting pass; SemSimFromInto reads the
  /// walk-major order directly.
  void FirstMeetingsInto(NodeId u, QueryScratch& scratch) const;

  /// Single-source SimRank: scores[v] = (1/n_w)·Σ c^{τ} over the first
  /// meetings of (u, v); scores[u] = 1.
  std::vector<double> SimRankFrom(NodeId u, double decay) const;

  /// Single-source SemSim via the IS estimator: equivalent to calling
  /// estimator.Query(u, v, options) for every v, but meeting detection is
  /// shared through this index and SO(u,v) is computed once per
  /// candidate. The IS steps run walk-major: the met walks of one walk
  /// advance together, because at step j all of them share u's node
  /// u_j. With groups (AttachGroups), u_j's taxonomy corrections are
  /// scattered once into a concept-indexed row in `scratch` and every
  /// candidate's SO(u_j, v_j) is summed against it
  /// (NormalizerGroups::SumAgainstRow): no merge, and no probe of the
  /// estimator's shared cache, whose contents therefore never change
  /// here. Without groups each SO comes from estimator.Normalizer (the
  /// d² loop behind the shared cache). Every score equals, to the bit,
  /// replaying FirstMeetings through Normalizer and CoupledWalkScore
  /// with the same final scaling, and so do met_walks, pruned_walks
  /// and sem_pruned_queries. `estimator` must wrap the same WalkIndex
  /// this index was built from. All transient state lives in `scratch`
  /// (reusable across queries and sources); the result lands in `out`
  /// (resized to n; its capacity is reused on repeat calls).
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
           run_offsets_.size() * sizeof(uint32_t) +
           walk_base_.size() * sizeof(size_t);
  }

  /// FNV-1a over the walk bases, run offsets and entry array — the whole
  /// queryable state. Two builds over the same walk index fingerprint
  /// equal iff their structures are byte-identical; the determinism
  /// tests and the cold-start bench compare builds across thread counts
  /// with this.
  uint64_t Fingerprint() const;

 private:
  struct Entry {
    // Leaves the fields uninitialized, so sizing entries_ costs no
    // zeroing pass: Build writes every entry.
    Entry() {}
    Entry(uint32_t s, NodeId o) : step(s), origin(o) {}
    uint32_t step;  // 0-based step at which the walk stands on the node
    NodeId origin;  // walk owner
  };

  /// Meeting enumeration under the current epoch, walk-major into
  /// scratch.walk_order_meetings (walks ascending, then steps, then
  /// nodes); shared by FirstMeetingsInto and SemSimFromInto (scratch
  /// must be bound and BeginQuery'd). Only walks < walk_cap are
  /// enumerated (the serving layer's walk-budget degradation; pass
  /// num_walks_ for the full index) and a fired `cancel` token stops
  /// the enumeration between walks.
  void EnumerateMeetings(NodeId u, int walk_cap, const CancelToken* cancel,
                         QueryScratch& scratch) const;

  const WalkIndex* index_ = nullptr;
  size_t num_nodes_ = 0;
  int num_walks_ = 0;
  int walk_length_ = 0;
  std::vector<size_t> walk_base_;      // num_walks + 1
  std::vector<uint32_t> run_offsets_;  // num_walks·(num_nodes + 1)
  std::vector<Entry> entries_;         // each run sorted by (step, origin)
};

}  // namespace semsim

#endif  // SEMSIM_CORE_SINGLE_SOURCE_H_
