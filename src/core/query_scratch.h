#ifndef SEMSIM_CORE_QUERY_SCRATCH_H_
#define SEMSIM_CORE_QUERY_SCRATCH_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/types.h"

namespace semsim {

/// A first meeting of the coupled walks from (u, v), as enumerated by
/// the single-source sweep. Namespace-scope so the scratch arena can
/// hold a buffer of them; SingleSourceIndex aliases it as its historical
/// nested `Meeting` type.
struct WalkMeeting {
  NodeId node;  // the other endpoint v
  int walk;
  int step;  // 1-based first-meeting step τ
};

/// A coupled walk of the single-source sweep that has not yet met nor
/// been pruned: its candidate v, v's walk, the first-meeting step and
/// the running IS score.
struct LiveWalk {
  NodeId node;
  int meet_step;
  const NodeId* walk_v;
  double score;
};

/// Reusable per-query scratch arena for the single-source sweeps
/// (DESIGN.md §10). One single-source sweep over n nodes needs
/// seven O(n) vectors, one concept-indexed row and a short live-walk
/// list; with an arena those buffers persist across queries, and
/// per-query "clearing" is an epoch bump instead of an O(n) reset:
///
///  - met_stamp[v] holds epoch·(n_w+1) + walk+1 when v's first meeting
///    with that walk was already recorded this query — stale values from
///    earlier epochs are strictly smaller and never collide.
///  - sem_epoch[v] == epoch gates the validity of sem_ok[v]/sem_val[v]
///    (the lazily evaluated semantic-pruning state) and of so_uv[v],
///    the candidate's first-step normalizer SO(u,v).
///  - scores is kept all-zero *between* queries: after a sweep copies
///    its result out, it re-zeroes exactly the entries its meetings
///    touched, so the next query starts clean without a memset.
///  - correction_row is all-zero between steps: the sweep scatters one
///    u-side node's taxonomy corrections into it by concept id, reads
///    it for every live candidate's SO normalizer, and clears exactly
///    those entries again (NormalizerGroups::SumAgainstRow).
///
/// Results are bit-identical to the allocate-per-query path: the meeting
/// enumeration order, the accumulation order, and every intermediate
/// value are unchanged, and so are the stage counts. No state crosses
/// queries: a sweep computes every SO normalizer it needs from this
/// arena and the estimator's groups, and never reads or fills the
/// shared normalizer cache (without groups it asks the estimator,
/// whose Normalizer does). A scratch is single-threaded state;
/// concurrent sweeps take one each from a ScratchPool.
class QueryScratch {
 public:
  /// Sizes the arrays for an index shape; no-op (and no reset) when the
  /// shape is unchanged, which is the steady state.
  void BindShape(size_t num_nodes, int num_walks) {
    if (num_nodes_ == num_nodes && num_walks_ == num_walks) return;
    num_nodes_ = num_nodes;
    num_walks_ = num_walks;
    epoch_ = 0;
    met_stamp.assign(num_nodes, 0);
    sem_epoch.assign(num_nodes, 0);
    sem_ok.assign(num_nodes, 0);
    sem_val.assign(num_nodes, 0.0);
    so_uv.assign(num_nodes, 0.0);
    scores.assign(num_nodes, 0.0);
    node_cursor.assign(num_nodes, 0);
    meetings.clear();
    walk_order_meetings.clear();
  }

  /// Starts a query: advances the epoch (invalidating met_stamp /
  /// sem_epoch content in O(1)) and clears the meeting buffer.
  void BeginQuery() {
    ++epoch_;
    meetings.clear();
  }

  uint64_t epoch() const { return epoch_; }
  size_t num_nodes() const { return num_nodes_; }
  int num_walks() const { return num_walks_; }

  size_t MemoryBytes() const {
    return met_stamp.capacity() * sizeof(uint64_t) +
           sem_epoch.capacity() * sizeof(uint64_t) +
           sem_ok.capacity() * sizeof(int8_t) +
           sem_val.capacity() * sizeof(double) +
           so_uv.capacity() * sizeof(double) +
           scores.capacity() * sizeof(double) +
           node_cursor.capacity() * sizeof(uint32_t) +
           meetings.capacity() * sizeof(WalkMeeting) +
           walk_order_meetings.capacity() * sizeof(WalkMeeting) +
           correction_row.capacity() * sizeof(double) +
           live_walks.capacity() * sizeof(LiveWalk) +
           result.capacity() * sizeof(double);
  }

  // Buffers, maintained by SingleSourceIndex's *Into sweeps under the
  // invariants documented above.
  std::vector<uint64_t> met_stamp;
  std::vector<uint64_t> sem_epoch;
  std::vector<int8_t> sem_ok;
  std::vector<double> sem_val;
  std::vector<double> so_uv;   // SO(u,v) per candidate, gated by sem_epoch
  std::vector<double> scores;  // all-zero between queries
  /// The meetings of the current query, walk-major: walks ascending,
  /// and inside a walk by step, then by node. The sweep reads them in
  /// this order.
  std::vector<WalkMeeting> walk_order_meetings;
  /// FirstMeetingsInto's result: walk_order_meetings grouped by node
  /// (walks ascending inside a node) by a stable counting pass over
  /// node_cursor (per-node start, then write cursor), without a
  /// comparison sort.
  std::vector<WalkMeeting> meetings;
  std::vector<uint32_t> node_cursor;
  /// One u-side node's correction weights by concept id, all-zero
  /// between sweep steps; sized to the estimator's concept count by the
  /// first sweep that needs it.
  std::vector<double> correction_row;
  /// The coupled walks of the current walk still stepping.
  std::vector<LiveWalk> live_walks;
  /// Result staging buffer for callers that consume scores in place
  /// (top-k) instead of keeping the vector.
  std::vector<double> result;

 private:
  size_t num_nodes_ = 0;
  int num_walks_ = 0;
  uint64_t epoch_ = 0;
};

/// Thread-safe free-list of QueryScratch arenas, pooled per engine so
/// steady-state batch queries stop allocating: a worker leases an arena
/// for a chunk of sources, runs its sweeps through it, and the lease
/// returns it on destruction. The pool grows to the peak concurrency of
/// its engine (bounded by the thread count) and never shrinks.
class ScratchPool {
 public:
  /// RAII lease: returns its arena to the pool on destruction.
  class Lease {
   public:
    Lease(ScratchPool* pool, std::unique_ptr<QueryScratch> scratch)
        : pool_(pool), scratch_(std::move(scratch)) {}
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept {
      Release();
      pool_ = other.pool_;
      scratch_ = std::move(other.scratch_);
      other.pool_ = nullptr;
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { Release(); }

    QueryScratch* get() const { return scratch_.get(); }
    QueryScratch* operator->() const { return scratch_.get(); }
    QueryScratch& operator*() const { return *scratch_; }

   private:
    void Release() {
      if (pool_ != nullptr && scratch_ != nullptr) {
        pool_->Return(std::move(scratch_));
      }
      pool_ = nullptr;
      scratch_.reset();
    }

    ScratchPool* pool_ = nullptr;
    std::unique_ptr<QueryScratch> scratch_;
  };

  /// Takes an arena off the free list (reuse) or creates one (miss).
  Lease Acquire();

  /// Lifetime acquisition counters; reuse_rate == reused / acquired is
  /// the bench's "arena reuse rate" (1.0 in steady state, 0 with no
  /// traffic).
  uint64_t acquired() const {
    return acquired_.load(std::memory_order_relaxed);
  }
  uint64_t reused() const { return reused_.load(std::memory_order_relaxed); }
  double reuse_rate() const {
    uint64_t a = acquired();
    return a == 0 ? 0.0 : static_cast<double>(reused()) / a;
  }

  /// Bytes held by the arenas currently parked in the pool (leased-out
  /// arenas are counted by their holder).
  size_t MemoryBytes() const;

 private:
  friend class Lease;
  void Return(std::unique_ptr<QueryScratch> scratch);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<QueryScratch>> free_;
  std::atomic<uint64_t> acquired_{0};
  std::atomic<uint64_t> reused_{0};
};

}  // namespace semsim

#endif  // SEMSIM_CORE_QUERY_SCRATCH_H_
