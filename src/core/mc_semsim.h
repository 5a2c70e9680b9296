#ifndef SEMSIM_CORE_MC_SEMSIM_H_
#define SEMSIM_CORE_MC_SEMSIM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/concurrent_cache.h"
#include "core/mc_kernels.h"
#include "core/sling_cache.h"
#include "core/walk_index.h"
#include "graph/hin.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {

/// Options of the IS-based MC estimator (Algorithm 1). The last two
/// fields are request-scoped: the serving layer's graceful-degradation
/// and cancellation knobs, defaulted off so every existing aggregate
/// initializer keeps its meaning.
struct SemSimMcOptions {
  /// Decay factor c.
  double decay = 0.6;
  /// Pruning threshold θ. 0 disables pruning (the unbiased estimator);
  /// the paper's default with pruning is 0.05 and Lemma 4.7 requires
  /// θ ≤ 1 - c for scores to stay in [0,1].
  double theta = 0.0;
  /// Per-query walk budget n_b: only the first n_b walks of the index
  /// are estimated and the average is taken over n_b. 0 (or any value
  /// >= the index's n_w) means the full index — bit-identical to the
  /// pre-budget behavior. Smaller budgets keep the estimator unbiased
  /// with fewer samples; the widened Hoeffding band is
  /// WalkBudgetErrorBand(n_b, ...). Negative values are rejected by
  /// ValidateMcOptions.
  int walk_budget = 0;
  /// Cooperative cancellation/deadline token polled between work chunks
  /// (per pair in batches, every few walks inside a pair, every few
  /// meetings inside a single-source sweep). When it fires, loops stop
  /// refining and return partial values — the caller that armed the
  /// token is expected to discard them (the serving layer reports
  /// token->ToStatus() instead of the scores). nullptr = never stops.
  /// Not an estimator parameter: results are bit-identical for any
  /// token that never fires.
  const CancelToken* cancel = nullptr;
};

/// The walk budget a query over an index with `index_walks` walks
/// actually runs with.
inline int EffectiveWalkBudget(const SemSimMcOptions& options,
                               int index_walks) {
  return options.walk_budget > 0 && options.walk_budget < index_walks
             ? options.walk_budget
             : index_walks;
}

/// Domain check shared by EngineSnapshot::Create and the differential
/// verification harness: decay must lie in (0,1) and θ ≤ 1 - decay
/// (Lemma 4.7). Returns InvalidArgument naming the violated constraint.
Status ValidateMcOptions(const SemSimMcOptions& options);

/// The query-time surface of an EngineSnapshot: the estimator
/// parameters applied to every query served from it
/// (EngineSnapshotOptions::query).
struct QueryOptions {
  /// Always kFlat, the only kernel (DESIGN.md §7). Kept only because the
  /// serving benchmark assigns it; the next change to that benchmark
  /// removes this field together with QueryKernel.
  QueryKernel kernel = QueryKernel::kFlat;
  /// Estimator parameters: c=0.6 and pruning θ=0.05 are the paper's
  /// experimental setting.
  SemSimMcOptions mc{0.6, 0.05};
};

/// Per-query instrumentation (used by the Fig. 4 experiment to explain
/// where time goes).
struct McQueryStats {
  /// Coupled walks whose members met within the truncation.
  int met_walks = 0;
  /// Walks cut short by the θ partial-product bound (Def. 4.5).
  int pruned_walks = 0;
  /// Query answered 0 because sem(u,v) <= θ (lines 2-3 of Algorithm 1).
  bool sem_pruned = false;
  /// Number of queries answered 0 by the sem(u,v) <= θ test — the
  /// summable form of `sem_pruned` (which saturates under Merge).
  int64_t sem_pruned_queries = 0;
  /// Number of d²-cost normalizer (SO) computations performed.
  int64_t normalizers_computed = 0;
  /// Normalizer lookups answered by the SLING-style cache.
  int64_t normalizer_cache_hits = 0;
  /// Normalizer lookups answered by the cross-query concurrent cache.
  int64_t shared_cache_hits = 0;
  /// Σ |In(lo)|·|In(hi)| over the normalizers computed: the d² work
  /// behind `normalizers_computed`, which counts a hub pair and a leaf
  /// pair alike.
  int64_t normalizer_work = 0;

  /// Accumulates `other` into this record (counter sums; sem_pruned
  /// becomes a count-like OR). Sums commute, so merging per-thread
  /// partials yields the same totals for every thread count.
  void Merge(const McQueryStats& other) {
    met_walks += other.met_walks;
    pruned_walks += other.pruned_walks;
    sem_pruned = sem_pruned || other.sem_pruned;
    sem_pruned_queries += other.sem_pruned_queries;
    normalizers_computed += other.normalizers_computed;
    normalizer_cache_hits += other.normalizer_cache_hits;
    shared_cache_hits += other.shared_cache_hits;
    normalizer_work += other.normalizer_work;
  }
};

/// Typed result of the batch entry points: the per-item values plus the
/// instrumentation of the whole batch. Replaces the legacy
/// `McQueryStats* stats = nullptr` out-param idiom — callers that want
/// the counters read `.stats`, callers that don't simply ignore it.
template <typename T>
struct BatchResult {
  std::vector<T> values;
  McQueryStats stats;
};

/// Adds one stats record to the global MetricsRegistry's
/// `semsim_query_*` counters. The estimator's public entry points call
/// this on every query, so registry totals accumulate even for the
/// (legacy) `stats = nullptr` call sites that used to drop the counts.
void PublishQueryStats(const McQueryStats& stats);

/// Single-pair SemSim estimator implementing the paper's Algorithm 1:
/// walks are drawn once from the proposal distribution Q (the WalkIndex),
/// and Importance Sampling reweights each coupled walk by P(w)/Q(w) under
/// the semantic-aware distribution P, yielding an unbiased estimate of
/// sem(u,v)·E_P[c^τ] (Eq. 4). Average query time O(n_w·t·d²); with the
/// pruning rules the observed time is on par with SimRank (Sec. 5.2).
class SemSimMcEstimator {
 public:
  /// All pointers must outlive the estimator; `cache` is optional
  /// (nullptr = compute every normalizer on the fly). Builds the
  /// estimator's TransitionTable over `graph` (DESIGN.md §7), one
  /// O(|V| + |E|) pass.
  SemSimMcEstimator(const Hin* graph, const SemanticMeasure* semantic,
                    const WalkIndex* index,
                    const PairNormalizerCache* cache = nullptr);

  /// Installs a cross-query normalizer cache shared by every thread and
  /// every subsequent query. Consulted after the static SLING cache and
  /// the per-query context; computed normalizers are published to it.
  /// Values are deterministic functions of the pair, so cache history
  /// never changes results. Pass nullptr to detach. The cache must
  /// outlive the estimator (or the detach).
  void set_shared_cache(ConcurrentPairCache* cache) { shared_cache_ = cache; }
  const ConcurrentPairCache* shared_cache() const { return shared_cache_; }

  /// Devirtualizes sem(u,v) through `semantics` when the bound measure
  /// is one of the four flattenable built-ins (DESIGN.md §7);
  /// `semantics` must then have been built from that measure's
  /// SemanticContext (checked). Results are bit-identical to the virtual
  /// path on every query. The table must outlive the estimator. Returns
  /// true when the measure was devirtualized (false = virtual fallback:
  /// `semantics` is nullptr, or the measure is JiangConrath or custom).
  bool AttachFlatKernel(const FlatSemanticTable* semantics);

  /// The in-edge transition table every step reads.
  const TransitionTable& transition_table() const { return transitions_; }

  /// Name of the active semantic kernel: "virtual", or
  /// "flat-lin" / "flat-resnik" / "flat-wupalmer" / "flat-path".
  std::string_view sem_kernel_name() const;

  /// sem(u, v) through the active semantic kernel — bit-identical to
  /// semantic().Sim(u, v), minus the virtual dispatch when flat.
  double SemValue(NodeId u, NodeId v) const;

  /// Estimates sim(u, v). Unbiased for θ = 0 (Prop. 4.4); with θ > 0 the
  /// additional one-sided error is bounded by θ (Prop. 4.6). Stage
  /// counts are always published to the global MetricsRegistry
  /// (`semsim_query_*`); the `stats` out-param is the legacy per-call
  /// view and may stay nullptr.
  double Query(NodeId u, NodeId v, const SemSimMcOptions& options,
               McQueryStats* stats = nullptr) const;

  /// Batch form of Query: results[i] == Query(pairs[i].first,
  /// pairs[i].second, options) for every i, with the items partitioned
  /// dynamically across `pool`. Deterministic and thread-count
  /// independent: each item is estimated in isolation (per-item
  /// accumulation order is fixed by the walk index, queries draw no
  /// randomness) and written to its own slot; per-thread stats partials
  /// are merged by commutative sums into *stats. As with Query, stage
  /// counts always reach the global MetricsRegistry; `stats` is the
  /// legacy out-param view.
  std::vector<double> QueryBatch(std::span<const NodePair> pairs,
                                 const SemSimMcOptions& options,
                                 const ThreadPool& pool,
                                 McQueryStats* stats = nullptr) const;

  /// Per-query memo of SO normalizers computed along coupled-walk
  /// prefixes, keyed by the ordered pair (u, v). Sharing one context
  /// across many queries with the same source node (single-source /
  /// top-k workloads) removes most of the d²-cost recomputation.
  ///
  /// A flat open-addressed table (linear probing) whose slots carry a
  /// uint32 epoch stamp: a slot is live iff its stamp equals the current
  /// epoch, so Clear() is an epoch bump instead of a reset, and the
  /// table keeps its capacity across queries. It doubles when half full
  /// and allocates nothing until the first insert. Single-threaded.
  class QueryContext {
   public:
    /// Slots allocated by the first insert.
    static constexpr size_t kInitialCapacity = 64;

    /// The memoized value of (u, v), or nullptr.
    const double* Find(NodeId u, NodeId v) const {
      if (slots_.empty()) return nullptr;
      const uint64_t key = PackKey(u, v);
      for (size_t i = Mix(key) & mask_;; i = (i + 1) & mask_) {
        const Slot& slot = slots_[i];
        if (slot.stamp != epoch_) return nullptr;
        if (slot.key == key) return &slot.value;
      }
    }

    /// Records (u, v) → value; (u, v) must not be present.
    void Insert(NodeId u, NodeId v, double value) {
      if (2 * (size_ + 1) > slots_.size()) Grow();
      Place(PackKey(u, v), value);
      ++size_;
    }

    /// Forgets every entry in O(1). A wrapped epoch re-zeroes the stamps
    /// once every 2^32 - 1 clears, so a stale stamp can never match.
    void Clear() {
      size_ = 0;
      if (++epoch_ == 0) {
        for (Slot& slot : slots_) slot.stamp = 0;
        epoch_ = 1;
      }
    }

    size_t size() const { return size_; }
    size_t capacity() const { return slots_.size(); }
    uint32_t epoch() const { return epoch_; }
    size_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

    /// Test hook: the same as Clear()ing until the epoch reaches
    /// `epoch` (≥ the current one), so a test can force the wrap-around
    /// without 2^32 clears.
    void SetEpochForTesting(uint32_t epoch) {
      size_ = 0;
      epoch_ = epoch;
    }

   private:
    struct Slot {
      uint64_t key;
      double value;
      uint32_t stamp;  // live iff == epoch_; 0 = never written
    };

    static uint64_t PackKey(NodeId u, NodeId v) {
      return (static_cast<uint64_t>(u) << 32) | v;
    }
    // SplitMix64 finalizer (same mix as NodePairHash).
    static uint64_t Mix(uint64_t k) {
      k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ULL;
      k = (k ^ (k >> 27)) * 0x94D049BB133111EBULL;
      return k ^ (k >> 31);
    }

    void Place(uint64_t key, double value) {
      size_t i = Mix(key) & mask_;
      while (slots_[i].stamp == epoch_) i = (i + 1) & mask_;
      slots_[i] = Slot{key, value, epoch_};
    }

    void Grow() {
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(old.empty() ? kInitialCapacity : 2 * old.size(),
                    Slot{0, 0.0, 0});
      mask_ = slots_.size() - 1;
      for (const Slot& slot : old) {
        if (slot.stamp == epoch_) Place(slot.key, slot.value);
      }
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    size_t size_ = 0;
    uint32_t epoch_ = 1;
  };

  /// IS score of the `walk`-th coupled walk from (u,v), given its first
  /// meeting at step `meeting_step` (1-based, as returned by
  /// FirstMeetingStep): the running product Π_j (P_j/Q_j)·c over the
  /// prefix, stopped at the θ bound per Def. 4.5. Building block of
  /// Query() and of the single-source engine.
  double CoupledWalkScore(NodeId u, NodeId v, int walk, int meeting_step,
                          const SemSimMcOptions& options,
                          QueryContext* context,
                          McQueryStats* stats = nullptr) const;

  const Hin& graph() const { return *graph_; }
  const SemanticMeasure& semantic() const { return *semantic_; }
  const WalkIndex& index() const { return *index_; }

 private:
  /// SO(u,v): the d²-cost semantic-aware normalizer. Served from the
  /// SLING-style cache when available, else from the context memo (walk
  /// prefixes overlap heavily within one source), else computed.
  double Normalizer(NodeId u, NodeId v, QueryContext* context,
                    McQueryStats* stats) const;

  // Templated inner loops, instantiated per semantic policy in
  // mc_semsim.cc; Dispatch routes a call to the instantiation matching
  // the attached semantic table (defined there too — all uses are in
  // that translation unit).
  template <typename F>
  auto Dispatch(F&& f) const;
  template <typename Sem>
  double QueryT(const Sem& sem, NodeId u, NodeId v,
                const SemSimMcOptions& options, QueryContext* context,
                McQueryStats* stats) const;
  template <typename Sem>
  double CoupledWalkScoreT(const Sem& sem, NodeId u, NodeId v, int walk,
                           int meeting_step, const SemSimMcOptions& options,
                           QueryContext* context, McQueryStats* stats) const;
  template <typename Sem>
  double NormalizerT(const Sem& sem, NodeId u, NodeId v,
                     QueryContext* context, McQueryStats* stats) const;

  const Hin* graph_;
  const SemanticMeasure* semantic_;
  const WalkIndex* index_;
  const PairNormalizerCache* cache_;
  ConcurrentPairCache* shared_cache_ = nullptr;
  TransitionTable transitions_;
  // Devirtualized semantics (AttachFlatKernel). Null / kVirtual = the
  // virtual SemanticMeasure path.
  const FlatSemanticTable* flat_sem_ = nullptr;
  kernels::SemKind sem_kind_ = kernels::SemKind::kVirtual;
};

/// Sampling parameters guaranteeing a target accuracy (Prop. 4.2): with
///   t   > log_c(eps / 2)            and
///   n_w >= 14/(3 eps²) · (log(2/delta) + 2 log n)
/// the estimate of any pair is within eps of sim(u,v) with probability at
/// least 1-delta. The paper's default (n_w=150, t=15) corresponds to
/// loose eps at its graph sizes — these formulas let callers pick
/// rigorously instead.
struct WalkAccuracy {
  int num_walks;
  int walk_length;
};
WalkAccuracy RequiredWalkParameters(double epsilon, double delta,
                                    size_t num_nodes, double decay);

/// Inverse of the n_w bound of Prop. 4.2: the additive error eps that a
/// budget of `walk_budget` walks still guarantees with probability
/// 1 - delta on a graph of `num_nodes` nodes,
///   eps(n_b) = sqrt(14 (log(2/delta) + 2 log n) / (3 n_b)).
/// This is the error band the serving layer reports when graceful
/// degradation shrinks a request's walk budget. Monotone: fewer walks,
/// wider band. Not clamped — budgets far below the Prop. 4.2
/// requirement yield bands above 1, which is honest (the bound is
/// vacuous there).
double WalkBudgetErrorBand(int walk_budget, double delta, size_t num_nodes);

/// The naive MC framework of Sec. 4.2: samples `num_walks` coupled SARWs
/// of at most `walk_length` steps directly from the semantic-aware
/// distribution P (each step costs d² to materialize the transition row)
/// and averages sem(u,v)·c^τ. Unbiased, but cannot reuse a per-node walk
/// index — precomputing its walks for all pairs would need O(n_w·t·n²)
/// storage, the quadratic blow-up that motivates Importance Sampling.
double NaiveSemSimMcQuery(const Hin& graph, const SemanticMeasure& semantic,
                          NodeId u, NodeId v, int num_walks, int walk_length,
                          double decay, Rng& rng);

}  // namespace semsim

#endif  // SEMSIM_CORE_MC_SEMSIM_H_
