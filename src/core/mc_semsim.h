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
#include "core/normalizer_groups.h"
#include "core/walk_index.h"
#include "graph/hin.h"
#include "graph/transition_table.h"
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
  /// Number of SO normalizer computations performed (cache misses).
  int64_t normalizers_computed = 0;
  /// Normalizer lookups answered by the cross-query concurrent cache.
  int64_t shared_cache_hits = 0;
  /// The work behind `normalizers_computed`, which counts a hub pair
  /// and a leaf pair alike: on the grouped path g_lo·g_hi group pairs
  /// plus the correction-list entries the same-concept merge actually
  /// read — both lists in full when merged linearly, O(s·log(l/s)) when
  /// the short list gallops through the long one
  /// (NormalizerGroups::Work); |In(lo)|·|In(hi)| on the d² path.
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

/// Projects an estimate onto [0, sem(u,v)]: sim(u,v) ≤ sem(u,v)
/// (Prop. 2.5), so the projection can only move an estimate toward the
/// true value. Applied to every estimate the estimator and the
/// single-source sweep return.
inline double ProjectOntoSemBound(double estimate, double sem_uv) {
  return estimate < 0 ? 0.0 : (estimate > sem_uv ? sem_uv : estimate);
}

/// Single-pair SemSim estimator implementing the paper's Algorithm 1:
/// walks are drawn once from the proposal distribution Q (the WalkIndex),
/// and Importance Sampling reweights each coupled walk by P(w)/Q(w) under
/// the semantic-aware distribution P, yielding an unbiased estimate of
/// sem(u,v)·E_P[c^τ] (Eq. 4), projected onto [0, sem(u,v)].
///
/// Cost: every IS step divides by the SO normalizer of its pair. The
/// paper's bound is O(n_w·t·d²), d² for the Σ_{a∈In(u), b∈In(v)} loop,
/// and that loop is what a custom or JiangConrath measure still runs.
/// With groups attached (AttachGroups: Lin, Resnik, Wu–Palmer, Path)
/// the normalizer is summed over taxonomy groups instead
/// (NormalizerGroups): O(g_u·g_v + d_u + d_v) per step, with g the
/// number of groups in an in-neighbourhood (2 for each of the 12
/// largest hubs of the AMiner-10k and Amazon-3k serving graphs).
///
/// The inner loops run under one of two semantic policies (DESIGN.md
/// §7). When the taxonomy has at most NormalizerGroups::kMaxTableGroups
/// groups, GroupTableSem makes every sem(·,·) of a step and of a
/// normalizer one read of the groups' S table, so no LCA query runs
/// after the build. Otherwise kernels::VirtualSem calls the measure.
/// Both return the measure's bits. With the pruning rules the observed
/// time is on par with SimRank (Sec. 5.2).
class SemSimMcEstimator {
 public:
  /// All pointers must outlive the estimator. Builds the estimator's
  /// TransitionTable over `graph` (DESIGN.md §7), one O(|V| + |E|) pass.
  SemSimMcEstimator(const Hin* graph, const SemanticMeasure* semantic,
                    const WalkIndex* index);

  /// Installs a cross-query normalizer cache shared by every thread and
  /// every subsequent query. Consulted before computing a normalizer;
  /// computed normalizers are published to it. Values are deterministic
  /// functions of the pair, so cache history never changes results.
  /// Pass nullptr to detach (every miss is then computed on the fly).
  /// The cache must outlive the estimator (or the detach).
  void set_shared_cache(ConcurrentPairCache* cache) { shared_cache_ = cache; }
  const ConcurrentPairCache* shared_cache() const { return shared_cache_; }

  /// Builds the estimator's NormalizerGroups over the bound measure's
  /// SemanticContext when the measure is Lin, Resnik, Wu–Palmer or Path
  /// (kernels::ClassifyMeasure; DESIGN.md §7),
  /// O(|V| + |E| + |C| log |C| + G²). sem(u,v) keeps the measure's bits;
  /// SO normalizers are summed over taxonomy groups, so estimates agree
  /// with the d² oracle up to summation order (≤ 1e-9 relative). Returns
  /// true when groups were built (false for JiangConrath, Constant and
  /// custom measures, which keep the d² loop). Calling it again rebuilds
  /// the same groups.
  bool AttachGroups();

  /// The in-edge transition table every step reads.
  const TransitionTable& transition_table() const { return transitions_; }

  /// The grouped-normalizer tables; empty unless AttachGroups built
  /// them.
  const NormalizerGroups& normalizer_groups() const { return groups_; }

  /// Name of the active semantic path: "group-table" (sem(·,·) and SO
  /// from the S table), "virtual-grouped" (groups above the table cap:
  /// virtual sem(·,·), SO summed over groups) or "virtual" (no groups:
  /// virtual sem(·,·), SO by the d² loop).
  std::string_view sem_kernel_name() const;

  /// sem(u, v) through the active semantic policy — bit-identical to
  /// semantic().Sim(u, v), and one table read (NormalizerGroups::NodeSim)
  /// when the groups tabulate S.
  double SemValue(NodeId u, NodeId v) const;

  /// Estimates sim(u, v). Unbiased for θ = 0 (Prop. 4.4) before the
  /// projection onto [0, sem(u,v)], which only moves an estimate toward
  /// the true value; with θ > 0 the additional one-sided error is
  /// bounded by θ (Prop. 4.6). Stage
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

  /// SO(u,v): the semantic-aware normalizer. Served from the shared
  /// cache when one is attached and holds the pair, else computed: over
  /// taxonomy groups when AttachGroups built them, else by the d² loop.
  /// A bit-exact function of the unordered pair.
  double Normalizer(NodeId u, NodeId v, McQueryStats* stats = nullptr) const;

  /// IS score of the `walk`-th coupled walk from (u,v), given its first
  /// meeting at step `meeting_step` (1-based, as returned by
  /// FirstMeetingStep) and so_uv = Normalizer(u, v), the normalizer of
  /// the first step, which every met walk of the pair shares: the
  /// running product Π_j (P_j/Q_j)·c over the prefix, stopped at the θ
  /// bound per Def. 4.5. Building block of Query() and of the
  /// single-source engine, which both compute so_uv once per pair.
  double CoupledWalkScore(NodeId u, NodeId v, double so_uv, int walk,
                          int meeting_step, const SemSimMcOptions& options,
                          McQueryStats* stats = nullptr) const;

  const Hin& graph() const { return *graph_; }
  const SemanticMeasure& semantic() const { return *semantic_; }
  const WalkIndex& index() const { return *index_; }

 private:
  // Templated inner loops, instantiated for the two semantic policies in
  // mc_semsim.cc; Dispatch routes a call to GroupTableSem when the groups
  // tabulate S, else to kernels::VirtualSem (defined there too — all
  // uses are in that translation unit).
  template <typename F>
  auto Dispatch(F&& f) const;
  template <typename Sem>
  double QueryT(const Sem& sem, NodeId u, NodeId v,
                const SemSimMcOptions& options, McQueryStats* stats) const;
  template <typename Sem>
  double CoupledWalkScoreT(const Sem& sem, NodeId u, NodeId v, double so_uv,
                           int walk, int meeting_step,
                           const SemSimMcOptions& options,
                           McQueryStats* stats) const;
  template <typename Sem>
  double NormalizerT(const Sem& sem, NodeId u, NodeId v,
                     McQueryStats* stats) const;

  const Hin* graph_;
  const SemanticMeasure* semantic_;
  const WalkIndex* index_;
  ConcurrentPairCache* shared_cache_ = nullptr;
  TransitionTable transitions_;
  // Grouped SO normalizers and the S table (AttachGroups); empty = the
  // d² loop.
  NormalizerGroups groups_;
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
