#include "core/mc_semsim.h"

#include <cmath>
#include <mutex>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "core/mc_simrank.h"

namespace semsim {

Status ValidateMcOptions(const SemSimMcOptions& options) {
  if (!(options.decay > 0 && options.decay < 1)) {
    return Status::InvalidArgument("decay must lie in (0,1)");
  }
  if (options.theta > 1 - options.decay) {
    // Lemma 4.7: scores stay in [0,1] only for θ ≤ 1 - c.
    return Status::InvalidArgument(
        "pruning threshold must satisfy theta <= 1 - decay (Lemma 4.7)");
  }
  if (options.walk_budget < 0) {
    return Status::InvalidArgument(
        "walk_budget must be >= 0 (0 = the full walk index)");
  }
  return Status::OK();
}

void PublishQueryStats(const McQueryStats& stats) {
  // Handles resolved once per process; each publish is a handful of
  // relaxed shard adds. Zero fields are skipped so idle counters cost
  // one branch each.
  struct Sites {
    Counter* queries;
    Counter* met_walks;
    Counter* pruned_walks;
    Counter* sem_pruned;
    Counter* normalizers_computed;
    Counter* shared_cache_hits;
    Counter* normalizer_work;
  };
  static const Sites sites = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return Sites{
        reg.GetCounter("semsim_query_published_total"),
        reg.GetCounter("semsim_query_met_walks_total"),
        reg.GetCounter("semsim_query_pruned_walks_total"),
        reg.GetCounter("semsim_query_sem_pruned_total"),
        reg.GetCounter("semsim_query_normalizers_computed_total"),
        reg.GetCounter("semsim_query_shared_cache_hits_total"),
        reg.GetCounter("semsim_query_normalizer_work_total"),
    };
  }();
  sites.queries->Add(1);
  if (stats.met_walks > 0) {
    sites.met_walks->Add(static_cast<uint64_t>(stats.met_walks));
  }
  if (stats.pruned_walks > 0) {
    sites.pruned_walks->Add(static_cast<uint64_t>(stats.pruned_walks));
  }
  if (stats.sem_pruned_queries > 0) {
    sites.sem_pruned->Add(static_cast<uint64_t>(stats.sem_pruned_queries));
  }
  if (stats.normalizers_computed > 0) {
    sites.normalizers_computed->Add(
        static_cast<uint64_t>(stats.normalizers_computed));
  }
  if (stats.shared_cache_hits > 0) {
    sites.shared_cache_hits->Add(
        static_cast<uint64_t>(stats.shared_cache_hits));
  }
  if (stats.normalizer_work > 0) {
    sites.normalizer_work->Add(static_cast<uint64_t>(stats.normalizer_work));
  }
}

SemSimMcEstimator::SemSimMcEstimator(const Hin* graph,
                                     const SemanticMeasure* semantic,
                                     const WalkIndex* index)
    : graph_(graph),
      semantic_(semantic),
      index_(index),
      transitions_(TransitionTable::Build(*graph)) {}

// ---------------------------------------------------------------------------
// Kernel dispatch. The inner loops below are member templates over a
// semantic policy, all stepping through the one TransitionTable. There
// are two policies: GroupTableSem when the groups tabulate S, whose
// sem(·,·) is one table read, and kernels::VirtualSem otherwise, whose
// sem(·,·) is a virtual call. Both return the measure's bits. Whether
// SO normalizers are summed over groups (NormalizerGroups) or by the d²
// loop depends only on whether AttachGroups built groups; a grouped sum
// differs from the d² loop only in its last bits.
// ---------------------------------------------------------------------------

template <typename F>
auto SemSimMcEstimator::Dispatch(F&& f) const {
  if (groups_.has_table()) return f(GroupTableSem{&groups_});
  return f(kernels::VirtualSem{semantic_});
}

bool SemSimMcEstimator::AttachGroups() {
  const SemanticContext* context = kernels::ClassifyMeasure(semantic_);
  if (context == nullptr) return false;
  groups_ = NormalizerGroups::Build(*graph_, *context, *semantic_);
  return true;
}

std::string_view SemSimMcEstimator::sem_kernel_name() const {
  if (groups_.has_table()) return "group-table";
  if (groups_.has_groups()) return "virtual-grouped";
  return "virtual";
}

double SemSimMcEstimator::SemValue(NodeId u, NodeId v) const {
  return Dispatch([&](const auto& sem) { return sem.Sim(u, v); });
}

template <typename Sem>
double SemSimMcEstimator::NormalizerT(const Sem& sem, NodeId u, NodeId v,
                                      McQueryStats* stats) const {
  if (shared_cache_ != nullptr) {
    // Cross-query state: another query (possibly on another thread), or
    // an earlier step of this one, may already have paid for this pair.
    double cached;
    if (shared_cache_->Lookup(u, v, &cached)) {
      if (stats) ++stats->shared_cache_hits;
      return cached;
    }
  }
  // SO is symmetric; summing in canonical (lo, hi) orientation makes the
  // value a bit-exact function of the unordered pair, so the shared
  // cache may canonicalize its key without results depending on which
  // orientation reached the pair first.
  NodeId lo = u <= v ? u : v;
  NodeId hi = u <= v ? v : u;
  auto in_lo = graph_->InNeighbors(lo);
  auto in_hi = graph_->InNeighbors(hi);
  double norm = 0;
  uint64_t work = static_cast<uint64_t>(in_lo.size()) * in_hi.size();
  if (groups_.has_groups()) {
    // LCA-based measures: the sum over taxonomy groups.
    norm = groups_.Sum(lo, hi, &work);
  } else {
    // Any measure: the d² loop of the definition.
    for (const Neighbor& a : in_lo) {
      for (const Neighbor& b : in_hi) {
        norm += a.weight * b.weight * sem.Sim(a.node, b.node);
      }
    }
  }
  if (stats) {
    ++stats->normalizers_computed;
    stats->normalizer_work += static_cast<int64_t>(work);
  }
  if (shared_cache_ != nullptr) shared_cache_->Insert(u, v, norm);
  return norm;
}

double SemSimMcEstimator::Normalizer(NodeId u, NodeId v,
                                     McQueryStats* stats) const {
  return Dispatch(
      [&](const auto& sem) { return NormalizerT(sem, u, v, stats); });
}

template <typename Sem>
double SemSimMcEstimator::CoupledWalkScoreT(
    const Sem& sem, NodeId u, NodeId v, double so_uv, int walk,
    int meeting_step, const SemSimMcOptions& options,
    McQueryStats* stats) const {
  SEMSIM_DCHECK(meeting_step >= 1 && meeting_step <= index_->walk_length());
  const NodeId* walk_u = index_->WalkData(u, walk);
  const NodeId* walk_v = index_->WalkData(v, walk);
  const double c = options.decay;
  const bool weighted = index_->options().weighted;

  // Walk the prefix ⟨(u,v), (u₁,v₁), ..., (u_meet,v_meet)⟩ computing the
  // running IS ratio Π_j (P_j / Q_j) · c (Algorithm 1 lines 10-18).
  double score = 1.0;
  NodeId cur_u = u;
  NodeId cur_v = v;
  for (int j = 0; j < meeting_step; ++j) {
    NodeId next_u = walk_u[j];
    NodeId next_v = walk_v[j];
    const double so =
        j == 0 ? so_uv : NormalizerT(sem, cur_u, cur_v, stats);
    SEMSIM_DCHECK(so > 0);
    // One O(1) probe per side returns the collapsed in-edge group with
    // its q quotient precomputed (TransitionTable), so a step is loads.
    const TransitionTable::Group& gu = transitions_.InGroup(cur_u, next_u);
    const TransitionTable::Group& gv = transitions_.InGroup(cur_v, next_v);
    double p_step =
        sem.Sim(next_u, next_v) * gu.total_weight * gv.total_weight / so;
    double q_step = weighted ? gu.q_weighted * gv.q_weighted
                             : gu.q_uniform * gv.q_uniform;
    score *= p_step * c / q_step;
    cur_u = next_u;
    cur_v = next_v;
    // Lines 17-18: once the partial product falls to θ the final score
    // can only be smaller; keep the bound and stop refining (Def. 4.5).
    if (options.theta > 0 && score <= options.theta) {
      if (stats) ++stats->pruned_walks;
      break;
    }
  }
  return score;
}

double SemSimMcEstimator::CoupledWalkScore(NodeId u, NodeId v, double so_uv,
                                           int walk, int meeting_step,
                                           const SemSimMcOptions& options,
                                           McQueryStats* stats) const {
  return Dispatch([&](const auto& sem) {
    return CoupledWalkScoreT(sem, u, v, so_uv, walk, meeting_step, options,
                             stats);
  });
}

template <typename Sem>
double SemSimMcEstimator::QueryT(const Sem& sem, NodeId u, NodeId v,
                                 const SemSimMcOptions& options,
                                 McQueryStats* stats) const {
  SEMSIM_DCHECK(options.decay > 0 && options.decay < 1);
  if (u == v) return 1.0;
  double sem_uv = sem.Sim(u, v);
  // Lines 2-3 of Algorithm 1: sem(u,v) is an upper bound on sim(u,v)
  // (Prop. 2.5), so low-semantics pairs are answered 0 immediately.
  if (options.theta > 0 && sem_uv <= options.theta) {
    if (stats) {
      stats->sem_pruned = true;
      ++stats->sem_pruned_queries;
    }
    return 0.0;
  }

  double total = 0;
  // SO(u,v) opens every met walk; computed at the first one.
  double so_uv = 0;
  bool have_so_uv = false;
  // Graceful degradation (serving layer): estimate only the first n_b
  // walks and average over n_b. Identical loop and divisor when the
  // budget is 0 or covers the whole index.
  const int budget = EffectiveWalkBudget(options, index_->num_walks());
  for (int w = 0; w < budget; ++w) {
    // Cooperative cancellation between walks: a fired token stops
    // refining and the partial value is discarded by whoever armed it.
    if (options.cancel != nullptr && (w & 31) == 0 &&
        options.cancel->ShouldStop()) {
      break;
    }
    int meet = FirstMeetingStep(*index_, u, v, w);
    if (meet < 0) continue;
    if (stats) ++stats->met_walks;
    if (!have_so_uv) {
      so_uv = NormalizerT(sem, u, v, stats);
      have_so_uv = true;
    }
    total += CoupledWalkScoreT(sem, u, v, so_uv, w, meet, options, stats);
  }
  return ProjectOntoSemBound(sem_uv * total / static_cast<double>(budget),
                             sem_uv);
}

double SemSimMcEstimator::Query(NodeId u, NodeId v,
                                const SemSimMcOptions& options,
                                McQueryStats* stats) const {
  // Counts are always gathered into a local record and published, so a
  // nullptr `stats` no longer drops them; the out-param is merely an
  // additional per-call view.
  McQueryStats local;
  double result = Dispatch(
      [&](const auto& sem) { return QueryT(sem, u, v, options, &local); });
  PublishQueryStats(local);
  if (stats != nullptr) stats->Merge(local);
  return result;
}

std::vector<double> SemSimMcEstimator::QueryBatch(
    std::span<const NodePair> pairs, const SemSimMcOptions& options,
    const ThreadPool& pool, McQueryStats* stats) const {
  std::vector<double> results(pairs.size());
  std::mutex stats_mu;
  // One dispatch per worker chunk, not per pair: the chunk loop runs
  // entirely inside the selected instantiation.
  Dispatch([&](const auto& sem) {
    pool.ParallelFor(
        0, pairs.size(),
        [&](size_t begin, size_t end) {
          McQueryStats local;
          for (size_t i = begin; i < end; ++i) {
            // Per-item poll inside a chunk; whole chunks are skipped by
            // the pool's own stop hook below.
            if (options.cancel != nullptr && options.cancel->ShouldStop()) {
              break;
            }
            results[i] =
                QueryT(sem, pairs[i].first, pairs[i].second, options, &local);
          }
          // Registry totals accumulate per chunk regardless of `stats`.
          PublishQueryStats(local);
          if (stats) {
            std::lock_guard<std::mutex> lock(stats_mu);
            stats->Merge(local);
          }
        },
        options.cancel);
    return 0.0;
  });
  return results;
}

WalkAccuracy RequiredWalkParameters(double epsilon, double delta,
                                    size_t num_nodes, double decay) {
  SEMSIM_CHECK(epsilon > 0 && epsilon < 1);
  SEMSIM_CHECK(delta > 0 && delta < 1);
  SEMSIM_CHECK(decay > 0 && decay < 1);
  SEMSIM_CHECK(num_nodes > 0);
  WalkAccuracy acc;
  // t > log_c(eps/2)  ⇔  c^t < eps/2.
  acc.walk_length = static_cast<int>(
                        std::ceil(std::log(epsilon / 2.0) / std::log(decay))) +
                    1;
  double n = static_cast<double>(num_nodes);
  double walks = 14.0 / (3.0 * epsilon * epsilon) *
                 (std::log(2.0 / delta) + 2.0 * std::log(n));
  acc.num_walks = static_cast<int>(std::ceil(walks));
  return acc;
}

double WalkBudgetErrorBand(int walk_budget, double delta, size_t num_nodes) {
  SEMSIM_CHECK(walk_budget > 0);
  SEMSIM_CHECK(delta > 0 && delta < 1);
  SEMSIM_CHECK(num_nodes > 0);
  double n = static_cast<double>(num_nodes);
  return std::sqrt(14.0 * (std::log(2.0 / delta) + 2.0 * std::log(n)) /
                   (3.0 * static_cast<double>(walk_budget)));
}

double NaiveSemSimMcQuery(const Hin& graph, const SemanticMeasure& semantic,
                          NodeId u, NodeId v, int num_walks, int walk_length,
                          double decay, Rng& rng) {
  SEMSIM_CHECK(num_walks > 0 && walk_length > 0);
  if (u == v) return 1.0;
  double total = 0;
  std::vector<double> probs;
  std::vector<NodePair> targets;
  for (int w = 0; w < num_walks; ++w) {
    NodeId cur_u = u;
    NodeId cur_v = v;
    double contribution = 0;
    double factor = 1.0;
    for (int s = 1; s <= walk_length; ++s) {
      auto in_u = graph.InNeighbors(cur_u);
      auto in_v = graph.InNeighbors(cur_v);
      if (in_u.empty() || in_v.empty()) break;
      // Materialize the semantic-aware transition row (the d² cost that
      // makes the naive framework expensive).
      probs.clear();
      targets.clear();
      for (const Neighbor& a : in_u) {
        for (const Neighbor& b : in_v) {
          probs.push_back(a.weight * b.weight *
                          semantic.Sim(a.node, b.node));
          targets.push_back(NodePair{a.node, b.node});
        }
      }
      size_t pick = rng.NextWeighted(probs);
      cur_u = targets[pick].first;
      cur_v = targets[pick].second;
      factor *= decay;
      if (cur_u == cur_v) {
        contribution = factor;  // c^τ with τ = s
        break;
      }
    }
    total += contribution;
  }
  return semantic.Sim(u, v) * total / static_cast<double>(num_walks);
}

}  // namespace semsim
