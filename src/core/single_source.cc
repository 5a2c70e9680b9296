#include "core/single_source.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace semsim {

SingleSourceIndex SingleSourceIndex::Build(const WalkIndex& index,
                                           const ThreadPool* pool) {
  SEMSIM_TRACE_SPAN("semsim_single_source_build");
  SingleSourceIndex ss;
  ss.index_ = &index;
  ss.num_nodes_ = index.num_nodes();
  ss.num_walks_ = index.num_walks();
  ss.walk_length_ = index.walk_length();
  const size_t n = ss.num_nodes_;
  const size_t t = static_cast<size_t>(ss.walk_length_);
  const size_t num_walks = static_cast<size_t>(ss.num_walks_);
  // Run offsets are relative to their walk's base, and one walk region
  // holds at most one entry per (origin, step): n·t.
  SEMSIM_CHECK(n * t <= std::numeric_limits<uint32_t>::max())
      << "walk region of " << n << " nodes x " << t << " steps";
  ss.walk_base_.assign(num_walks + 1, 0);
  ss.run_offsets_.assign(num_walks * (n + 1), 0);

  // Walk regions: walk w holds one entry per live step of every w-th
  // walk, so the live lengths alone place every region.
  for (NodeId v = 0; v < n; ++v) {
    for (size_t w = 0; w < num_walks; ++w) {
      ss.walk_base_[w + 1] += static_cast<size_t>(
          index.WalkLiveLength(v, static_cast<int>(w)));
    }
  }
  for (size_t w = 0; w < num_walks; ++w) {
    ss.walk_base_[w + 1] += ss.walk_base_[w];
  }
  ss.entries_.resize(ss.walk_base_.back());

  // One counting pass per walk, partitioned by walk across the pool:
  // walk w's offset row and entry region are written by one task only,
  // in a fixed order, so the layout is bit-identical for any pool.
  // Without a pool the pass runs inline.
  auto per_walk = [&](size_t lo, size_t hi) {
    // Task-local: the walk's (position, origin) pairs bucketed by step
    // (origins ascend inside a bucket), and the runs' write cursors.
    struct Placed {
      NodeId position, origin;
    };
    std::unique_ptr<Placed[]> by_step(new Placed[n * t]);  // uninitialized
    std::vector<size_t> step_cursor(t);
    std::vector<uint32_t> cursor(n);
    for (size_t w = lo; w < hi; ++w) {
      const int walk = static_cast<int>(w);
      // Step s's bucket holds the walks whose live length exceeds s:
      // count the lengths below t, then turn them into bucket starts.
      std::fill(step_cursor.begin(), step_cursor.end(), 0);
      for (NodeId v = 0; v < n; ++v) {
        size_t len = static_cast<size_t>(index.WalkLiveLength(v, walk));
        if (len < t) ++step_cursor[len];
      }
      size_t alive = n, start = 0;
      for (size_t& c : step_cursor) {
        alive -= c;
        c = start;
        start += alive;
      }
      for (NodeId v = 0; v < n; ++v) {
        const NodeId* steps = index.WalkData(v, walk);
        int len = index.WalkLiveLength(v, walk);
        for (int s = 0; s < len; ++s) {
          by_step[step_cursor[static_cast<size_t>(s)]++] = {steps[s], v};
        }
      }
      const size_t size = ss.walk_base_[w + 1] - ss.walk_base_[w];
      // Run sizes by position, counted into slot p+1 and prefix-summed
      // in place: row[p] is the start of run (w, p).
      uint32_t* row = ss.run_offsets_.data() + w * (n + 1);
      for (size_t i = 0; i < size; ++i) ++row[by_step[i].position + 1];
      for (size_t p = 0; p < n; ++p) row[p + 1] += row[p];
      // Scatter step-major: each run comes out sorted by (step, origin)
      // without a comparison sort.
      std::copy(row, row + n, cursor.begin());
      Entry* region = ss.entries_.data() + ss.walk_base_[w];
      size_t i = 0;
      for (size_t s = 0; s < t; ++s) {
        for (; i < step_cursor[s]; ++i) {  // step_cursor[s]: bucket end
          const Placed& placed = by_step[i];
          region[cursor[placed.position]++] =
              Entry(static_cast<uint32_t>(s), placed.origin);
        }
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, num_walks, per_walk);
  } else {
    per_walk(0, num_walks);
  }
  return ss;
}

uint64_t SingleSourceIndex::Fingerprint() const {
  uint64_t h = Fnv1a64(walk_base_.data(), walk_base_.size() * sizeof(size_t));
  h = Fnv1a64(run_offsets_.data(), run_offsets_.size() * sizeof(uint32_t), h);
  return Fnv1a64(entries_.data(), entries_.size() * sizeof(Entry), h);
}

void SingleSourceIndex::EnumerateMeetings(NodeId u, int walk_cap,
                                          const CancelToken* cancel,
                                          QueryScratch& scratch) const {
  // met_stamp[v] == stamp → v already met u's current walk at an earlier
  // step. Stamps are unique per (epoch, walk), so stale entries from
  // earlier queries are invalidated by the epoch bump alone.
  uint64_t stamp_base =
      scratch.epoch() * (static_cast<uint64_t>(num_walks_) + 1);
  // Walk-major: walks ascending, steps ascending inside a walk.
  std::vector<WalkMeeting>& found = scratch.walk_order_meetings;
  found.clear();
  for (int w = 0; w < walk_cap; ++w) {
    if (cancel != nullptr && cancel->ShouldStop()) break;
    const NodeId* walk_u = index_->WalkData(u, w);
    int len = index_->WalkLiveLength(u, w);
    uint64_t stamp = stamp_base + static_cast<uint64_t>(w) + 1;
    const uint32_t* row =
        run_offsets_.data() + static_cast<size_t>(w) * (num_nodes_ + 1);
    const Entry* region = entries_.data() + walk_base_[w];
    for (int s = 0; s < len; ++s) {
      NodeId pos = walk_u[s];
      const Entry* end = region + row[pos + 1];
      const uint32_t step = static_cast<uint32_t>(s);
      const Entry* it = std::lower_bound(
          region + row[pos], end, step,
          [](const Entry& e, uint32_t target) { return e.step < target; });
      for (; it != end && it->step == step; ++it) {
        NodeId v = it->origin;
        if (v == u) continue;
        if (scratch.met_stamp[v] == stamp) continue;  // met earlier
        scratch.met_stamp[v] = stamp;
        found.push_back(WalkMeeting{v, w, s + 1});
      }
    }
  }
}

void SingleSourceIndex::FirstMeetingsInto(NodeId u,
                                          QueryScratch& scratch) const {
  scratch.BindShape(num_nodes_, num_walks_);
  scratch.BeginQuery();
  EnumerateMeetings(u, num_walks_, nullptr, scratch);
  // Stable counting pass by node. A node meets each walk at most once
  // and walks were enumerated in ascending order, so the result is
  // strictly increasing in (node, walk).
  const std::vector<WalkMeeting>& found = scratch.walk_order_meetings;
  SEMSIM_DCHECK(found.size() <= std::numeric_limits<uint32_t>::max());
  std::vector<uint32_t>& start = scratch.node_cursor;
  std::fill(start.begin(), start.end(), 0);
  for (const WalkMeeting& m : found) ++start[m.node];
  uint32_t sum = 0;
  for (uint32_t& c : start) {
    uint32_t count = c;
    c = sum;
    sum += count;
  }
  std::vector<WalkMeeting>& meetings = scratch.meetings;
  meetings.resize(found.size());
  for (const WalkMeeting& m : found) meetings[start[m.node]++] = m;
}

std::vector<SingleSourceIndex::Meeting> SingleSourceIndex::FirstMeetings(
    NodeId u) const {
  QueryScratch scratch;
  FirstMeetingsInto(u, scratch);
  return std::move(scratch.meetings);
}

std::vector<double> SingleSourceIndex::SimRankFrom(NodeId u,
                                                   double decay) const {
  SEMSIM_CHECK(decay > 0 && decay < 1);
  std::vector<double> scores(num_nodes_, 0.0);
  // Precompute c^s once per sweep; entries use the same std::pow the
  // per-meeting code used, so sums stay bit-identical.
  std::vector<double> decay_pow(static_cast<size_t>(walk_length_) + 1);
  for (int s = 0; s <= walk_length_; ++s) decay_pow[s] = std::pow(decay, s);
  for (const Meeting& m : FirstMeetings(u)) {
    scores[m.node] += decay_pow[m.step];
  }
  double inv = 1.0 / static_cast<double>(num_walks_);
  for (double& s : scores) s *= inv;
  scores[u] = 1.0;
  return scores;
}

void SingleSourceIndex::SemSimFromInto(NodeId u,
                                       const SemSimMcEstimator& estimator,
                                       const SemSimMcOptions& options,
                                       QueryScratch& scratch,
                                       std::vector<double>& out,
                                       McQueryStats* stats) const {
  SEMSIM_DCHECK(&estimator.index() == index_)
      << "estimator wraps a different walk index";
  scratch.BindShape(num_nodes_, num_walks_);
  scratch.BeginQuery();
  // Walk-budget degradation: enumerate (and later average over) only the
  // first n_b walks. Same enumeration, same order, same divisor as the
  // full sweep when the budget covers the index.
  const int budget = EffectiveWalkBudget(options, num_walks_);
  const CancelToken* cancel = options.cancel;
  EnumerateMeetings(u, budget, cancel, scratch);
  const std::vector<WalkMeeting>& meetings = scratch.walk_order_meetings;
  const uint64_t epoch = scratch.epoch();
  // Stage counts for the whole sweep; published to the registry once at
  // the end (TopKFrom rides on this publish — it adds no queries of its
  // own), merged into the legacy out-param when one was passed.
  McQueryStats local;

  // SO normalizers. With groups, every SO(x, y) of the sweep holds one
  // u-side node x fixed across many candidates y: x's corrections are
  // scattered into the concept-indexed row once and each y reads its
  // own list against it, bit-identical to NormalizerGroups::Sum and
  // with no cache probe. Without groups, Normalizer runs the d² loop
  // (behind the shared cache when one is attached).
  const NormalizerGroups& groups = estimator.normalizer_groups();
  const bool grouped = groups.has_groups();
  std::vector<double>& row = scratch.correction_row;
  if (grouped && row.size() < groups.num_concepts()) {
    row.assign(groups.num_concepts(), 0.0);
  }
  auto normalizer = [&](NodeId x, NodeId y) {
    if (!grouped) return estimator.Normalizer(x, y, &local);
    uint64_t work = 0;
    const double so = groups.SumAgainstRow(x, y, row.data(), &work);
    ++local.normalizers_computed;
    local.normalizer_work += static_cast<int64_t>(work);
    return so;
  };

  // Candidate-level semantic pruning (Algorithm 1 lines 2-3), evaluated
  // once per candidate at its first meeting. The sem(u,v) computed for
  // the pruning decision is kept, so the final scaling loop reads it
  // back instead of evaluating it a second time per candidate. A
  // candidate that survives gets SO(u,v), which opens each of its met
  // walks, from u's row. Validity of sem_ok/sem_val/so_uv is gated by
  // the epoch stamp — no O(n) reset between queries.
  if (grouped) groups.ScatterCorrections(u, row.data());
  for (const WalkMeeting& m : meetings) {
    const NodeId v = m.node;
    if (scratch.sem_epoch[v] == epoch) continue;
    scratch.sem_epoch[v] = epoch;
    const double s_uv = estimator.SemValue(u, v);
    scratch.sem_val[v] = s_uv;
    if (options.theta > 0 && s_uv <= options.theta) {
      scratch.sem_ok[v] = 0;
      ++local.sem_pruned_queries;
    } else {
      scratch.sem_ok[v] = 1;
      scratch.so_uv[v] = normalizer(u, v);
    }
  }
  if (grouped) groups.ClearCorrections(u, row.data());

  // Walk-major IS sweep: the met walks of walk w step together, since
  // at step j every one of them stands on u's node u_j = walk_u[j-1] on
  // the u side. u_j's in-edge group and correction row are set up once
  // per step; each live candidate then pays its own v-side reads. Per
  // candidate the walks still add up in ascending w, and every step is
  // the pair estimator's IsStepFactor on the same operands, so scores
  // equal CoupledWalkScore's to the bit.
  const TransitionTable& transitions = estimator.transition_table();
  const bool weighted = index_->options().weighted;
  const double c = options.decay;
  std::vector<LiveWalk>& live = scratch.live_walks;
  size_t next = 0;
  for (int w = 0; w < budget && next < meetings.size(); ++w) {
    // Between-walk cancellation poll (meeting enumeration polls every
    // walk too).
    if (cancel != nullptr && (w & 7) == 0 && cancel->ShouldStop()) break;
    live.clear();
    for (; next < meetings.size() && meetings[next].walk == w; ++next) {
      const WalkMeeting& m = meetings[next];
      if (!scratch.sem_ok[m.node]) continue;
      ++local.met_walks;
      live.push_back(LiveWalk{m.node, m.step, index_->WalkData(m.node, w),
                              1.0});
    }
    const NodeId* walk_u = index_->WalkData(u, w);
    NodeId cur_u = u;
    for (int j = 0; !live.empty(); ++j) {
      const NodeId next_u = walk_u[j];
      const TransitionTable::Group& gu = transitions.InGroup(cur_u, next_u);
      if (j > 0 && grouped) groups.ScatterCorrections(cur_u, row.data());
      size_t kept = 0;
      for (LiveWalk& lw : live) {
        const NodeId cur_v = j == 0 ? lw.node : lw.walk_v[j - 1];
        const NodeId next_v = lw.walk_v[j];
        const double so =
            j == 0 ? scratch.so_uv[lw.node] : normalizer(cur_u, cur_v);
        lw.score *= IsStepFactor(estimator.SemValue(next_u, next_v), gu,
                                 transitions.InGroup(cur_v, next_v), so, c,
                                 weighted);
        // Lines 17-18 (Def. 4.5): a walk pruned at the θ bound keeps
        // its bound, like a walk that has met.
        const bool pruned = options.theta > 0 && lw.score <= options.theta;
        if (pruned) ++local.pruned_walks;
        if (pruned || j + 1 == lw.meet_step) {
          scratch.scores[lw.node] += lw.score;
        } else {
          live[kept++] = lw;
        }
      }
      live.resize(kept);
      if (j > 0 && grouped) groups.ClearCorrections(cur_u, row.data());
      cur_u = next_u;
    }
  }
  // Copy out with the final sem·(1/n_w) scaling, projected onto
  // [0, sem(u,v)] as Query does, then restore the all-zero invariant of
  // scratch.scores by re-zeroing exactly the entries this query's
  // meetings touched.
  double inv = 1.0 / static_cast<double>(budget);
  out.resize(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    double s = scratch.scores[v];
    out[v] = s > 0 ? ProjectOntoSemBound(s * scratch.sem_val[v] * inv,
                                         scratch.sem_val[v])
                   : s;
  }
  out[u] = 1.0;
  for (const WalkMeeting& m : meetings) scratch.scores[m.node] = 0.0;
  PublishQueryStats(local);
  if (stats != nullptr) stats->Merge(local);
}

std::vector<Scored> SingleSourceIndex::TopKFrom(
    NodeId u, size_t k, const SemSimMcEstimator& estimator,
    const SemSimMcOptions& options, QueryScratch& scratch,
    McQueryStats* stats) const {
  SemSimFromInto(u, estimator, options, scratch, scratch.result, stats);
  return CallbackTopK(num_nodes_, u, k, nullptr,
                      [&](NodeId v) { return scratch.result[v]; });
}

}  // namespace semsim
