#include "testing/differential.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/batch_engine.h"
#include "core/iterative.h"
#include "core/mc_kernels.h"
#include "core/mc_simrank.h"
#include "core/single_source.h"
#include "core/topk.h"
#include "graph/graph_io.h"
#include "graph/node_sampler.h"
#include "graph/transition_table.h"
#include "taxonomy/flat_semantic_table.h"
#include "taxonomy/taxonomy_io.h"
#include "testing/stat_check.h"

namespace semsim {
namespace testing {

namespace {

// Bit-level equality: the form every "bit-identical" promise in the
// library is checked against. Distinguishes -0.0 from 0.0 and treats
// same-bits NaNs as equal, which is exactly what "same computation"
// means.
bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::unique_ptr<SemanticMeasure> MakeMeasure(MeasureKind kind,
                                             const SemanticContext* ctx) {
  switch (kind) {
    case MeasureKind::kLin:
      return std::make_unique<LinMeasure>(ctx);
    case MeasureKind::kResnik:
      return std::make_unique<ResnikMeasure>(ctx);
    case MeasureKind::kWuPalmer:
      return std::make_unique<WuPalmerMeasure>(ctx);
    case MeasureKind::kPath:
      return std::make_unique<PathMeasure>(ctx);
    case MeasureKind::kJiangConrath:
      return std::make_unique<JiangConrathMeasure>(ctx);
    case MeasureKind::kConstant:
      return std::make_unique<ConstantMeasure>();
  }
  return nullptr;
}

// At most this many violations are recorded per instance; one broken
// invariant usually fails hundreds of comparisons and the tail adds
// nothing a replay would not show.
constexpr int kMaxViolationsPerInstance = 6;

}  // namespace

const char* MeasureKindName(MeasureKind kind) {
  switch (kind) {
    case MeasureKind::kLin:
      return "Lin";
    case MeasureKind::kResnik:
      return "Resnik";
    case MeasureKind::kWuPalmer:
      return "WuPalmer";
    case MeasureKind::kPath:
      return "Path";
    case MeasureKind::kJiangConrath:
      return "JiangConrath";
    case MeasureKind::kConstant:
      return "Constant";
  }
  return "?";
}

std::string DifferentialConfig::Describe() const {
  std::ostringstream os;
  os << "measure=" << MeasureKindName(measure) << " decay=" << mc.decay
     << " theta=" << mc.theta << " walks=" << walks.num_walks << "x"
     << walks.walk_length << (walks.weighted ? " weighted-Q" : " uniform-Q")
     << " oracle_k=" << oracle_iterations << " threads=" << threads << " | "
     << DescribeOptions(hin) << " | " << DescribeOptions(taxonomy);
  return os.str();
}

DifferentialConfig MakeDifferentialConfig(uint64_t seed) {
  DifferentialConfig cfg;
  cfg.seed = seed;
  Rng r(seed ^ 0xD1FFC0DE5EEDULL);

  cfg.hin.seed = r.Next();
  cfg.hin.num_nodes = 8 + static_cast<int>(r.NextIndex(25));  // [8, 32]
  cfg.hin.node_label_alphabet = 1 + static_cast<int>(r.NextIndex(4));
  cfg.hin.edge_label_alphabet = 1 + static_cast<int>(r.NextIndex(3));
  cfg.hin.avg_out_degree = 1.0 + 2.5 * r.NextDouble();
  cfg.hin.degree_skew = r.NextIndex(2) == 0 ? 0.0 : 1.5 * r.NextDouble();
  cfg.hin.dangling_fraction =
      r.NextIndex(3) == 0 ? 0.25 * r.NextDouble() : 0.0;
  cfg.hin.self_loop_fraction = 0.15 * r.NextDouble();
  cfg.hin.parallel_edge_fraction = 0.2 * r.NextDouble();
  cfg.hin.num_components = r.NextIndex(4) == 0 ? 2 : 1;
  cfg.hin.heavy_tail_weights = r.NextIndex(2) == 0;
  if (cfg.hin.heavy_tail_weights) {
    cfg.hin.min_weight = 0.05;
    cfg.hin.max_weight = 20.0;
  }
  cfg.hin.undirected_edges = r.NextIndex(4) == 0;

  cfg.taxonomy.seed = r.Next();
  cfg.taxonomy.num_concepts = 4 + static_cast<int>(r.NextIndex(17));
  cfg.taxonomy.shape = static_cast<TaxonomyShape>(r.NextIndex(4));
  cfg.taxonomy.max_fanout = 2 + static_cast<int>(r.NextIndex(3));
  cfg.taxonomy.num_roots = 1 + static_cast<int>(r.NextIndex(3));

  cfg.measure = static_cast<MeasureKind>(seed % 6);

  cfg.mc.decay = 0.3 + 0.4 * r.NextDouble();  // [0.3, 0.7]
  cfg.mc.theta =
      r.NextIndex(2) == 0
          ? 0.0
          : std::min(0.15 * r.NextDouble(), 1.0 - cfg.mc.decay);

  // Truncation horizon tied to decay so the deterministic MC-vs-oracle
  // gap c^t stays below 1% of (1 - c) and the stat band keeps teeth even
  // at the high end of the decay range.
  double c = cfg.mc.decay;
  int horizon = static_cast<int>(
      std::ceil(std::log(0.01 * (1.0 - c)) / std::log(c)));
  cfg.walks.walk_length = std::clamp(horizon, 10, 30);
  cfg.walks.num_walks = 100 + static_cast<int>(r.NextIndex(151));
  cfg.walks.seed = r.Next();
  cfg.walks.weighted = r.NextIndex(2) == 0;
  cfg.walks.num_threads = 1;
  cfg.oracle_iterations = cfg.walks.walk_length + 2;

  cfg.num_query_pairs = 40;
  cfg.num_sources = 5;
  cfg.top_k = 8;
  cfg.threads = 2 + static_cast<int>(r.NextIndex(3));  // [2, 4]
  return cfg;
}

double DifferentialBias(double decay, int walk_length, int oracle_iterations,
                        double theta) {
  int horizon = std::min(walk_length, oracle_iterations);
  return std::pow(decay, horizon) + theta;
}

std::vector<double> MaxWalkWeights(const Hin& graph,
                                   const SemanticMeasure& measure,
                                   double decay, int walk_length,
                                   bool weighted_q) {
  const size_t n = graph.num_nodes();
  const TransitionTable table = TransitionTable::Build(graph);
  // SO(x, y) over the collapsed in-edge groups.
  std::vector<double> so(n * n, 0.0);
  for (NodeId x = 0; x < n; ++x) {
    for (NodeId y = 0; y < n; ++y) {
      double sum = 0;
      for (const TransitionTable::Group& g : table.InGroups(x)) {
        for (const TransitionTable::Group& h : table.InGroups(y)) {
          sum += g.total_weight * h.total_weight * measure.Sim(g.from, h.from);
        }
      }
      so[x * n + y] = sum;
    }
  }
  // best[x·n + y] after k rounds: the largest weight of a walk pair from
  // (x, y), x ≠ y, that meets within k steps. One step (x,y) → (a,b)
  // multiplies c·P/Q = c·sem(a,b)·W_xa·W_yb / (SO(x,y)·q_x(a)·q_y(b)).
  std::vector<double> best(n * n, 0.0);
  std::vector<double> next(n * n, 0.0);
  for (int k = 0; k < walk_length; ++k) {
    for (NodeId x = 0; x < n; ++x) {
      for (NodeId y = 0; y < n; ++y) {
        double top = 0;
        const double norm = so[x * n + y];
        if (x != y && norm > 0) {
          for (const TransitionTable::Group& g : table.InGroups(x)) {
            const double qg = weighted_q ? g.q_weighted : g.q_uniform;
            for (const TransitionTable::Group& h : table.InGroups(y)) {
              const double qh = weighted_q ? h.q_weighted : h.q_uniform;
              const double tail =
                  g.from == h.from ? 1.0 : best[g.from * n + h.from];
              const double step = decay * measure.Sim(g.from, h.from) *
                                  g.total_weight * h.total_weight /
                                  (norm * qg * qh);
              top = std::max(top, step * tail);
            }
          }
        }
        next[x * n + y] = top;
      }
    }
    best.swap(next);
  }
  return best;
}

std::string ReproCommand(uint64_t seed) {
  return "./build/src/testing/semsim_verify --seed=" + std::to_string(seed);
}

void DifferentialReport::Merge(const DifferentialReport& other) {
  instances += other.instances;
  bit_checks += other.bit_checks;
  stat_checks += other.stat_checks;
  f_checks += other.f_checks;
  f_vacuous_checks += other.f_vacuous_checks;
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
  dumped_files.insert(dumped_files.end(), other.dumped_files.begin(),
                      other.dumped_files.end());
}

namespace {

// One differential instance: builds the shared artifacts once, then runs
// the check catalog over them. Naming below follows DESIGN.md §9:
// checks A-C cover the oracle, D-G the estimator kernels, H-I the batch
// engine, J-L single-source and top-k, M the serving-artifact
// round-trip (Save -> Load / Map bit-identity), N the walk-sampler
// determinism (alias thread-count pin).
class InstanceRunner {
 public:
  InstanceRunner(const DifferentialConfig& cfg,
                 const DifferentialOptions& opt)
      : cfg_(cfg), opt_(opt) {
    report_.seed = cfg.seed;
    report_.instances = 1;
  }

  DifferentialReport Run() {
    if (Setup()) {
      CheckOracle();
      CheckEstimatorKernels();
      CheckEngines();
      CheckSingleSourceAndTopK();
      CheckArtifactRoundTrip();
      CheckSamplerDeterminism();
    }
    if (!report_.ok() && !opt_.dump_dir.empty()) DumpInstance();
    return report_;
  }

 private:
  // ---- violation plumbing -------------------------------------------------

  void AddViolation(const char* check, const std::string& detail) {
    if (suppressed_) return;
    if (static_cast<int>(report_.violations.size()) >=
        kMaxViolationsPerInstance) {
      suppressed_ = true;
      report_.violations.push_back(
          "[seed " + std::to_string(cfg_.seed) +
          "] further violations of this instance suppressed\n  repro: " +
          ReproCommand(cfg_.seed));
      return;
    }
    std::ostringstream os;
    os << "[seed " << cfg_.seed << "][" << check << "] " << detail
       << "\n  instance: " << cfg_.Describe()
       << "\n  repro: " << ReproCommand(cfg_.seed);
    report_.violations.push_back(os.str());
  }

  bool CheckBit(const char* check, const std::string& what, double got,
                double want) {
    ++report_.bit_checks;
    if (BitEqual(got, want)) return true;
    AddViolation(check, what + ": " + FormatDouble(got) +
                            " != " + FormatDouble(want) +
                            " (bit-identity violated)");
    return false;
  }

  bool CheckNear(const char* check, const std::string& what, double got,
                 double want, double tol) {
    ++report_.stat_checks;
    if (std::abs(got - want) <= tol) return true;
    AddViolation(check, what + ": |" + FormatDouble(got) + " - " +
                            FormatDouble(want) + "| > " + FormatDouble(tol));
    return false;
  }

  // Whole-matrix comparison counted as one check; reports the first
  // offending entry plus the mismatch count. tol < 0 requests
  // bit-identity.
  void CompareMatrices(const char* check, const char* what,
                       const ScoreMatrix& got, const ScoreMatrix& want,
                       double tol) {
    if (tol < 0) {
      ++report_.bit_checks;
    } else {
      ++report_.stat_checks;
    }
    size_t n = hin_->num_nodes();
    int mismatches = 0;
    std::string first;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        double x = got.at(u, v);
        double y = want.at(u, v);
        bool ok = tol < 0 ? BitEqual(x, y) : std::abs(x - y) <= tol;
        if (!ok) {
          if (mismatches == 0) {
            first = "(" + std::to_string(u) + "," + std::to_string(v) +
                    "): " + FormatDouble(x) + " vs " + FormatDouble(y);
          }
          ++mismatches;
        }
      }
    }
    if (mismatches > 0) {
      AddViolation(check, std::string(what) + ": " +
                              std::to_string(mismatches) +
                              " entries differ; first " + first);
    }
  }

  // Whole-vector bit comparison counted as one check.
  void CompareVectorsBit(const char* check, const std::string& what,
                         const std::vector<double>& got,
                         const std::vector<double>& want) {
    ++report_.bit_checks;
    if (got.size() != want.size()) {
      AddViolation(check, what + ": size " + std::to_string(got.size()) +
                              " vs " + std::to_string(want.size()));
      return;
    }
    for (size_t i = 0; i < got.size(); ++i) {
      if (!BitEqual(got[i], want[i])) {
        AddViolation(check, what + ": entry " + std::to_string(i) + ": " +
                                FormatDouble(got[i]) +
                                " != " + FormatDouble(want[i]) +
                                " (bit-identity violated)");
        return;
      }
    }
  }

  // ---- instance construction ---------------------------------------------

  bool Setup() {
    Result<Hin> hin = GenerateRandomHin(cfg_.hin);
    if (!hin.ok()) {
      AddViolation("setup", "GenerateRandomHin: " + hin.status().ToString());
      return false;
    }
    hin_ = std::make_unique<Hin>(std::move(hin).value());

    Result<SemanticContext> ctx = GenerateRandomContext(*hin_, cfg_.taxonomy);
    if (!ctx.ok()) {
      AddViolation("setup",
                   "GenerateRandomContext: " + ctx.status().ToString());
      return false;
    }
    ctx_ = std::make_unique<SemanticContext>(std::move(ctx).value());
    measure_ = MakeMeasure(cfg_.measure, ctx_.get());

    walks_ = std::make_unique<WalkIndex>(WalkIndex::Build(*hin_, cfg_.walks));

    // The replayed query set: one deliberate self-pair, the rest uniform
    // (including cross-component pairs when the graph is disconnected).
    Rng qr(cfg_.seed ^ 0x5E7ECDULL);
    size_t n = hin_->num_nodes();
    pairs_.push_back({static_cast<NodeId>(qr.NextIndex(n)), 0});
    pairs_[0].second = pairs_[0].first;
    while (static_cast<int>(pairs_.size()) < cfg_.num_query_pairs) {
      pairs_.push_back({static_cast<NodeId>(qr.NextIndex(n)),
                        static_cast<NodeId>(qr.NextIndex(n))});
    }
    for (int i = 0; i < cfg_.num_sources; ++i) {
      sources_.push_back(static_cast<NodeId>(qr.NextIndex(n)));
    }
    return true;
  }

  // ---- A-C: the exact oracle ---------------------------------------------

  IterativeOptions BaseOracleOptions() const {
    IterativeOptions opt;
    opt.decay = cfg_.mc.decay;
    opt.max_iterations = cfg_.oracle_iterations;
    opt.tolerance = 0.0;
    opt.use_weights = true;
    opt.semantic = measure_.get();
    opt.num_threads = 1;
    opt.use_partial_sums = false;
    return opt;
  }

  void CheckOracle() {
    IterativeOptions base = BaseOracleOptions();
    Result<ScoreMatrix> naive = ComputeIterativeScores(*hin_, base);
    if (!naive.ok()) {
      AddViolation("oracle", "naive sweep: " + naive.status().ToString());
      return;
    }
    oracle_ = std::make_unique<ScoreMatrix>(std::move(naive).value());

    // A: the naive sweep promises bitwise identity across thread counts.
    IterativeOptions threaded = base;
    threaded.num_threads = cfg_.threads;
    Result<ScoreMatrix> mt = ComputeIterativeScores(*hin_, threaded);
    if (!mt.ok()) {
      AddViolation("oracle-threads", mt.status().ToString());
    } else {
      CompareMatrices("oracle-threads",
                      "naive sweep 1 thread vs N threads", mt.value(),
                      *oracle_, -1.0);
    }

    // B: partial sums match the naive sweep up to summation order.
    IterativeOptions ps = base;
    ps.use_partial_sums = true;
    ps.num_threads = cfg_.threads;
    Result<ScoreMatrix> fast = ComputeIterativeScores(*hin_, ps);
    if (!fast.ok()) {
      AddViolation("oracle-partial-sums", fast.status().ToString());
    } else {
      CompareMatrices("oracle-partial-sums",
                      "partial-sums sweep vs naive sweep", fast.value(),
                      *oracle_, 1e-9);
    }

    // C: structural invariants of the fixed point. Substituting
    // S_k = R_k / sem into Eq. 3 shows R_k(u,v) = sem(u,v)·E[c^τ; τ<=k],
    // so for ANY decay in (0,1): diagonal 1, symmetric, and
    // 0 <= R_k(u,v) <= sem(u,v) (Prop. 2.5 at finite k).
    size_t n = hin_->num_nodes();
    int range_bad = 0, sym_bad = 0, diag_bad = 0;
    std::string first;
    for (NodeId u = 0; u < n && !suppressed_; ++u) {
      if (std::abs(oracle_->at(u, u) - 1.0) > 1e-12) ++diag_bad;
      for (NodeId v = 0; v < u; ++v) {
        double s = oracle_->at(u, v);
        double bound = measure_->Sim(u, v);
        if (!(s >= -1e-12 && s <= bound + 1e-9)) {
          if (range_bad == 0) {
            first = "(" + std::to_string(u) + "," + std::to_string(v) +
                    ")=" + FormatDouble(s) + " sem=" + FormatDouble(bound);
          }
          ++range_bad;
        }
        if (std::abs(s - oracle_->at(v, u)) > 1e-12) ++sym_bad;
      }
    }
    ++report_.stat_checks;
    if (diag_bad > 0) {
      AddViolation("oracle-invariants", std::to_string(diag_bad) +
                                            " diagonal entries != 1");
    }
    if (sym_bad > 0) {
      AddViolation("oracle-invariants",
                   std::to_string(sym_bad) + " asymmetric entries");
    }
    if (range_bad > 0) {
      AddViolation("oracle-invariants",
                   std::to_string(range_bad) +
                       " entries outside [0, sem(u,v)]; first " + first);
    }
  }

  // ---- D-G: the MC estimator kernels -------------------------------------

  void CheckEstimatorKernels() {
    // `virt` runs the VirtualSem oracle, `flat` the devirtualized
    // semantic policy when the measure has one; both step through the
    // same transition table.
    SemSimMcEstimator virt(hin_.get(), measure_.get(), walks_.get());
    SemSimMcEstimator flat(hin_.get(), measure_.get(), walks_.get());
    kernels::SemInfo info = kernels::ClassifyMeasure(measure_.get());
    std::unique_ptr<FlatSemanticTable> flat_sem;
    if (info.kind != kernels::SemKind::kVirtual) {
      flat_sem = std::make_unique<FlatSemanticTable>(
          FlatSemanticTable::Build(*info.context));
    }
    flat.AttachFlatKernel(flat_sem.get());

    SemSimMcOptions unpruned{cfg_.mc.decay, 0.0};
    double bias = DifferentialBias(cfg_.mc.decay, cfg_.walks.walk_length,
                                   cfg_.oracle_iterations, 0.0);
    // Under heavy-tailed weights the P/Q ratios are skewed — for either
    // proposal, since Q never sees sem — so n_w walks can miss a rare
    // heavy sample entirely, and both the estimate and the largest
    // observed sample undershoot. Hoeffding's range is therefore the a
    // priori bound sem(u,v)·MaxWalkWeights, never the observed maximum
    // (DESIGN.md §9). Where that range is wide, F is wide too; the
    // bit-identity checks D/E/G keep full strength there.
    const std::vector<double> max_weight =
        oracle_ ? MaxWalkWeights(*hin_, *measure_, cfg_.mc.decay,
                                 cfg_.walks.walk_length, cfg_.walks.weighted)
                : std::vector<double>();
    const size_t n = hin_->num_nodes();

    for (const NodePair& p : pairs_) {
      if (suppressed_) return;
      NodeId u = p.first, v = p.second;
      std::string pair_tag =
          "(" + std::to_string(u) + "," + std::to_string(v) + ")";

      // D: the devirtualized semantic policy matches the VirtualSem d²
      // oracle. Grouped SO normalizers sum the same terms in another
      // order, so unpruned estimates agree within roundoff (θ = 0, where
      // an ulp cannot flip a prune decision); pruned ones stay within
      // the Prop. 4.6 band θ of the unpruned oracle, as G checks for
      // the oracle itself. The devirtualized sem matches the measure
      // bit for bit.
      double virt0 = virt.Query(u, v, unpruned);
      const double oracle_tol = 1e-12 + 1e-9 * std::abs(virt0);
      CheckNear("flat-vs-virtual", "Query theta=0 " + pair_tag,
                flat.Query(u, v, unpruned), virt0, oracle_tol);
      double virt_theta = virt.Query(u, v, cfg_.mc);
      if (cfg_.mc.theta > 0) {
        CheckNear("flat-vs-virtual",
                  "Query theta=" + FormatDouble(cfg_.mc.theta) +
                      " vs unpruned oracle " + pair_tag,
                  flat.Query(u, v, cfg_.mc), virt0,
                  cfg_.mc.theta + oracle_tol);
      }
      CheckBit("flat-vs-virtual", "SemValue " + pair_tag,
               flat.SemValue(u, v), measure_->Sim(u, v));

      // E: Query decomposes into CoupledWalkScore samples — replaying
      // the public building blocks in walk order, then projecting onto
      // [0, sem(u,v)] as Query does, reproduces the exact bits of the
      // composed query. The samples feed the CLT band of F.
      std::vector<double> samples;
      if (u != v) {
        const double so_uv = virt.Normalizer(u, v);
        double sem_uv = virt.SemValue(u, v);
        double total = 0.0;
        samples.reserve(static_cast<size_t>(walks_->num_walks()));
        for (int w = 0; w < walks_->num_walks(); ++w) {
          int meet = FirstMeetingStep(*walks_, u, v, w);
          if (meet < 0) {
            samples.push_back(0.0);
            continue;
          }
          double score =
              virt.CoupledWalkScore(u, v, so_uv, w, meet, unpruned);
          total += score;
          samples.push_back(sem_uv * score);
        }
        double recomposed = ProjectOntoSemBound(
            sem_uv * total / static_cast<double>(walks_->num_walks()),
            sem_uv);
        CheckBit("walk-recomposition",
                 "sem*sum(CoupledWalkScore)/n_w vs Query " + pair_tag,
                 recomposed, virt0);
      }

      // F: unpruned MC within the Hoeffding/CLT band of the oracle.
      if (oracle_ && u != v) {
        // The rounding slack covers the DP's other summation order.
        const double range_bound =
            virt.SemValue(u, v) * max_weight[u * n + v] * (1 + 1e-9) + 1e-12;
        double max_sample = 0.0;
        for (double s : samples) max_sample = std::max(max_sample, s);
        if (max_sample > range_bound) {
          AddViolation("mc-sample-range",
                       "walk sample " + FormatDouble(max_sample) +
                           " exceeds the a priori bound " +
                           FormatDouble(range_bound) + " " + pair_tag);
        }
        const double range = std::max(1.0, range_bound);
        const double slack = bias + 1e-12;
        std::string msg =
            CheckWithinStatBand(virt0, oracle_->at(u, v), samples, range,
                                opt_.delta, slack, "MC vs oracle " + pair_tag);
        ++report_.stat_checks;
        ++report_.f_checks;
        if (ComputeStatBand(samples, range, opt_.delta, slack).epsilon >=
            virt.SemValue(u, v)) {
          ++report_.f_vacuous_checks;
        }
        if (!msg.empty()) AddViolation("mc-vs-oracle", msg);
      }

      // G: pruning changes the answer by at most θ (Prop. 4.6 plus the
      // sem-prune branch, both of which drop at most θ of mass).
      if (cfg_.mc.theta > 0) {
        CheckNear("pruning-bound",
                  "theta-pruned vs unpruned " + pair_tag, virt_theta, virt0,
                  cfg_.mc.theta + 1e-12);
      }
    }
  }

  // ---- H-I: the batch engine ----------------------------------------------

  // Each engine gets its own snapshot, so the two never share cache
  // history.
  Result<BatchQueryEngine> MakeEngine(int threads) const {
    EngineSnapshotOptions opt;
    opt.query.mc = cfg_.mc;
    SEMSIM_ASSIGN_OR_RETURN(
        EngineSnapshotPtr snap,
        EngineSnapshot::Create(Unowned(hin_.get()), Unowned(measure_.get()),
                               Unowned(walks_.get()), opt, /*version=*/0));
    return BatchQueryEngine::CreateFromSnapshot(std::move(snap), threads);
  }

  void CheckEngines() {
    Result<BatchQueryEngine> eng1 = MakeEngine(1);
    Result<BatchQueryEngine> engN = MakeEngine(cfg_.threads);
    if (!eng1.ok() || !engN.ok()) {
      AddViolation("engine-create",
                   (!eng1.ok() ? eng1.status() : engN.status()).ToString());
      return;
    }
    eng1_ = std::make_unique<BatchQueryEngine>(std::move(eng1).value());
    engN_ = std::make_unique<BatchQueryEngine>(std::move(engN).value());

    // H: the engine's batch answer equals its own estimator queried
    // serially, pair by pair (the QueryBatch contract). The 1-thread
    // cold run is the reference of check I.
    std::vector<double> reference = eng1_->QueryBatch(pairs_).values;
    for (size_t i = 0; i < pairs_.size() && !suppressed_; ++i) {
      CheckBit("engine-batch-vs-serial",
               "QueryBatch[" + std::to_string(i) + "] vs estimator().Query",
               reference[i],
               eng1_->snapshot()->estimator().Query(
                   pairs_[i].first, pairs_[i].second, cfg_.mc));
    }

    // I: thread counts and cache history never change batch results.
    // A second round per engine replays with warm caches; the self-test
    // hook perturbs the N-thread cold round so harness unit tests can
    // prove a deviation is caught and reported with a repro line.
    std::vector<double> n_round1 = engN_->QueryBatch(pairs_).values;
    if (opt_.self_test_perturbation != 0.0 && !n_round1.empty()) {
      n_round1[0] += opt_.self_test_perturbation;
    }
    CompareVectorsBit("engine-equivalence",
                      "N-thread round 1 vs 1-thread round 1", n_round1,
                      reference);
    CompareVectorsBit("engine-equivalence",
                      "1-thread round 2 (warm caches) vs 1-thread round 1",
                      eng1_->QueryBatch(pairs_).values, reference);
    CompareVectorsBit("engine-equivalence",
                      "N-thread round 2 (warm caches) vs 1-thread round 1",
                      engN_->QueryBatch(pairs_).values, reference);
  }

  // ---- J-L: single-source and top-k ---------------------------------------

  void CheckSingleSourceAndTopK() {
    if (!eng1_ || !engN_) return;

    std::vector<std::vector<double>> rows_1 =
        eng1_->SingleSourceBatch(sources_).values;
    std::vector<std::vector<double>> rows_N =
        engN_->SingleSourceBatch(sources_).values;

    for (size_t i = 0; i < sources_.size() && !suppressed_; ++i) {
      NodeId u = sources_[i];
      std::string src_tag = "source " + std::to_string(u);

      // J: the inverted sweep is bit-stable across thread counts, and
      // matches per-pair Query up to the documented summation-order
      // band.
      CompareVectorsBit("single-source-equivalence",
                        src_tag + ": N-thread vs 1-thread", rows_N[i],
                        rows_1[i]);
      CheckBit("single-source-vs-query", src_tag + ": self score",
               rows_1[i][u], 1.0);
      size_t n = hin_->num_nodes();
      for (NodeId v = 0; v < n && !suppressed_; ++v) {
        if (v == u) continue;
        CheckNear("single-source-vs-query",
                  src_tag + ": scores[" + std::to_string(v) +
                      "] vs per-pair Query",
                  rows_1[i][v],
                  eng1_->snapshot()->estimator().Query(u, v, cfg_.mc),
                  1e-10);
      }
    }

    // K: TopKBatch is exactly the top-k extraction of the single-source
    // rows (score descending, node ascending, query excluded).
    size_t k = static_cast<size_t>(cfg_.top_k);
    std::vector<std::vector<Scored>> topk =
        engN_->TopKBatch(sources_, k).values;
    for (size_t i = 0; i < sources_.size() && !suppressed_; ++i) {
      ++report_.bit_checks;
      std::string msg = CheckTopKMatchesScores(
          topk[i], rows_N[i], sources_[i], k,
          "TopKBatch vs SingleSourceBatch, source " +
              std::to_string(sources_[i]));
      if (!msg.empty()) AddViolation("topk-structure", msg);
    }

    // L: rank agreement against the oracle. Every MC score is within
    // max_dev of its oracle value, so any selected node's oracle score
    // must reach the oracle's k-th best minus 2·max_dev — independent of
    // MC accuracy, this isolates the selection machinery.
    if (!oracle_) return;
    size_t n = hin_->num_nodes();
    for (size_t i = 0; i < sources_.size() && !suppressed_; ++i) {
      NodeId u = sources_[i];
      std::vector<double> oracle_row(n);
      double max_dev = 0.0;
      for (NodeId v = 0; v < n; ++v) {
        oracle_row[v] = oracle_->at(u, v);
        if (v != u) {
          max_dev =
              std::max(max_dev, std::abs(rows_N[i][v] - oracle_row[v]));
        }
      }
      ++report_.stat_checks;
      std::string msg = CheckTopKRankAgreement(
          topk[i], oracle_row, u, 2.0 * max_dev + 1e-12,
          "top-k rank agreement vs oracle, source " + std::to_string(u));
      if (!msg.empty()) AddViolation("topk-rank-agreement", msg);
    }
  }

  // ---- M: serving-artifact round-trip -------------------------------------

  // A heap-loaded index and a zero-copy mapped index of the same saved
  // artifact must be indistinguishable: same walk bytes, same live
  // lengths, and bit-identical single-source sweeps through the full
  // query stack.
  void CheckArtifactRoundTrip() {
    if (suppressed_) return;
    std::error_code ec;
    std::string path =
        (std::filesystem::temp_directory_path(ec) /
         ("semsim_diff_seed" + std::to_string(cfg_.seed) + ".widx"))
            .string();
    Status saved = walks_->Save(path);
    if (!saved.ok()) {
      AddViolation("artifact-roundtrip", "Save: " + saved.ToString());
      return;
    }
    size_t n = hin_->num_nodes();
    Result<WalkIndex> loaded = WalkIndex::Load(path, n);
    WalkIndexMapOptions map_opt;
    map_opt.verify_checksums = true;
    Result<WalkIndex> mapped = WalkIndex::Map(path, n, map_opt);
    if (!loaded.ok() || !mapped.ok()) {
      AddViolation("artifact-roundtrip",
                   (!loaded.ok() ? loaded.status() : mapped.status())
                       .ToString());
      std::remove(path.c_str());
      return;
    }

    // Raw payload identity against the in-memory index the artifact was
    // saved from, for both load paths.
    const WalkIndex* replicas[] = {&loaded.value(), &mapped.value()};
    const char* names[] = {"Load", "Map"};
    for (int r = 0; r < 2; ++r) {
      ++report_.bit_checks;
      const WalkIndex& replica = *replicas[r];
      size_t step_bytes = static_cast<size_t>(walks_->walk_length()) *
                          sizeof(NodeId);
      for (NodeId v = 0; v < n; ++v) {
        for (int w = 0; w < walks_->num_walks(); ++w) {
          if (std::memcmp(replica.WalkData(v, w), walks_->WalkData(v, w),
                          step_bytes) != 0 ||
              replica.WalkLiveLength(v, w) != walks_->WalkLiveLength(v, w)) {
            AddViolation("artifact-roundtrip",
                         std::string(names[r]) + ": node " +
                             std::to_string(v) + " walk " +
                             std::to_string(w) +
                             " differs from the saved index");
            std::remove(path.c_str());
            return;
          }
        }
      }
    }

    // Full query-stack identity: single-source sweeps over the mapped
    // index must reproduce the heap-loaded index bit for bit.
    SemSimMcEstimator est_loaded(hin_.get(), measure_.get(), &loaded.value());
    SemSimMcEstimator est_mapped(hin_.get(), measure_.get(), &mapped.value());
    SingleSourceIndex inv_loaded = SingleSourceIndex::Build(loaded.value());
    SingleSourceIndex inv_mapped = SingleSourceIndex::Build(mapped.value());
    ++report_.bit_checks;
    if (inv_loaded.Fingerprint() != inv_mapped.Fingerprint()) {
      AddViolation("artifact-roundtrip",
                   "inverted-index fingerprints differ between Load and Map");
    }
    QueryScratch scratch;
    std::vector<double> row_mapped, row_loaded;
    for (size_t i = 0; i < sources_.size() && !suppressed_; ++i) {
      NodeId u = sources_[i];
      inv_mapped.SemSimFromInto(u, est_mapped, cfg_.mc, scratch, row_mapped);
      inv_loaded.SemSimFromInto(u, est_loaded, cfg_.mc, scratch, row_loaded);
      CompareVectorsBit(
          "artifact-roundtrip",
          "source " + std::to_string(u) + ": mapped sweep vs loaded sweep",
          row_mapped, row_loaded);
    }
    std::remove(path.c_str());
  }

  // ---- N: walk-sampler determinism --------------------------------------

  // The alias sampler index must be a pure function of the graph:
  // serial and N-thread builds produce identical bytes. (Check F already
  // holds the alias-sampled walks against the oracle.)
  void CheckSamplerDeterminism() {
    if (suppressed_) return;
    NodeSamplerIndex serial =
        NodeSamplerIndex::Build(*hin_, SampleDirection::kIn);
    ThreadPool pool(cfg_.threads);
    NodeSamplerIndex threaded =
        NodeSamplerIndex::Build(*hin_, SampleDirection::kIn, &pool);
    ++report_.bit_checks;
    if (serial.Fingerprint() != threaded.Fingerprint()) {
      AddViolation("sampler-threads",
                   "NodeSamplerIndex fingerprint differs between the serial "
                   "and the " +
                       std::to_string(cfg_.threads) + "-thread build");
    }
  }

  // ---- failure dump --------------------------------------------------------

  void DumpInstance() {
    std::error_code ec;
    std::filesystem::create_directories(opt_.dump_dir, ec);
    std::string prefix =
        opt_.dump_dir + "/seed" + std::to_string(cfg_.seed);
    if (hin_) {
      if (SaveHin(*hin_, prefix + ".hin").ok()) {
        report_.dumped_files.push_back(prefix + ".hin");
      }
      if (ctx_) {
        if (SaveTaxonomy(ctx_->taxonomy(), prefix + ".tax").ok()) {
          report_.dumped_files.push_back(prefix + ".tax");
        }
        std::vector<ConceptId> map(hin_->num_nodes());
        for (NodeId v = 0; v < hin_->num_nodes(); ++v) {
          map[v] = ctx_->concept_of(v);
        }
        if (SaveConceptMap(ctx_->taxonomy(), map, prefix + ".map").ok()) {
          report_.dumped_files.push_back(prefix + ".map");
        }
      }
    }
    std::ofstream txt(prefix + ".repro.txt");
    if (txt) {
      txt << "seed: " << cfg_.seed << "\n"
          << "instance: " << cfg_.Describe() << "\n"
          << "repro: " << ReproCommand(cfg_.seed) << "\n\n";
      for (const std::string& v : report_.violations) txt << v << "\n\n";
      report_.dumped_files.push_back(prefix + ".repro.txt");
    }
  }

  const DifferentialConfig& cfg_;
  const DifferentialOptions& opt_;
  DifferentialReport report_;
  bool suppressed_ = false;

  std::unique_ptr<Hin> hin_;
  std::unique_ptr<SemanticContext> ctx_;
  std::unique_ptr<SemanticMeasure> measure_;
  std::unique_ptr<WalkIndex> walks_;
  std::unique_ptr<ScoreMatrix> oracle_;
  std::unique_ptr<BatchQueryEngine> eng1_;
  std::unique_ptr<BatchQueryEngine> engN_;
  std::vector<NodePair> pairs_;
  std::vector<NodeId> sources_;
};

}  // namespace

DifferentialReport RunDifferentialInstance(const DifferentialConfig& config,
                                           const DifferentialOptions& options) {
  return InstanceRunner(config, options).Run();
}

DifferentialReport RunDifferentialSweep(uint64_t start_seed, int instances,
                                        const DifferentialOptions& options) {
  DifferentialReport total;
  total.seed = start_seed;
  for (int i = 0; i < instances; ++i) {
    uint64_t seed = start_seed + static_cast<uint64_t>(i);
    DifferentialConfig cfg = MakeDifferentialConfig(seed);
    if (options.verbose) {
      std::fprintf(stderr, "[differential] seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   cfg.Describe().c_str());
    }
    total.Merge(RunDifferentialInstance(cfg, options));
  }
  total.instances = instances;
  return total;
}

}  // namespace testing
}  // namespace semsim
