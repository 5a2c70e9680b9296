#include "testing/stress.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/batch_engine.h"
#include "core/engine_snapshot.h"
#include "serving/snapshot_manager.h"
#include "taxonomy/semantic_measure.h"
#include "testing/random_taxonomy.h"

namespace semsim {
namespace testing {

namespace {

using Clock = CancelToken::Clock;

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void FnvMix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

void FnvMixDouble(uint64_t& h, double v) {
  FnvMix(h, std::bit_cast<uint64_t>(v));
}

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

const char* KindName(QueryRequestKind kind) {
  switch (kind) {
    case QueryRequestKind::kPairs:
      return "pairs";
    case QueryRequestKind::kSingleSource:
      return "single_source";
    case QueryRequestKind::kTopK:
      return "topk";
  }
  return "?";
}

// At most this many violations are recorded per instance; one broken
// invariant usually fails every op of the schedule and the tail adds
// nothing a replay would not show.
constexpr int kMaxViolationsPerInstance = 6;

}  // namespace

const char* StressScenarioName(StressScenario scenario) {
  switch (scenario) {
    case StressScenario::kDeterministicReplay:
      return "deterministic_replay";
    case StressScenario::kOverloadBurst:
      return "overload_burst";
    case StressScenario::kDeadlineMix:
      return "deadline_mix";
    case StressScenario::kCancelStorm:
      return "cancel_storm";
    case StressScenario::kMidflightShutdown:
      return "midflight_shutdown";
    case StressScenario::kFailpointChaos:
      return "failpoint_chaos";
    case StressScenario::kSnapshotSwapStorm:
      return "snapshot_swap_storm";
  }
  return "?";
}

std::string StressConfig::Describe() const {
  std::ostringstream os;
  os << "scenario=" << StressScenarioName(scenario) << " ops=" << num_ops
     << " producers=" << num_producers << " queue_cap=" << service.queue_capacity
     << " engine_threads=" << engine_threads << " walks=" << walks.num_walks
     << "x" << walks.walk_length
     << (lin_measure ? " measure=Lin" : " measure=Constant")
     << " prior=" << service.initial_seconds_per_item_walk;
  if (num_swaps > 0) os << " swaps=" << num_swaps;
  os << " | " << DescribeOptions(hin);
  return os.str();
}

StressConfig MakeStressConfig(uint64_t seed) {
  StressConfig cfg;
  cfg.seed = seed;
  cfg.scenario = static_cast<StressScenario>(seed % 7);
  Rng r(seed ^ 0x57E55EEDBA5EULL);

  cfg.hin.seed = r.Next();
  cfg.hin.num_nodes = 20 + static_cast<int>(r.NextIndex(21));  // [20, 40]
  cfg.hin.node_label_alphabet = 1 + static_cast<int>(r.NextIndex(3));
  cfg.hin.edge_label_alphabet = 1 + static_cast<int>(r.NextIndex(2));
  cfg.hin.avg_out_degree = 1.5 + 1.5 * r.NextDouble();
  cfg.hin.self_loop_fraction = 0.1 * r.NextDouble();
  cfg.hin.dangling_fraction = r.NextIndex(4) == 0 ? 0.2 * r.NextDouble() : 0.0;

  cfg.lin_measure = r.NextIndex(2) == 0;
  cfg.taxonomy_seed = r.Next();

  cfg.walks.num_walks = 40 + static_cast<int>(r.NextIndex(41));  // [40, 80]
  cfg.walks.walk_length = 8 + static_cast<int>(r.NextIndex(5));  // [8, 12]
  cfg.walks.seed = r.Next();
  cfg.walks.num_threads = 1;

  cfg.engine_threads = 2 + static_cast<int>(r.NextIndex(2));  // [2, 3]
  cfg.failpoint_seed = r.Next();

  switch (cfg.scenario) {
    case StressScenario::kDeterministicReplay:
      cfg.num_ops = 24 + static_cast<int>(r.NextIndex(17));
      cfg.num_producers = 1;
      cfg.service.queue_capacity = 64;
      break;
    case StressScenario::kOverloadBurst:
      cfg.num_ops = 48 + static_cast<int>(r.NextIndex(33));
      cfg.num_producers = 2 + static_cast<int>(r.NextIndex(3));  // [2, 4]
      cfg.service.queue_capacity = 2 + r.NextIndex(3);           // [2, 4]
      break;
    case StressScenario::kDeadlineMix:
      cfg.num_ops = 24 + static_cast<int>(r.NextIndex(17));
      cfg.num_producers = 2;
      cfg.service.queue_capacity = 128;
      // Half the seeds start from a pessimistic cost prior, so the
      // scheduler projects deadline overruns immediately and the
      // walk-budget degradation path runs hot from the first request.
      if (r.NextIndex(2) == 0) {
        cfg.service.initial_seconds_per_item_walk = 1e-4;
      }
      break;
    case StressScenario::kCancelStorm:
      cfg.num_ops = 32 + static_cast<int>(r.NextIndex(17));
      cfg.num_producers = 2 + static_cast<int>(r.NextIndex(2));  // [2, 3]
      cfg.service.queue_capacity = 128;
      break;
    case StressScenario::kMidflightShutdown:
      cfg.num_ops = 32 + static_cast<int>(r.NextIndex(17));
      cfg.num_producers = 2;
      cfg.service.queue_capacity = 16;
      cfg.shutdown_after_op = cfg.num_ops / 3;
      break;
    case StressScenario::kFailpointChaos:
      cfg.num_ops = 32 + static_cast<int>(r.NextIndex(17));
      cfg.num_producers = 2 + static_cast<int>(r.NextIndex(2));  // [2, 3]
      cfg.service.queue_capacity = 8 + r.NextIndex(9);           // [8, 16]
      break;
    case StressScenario::kSnapshotSwapStorm:
      cfg.num_ops = 32 + static_cast<int>(r.NextIndex(17));
      cfg.num_producers = 2 + static_cast<int>(r.NextIndex(2));  // [2, 3]
      cfg.service.queue_capacity = 128;
      cfg.num_swaps = 3 + static_cast<int>(r.NextIndex(4));      // [3, 6]
      break;
  }
  return cfg;
}

std::vector<StressOp> BuildStressSchedule(const StressConfig& config) {
  std::vector<StressOp> ops;
  ops.reserve(static_cast<size_t>(config.num_ops));
  Rng r(config.seed ^ 0x5C4ED01EULL);
  for (int i = 0; i < config.num_ops; ++i) {
    StressOp op;
    op.kind = static_cast<QueryRequestKind>(r.NextIndex(3));
    op.num_items = op.kind == QueryRequestKind::kPairs
                       ? 1 + static_cast<int>(r.NextIndex(4))
                       : 1 + static_cast<int>(r.NextIndex(2));
    op.k = 1 + static_cast<int>(r.NextIndex(8));
    op.producer = static_cast<int>(
        r.NextIndex(static_cast<size_t>(config.num_producers)));
    op.pace_ns = config.scenario == StressScenario::kOverloadBurst
                     ? 0
                     : static_cast<int64_t>(r.NextIndex(200'000));
    if (config.scenario == StressScenario::kDeadlineMix) {
      switch (r.NextIndex(3)) {
        case 0:  // generous: should complete (possibly degraded)
          op.timeout_ns = 2'000'000'000;
          break;
        case 1:  // tight: degrade or miss
          op.timeout_ns = 50'000 + static_cast<int64_t>(r.NextIndex(950'000));
          break;
        default:  // near-expired: usually dead before the scheduler looks
          op.timeout_ns = 1'000 + static_cast<int64_t>(r.NextIndex(9'000));
          break;
      }
      op.allow_degradation = r.NextIndex(4) != 0;
    }
    if (config.scenario == StressScenario::kCancelStorm) {
      op.with_token = r.NextIndex(4) != 0;
      op.cancel = op.with_token && r.NextIndex(2) == 0;
      // Short offsets on purpose: requests finish in tens of µs, so only
      // cancels in the 0-100µs window race the queue and the run itself
      // (the interesting paths) instead of landing after completion.
      op.cancel_delay_ns = static_cast<int64_t>(r.NextIndex(100'000));
    }
    ops.push_back(op);
  }
  return ops;
}

uint64_t StressScheduleFingerprint(std::span<const StressOp> ops) {
  uint64_t h = kFnvOffset;
  FnvMix(h, ops.size());
  for (const StressOp& op : ops) {
    FnvMix(h, static_cast<uint64_t>(op.kind));
    FnvMix(h, static_cast<uint64_t>(op.num_items));
    FnvMix(h, static_cast<uint64_t>(op.k));
    FnvMix(h, static_cast<uint64_t>(op.timeout_ns));
    FnvMix(h, op.allow_degradation ? 1 : 0);
    FnvMix(h, op.with_token ? 1 : 0);
    FnvMix(h, op.cancel ? 1 : 0);
    FnvMix(h, static_cast<uint64_t>(op.cancel_delay_ns));
    FnvMix(h, static_cast<uint64_t>(op.producer));
    FnvMix(h, static_cast<uint64_t>(op.pace_ns));
  }
  return h;
}

std::string StressReproCommand(uint64_t seed) {
  return "./build/src/testing/semsim_stress --seed=" + std::to_string(seed);
}

void StressReport::Merge(const StressReport& other) {
  instances += other.instances;
  checks += other.checks;
  schedule_fingerprint = other.schedule_fingerprint;
  outcome = other.outcome;
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
  dumped_files.insert(dumped_files.end(), other.dumped_files.begin(),
                      other.dumped_files.end());
}

namespace {

/// One stress instance: fixture construction, one (or two) service runs
/// replaying the schedule, then the invariant catalog over the collected
/// outcomes. Numbered comments below match the contract in stress.h.
class StressRunner {
 public:
  StressRunner(const StressConfig& cfg, const StressOptions& opt)
      : cfg_(cfg), opt_(opt) {
    report_.seed = cfg.seed;
    report_.instances = 1;
  }

  StressReport Run() {
    ops_ = BuildStressSchedule(cfg_);
    report_.schedule_fingerprint = StressScheduleFingerprint(ops_);
    // Schedule determinism self-check: rebuilding from the same config
    // must reproduce the fingerprint bit for bit.
    ++report_.checks;
    if (StressScheduleFingerprint(BuildStressSchedule(cfg_)) !=
        report_.schedule_fingerprint) {
      AddViolation("schedule-determinism",
                   "BuildStressSchedule is not a pure function of the config");
    }
    if (Setup()) {
      RunOutcome first = RunService();
      report_.outcome = first.outcome;
      CheckOutcomes(first);
      if (cfg_.scenario == StressScenario::kDeterministicReplay) {
        RunOutcome second = RunService();
        CheckOutcomes(second);
        CheckReproducible(first.outcome, second.outcome);
      }
      CheckReplay(first);
    }
    FailPoints::Global().DisarmAll();
    if (!report_.ok() && !opt_.dump_dir.empty()) DumpInstance();
    return report_;
  }

 private:
  struct RunOutcome {
    StressOutcome outcome;
    std::vector<QueryResponse> responses;  // index-aligned with ops_
    std::vector<bool> resolved;
    MetricsSnapshot before;
    MetricsSnapshot after;
  };

  // ---- violation plumbing -------------------------------------------------

  void AddViolation(const char* check, const std::string& detail) {
    if (suppressed_) return;
    if (static_cast<int>(report_.violations.size()) >=
        kMaxViolationsPerInstance) {
      suppressed_ = true;
      report_.violations.push_back(
          "[seed " + std::to_string(cfg_.seed) +
          "] further violations of this instance suppressed\n  repro: " +
          StressReproCommand(cfg_.seed));
      return;
    }
    std::ostringstream os;
    os << "[seed " << cfg_.seed << "][" << check << "] " << detail
       << "\n  instance: " << cfg_.Describe()
       << "\n  repro: " << StressReproCommand(cfg_.seed);
    report_.violations.push_back(os.str());
  }

  void CheckEq(const char* check, const std::string& what, uint64_t got,
               uint64_t want) {
    ++report_.checks;
    if (got == want) return;
    AddViolation(check, what + ": " + std::to_string(got) +
                            " != " + std::to_string(want));
  }

  // ---- fixture ------------------------------------------------------------

  bool Setup() {
    Result<Hin> hin = GenerateRandomHin(cfg_.hin);
    if (!hin.ok()) {
      AddViolation("setup", "GenerateRandomHin: " + hin.status().ToString());
      return false;
    }
    hin_ = std::make_unique<Hin>(std::move(hin).value());

    if (cfg_.lin_measure) {
      RandomTaxonomyOptions tax;
      tax.seed = cfg_.taxonomy_seed;
      tax.num_concepts = 8 + static_cast<int>(cfg_.taxonomy_seed % 9);
      Result<SemanticContext> ctx = GenerateRandomContext(*hin_, tax);
      if (!ctx.ok()) {
        AddViolation("setup",
                     "GenerateRandomContext: " + ctx.status().ToString());
        return false;
      }
      ctx_ = std::make_unique<SemanticContext>(std::move(ctx).value());
      measure_ = std::make_unique<LinMeasure>(ctx_.get());
    } else {
      measure_ = std::make_unique<ConstantMeasure>();
    }

    walks_ = std::make_unique<WalkIndex>(WalkIndex::Build(*hin_, cfg_.walks));

    Result<EngineSnapshotPtr> snap = EngineSnapshot::Create(
        Unowned(hin_.get()), Unowned(measure_.get()), Unowned(walks_.get()),
        EngineSnapshotOptions{}, /*version=*/0);
    if (!snap.ok()) {
      AddViolation("setup",
                   "EngineSnapshot::Create: " + snap.status().ToString());
      return false;
    }
    Result<BatchQueryEngine> engine =
        BatchQueryEngine::CreateFromSnapshot(snap.value(), cfg_.engine_threads);
    if (!engine.ok()) {
      AddViolation("setup", "BatchQueryEngine::CreateFromSnapshot: " +
                                engine.status().ToString());
      return false;
    }
    engine_ = std::make_unique<BatchQueryEngine>(std::move(engine).value());

    // The replayed request payloads: deterministic in the seed, disjoint
    // from the schedule's RNG stream so satellites can reshape one
    // without disturbing the other.
    Rng rq(cfg_.seed ^ 0x0DDB0D1E5ULL);
    size_t n = hin_->num_nodes();
    requests_.reserve(ops_.size());
    for (const StressOp& op : ops_) {
      QueryRequest req;
      req.kind = op.kind;
      req.k = static_cast<size_t>(op.k);
      req.timeout = std::chrono::nanoseconds(op.timeout_ns);
      req.allow_degradation = op.allow_degradation;
      if (op.kind == QueryRequestKind::kPairs) {
        for (int j = 0; j < op.num_items; ++j) {
          req.pairs.push_back({static_cast<NodeId>(rq.NextIndex(n)),
                               static_cast<NodeId>(rq.NextIndex(n))});
        }
      } else {
        for (int j = 0; j < op.num_items; ++j) {
          req.sources.push_back(static_cast<NodeId>(rq.NextIndex(n)));
        }
      }
      requests_.push_back(std::move(req));
    }
    return true;
  }

  // ---- the service run ----------------------------------------------------

  void ArmChaos() {
    FailPoints& fp = FailPoints::Global();
    fp.ArmProbability("admission_queue/try_push", 0.2, cfg_.failpoint_seed,
                      Status::ResourceExhausted("injected admission failure"));
    fp.ArmDelay("query_service/scheduler", std::chrono::microseconds(200));
    fp.ArmDelay("admission_queue/pop", std::chrono::microseconds(100));
    fp.ArmDelay("thread_pool/dispatch", std::chrono::microseconds(50));
  }

  RunOutcome RunService() {
    RunOutcome run;
    run.before = MetricsRegistry::Global().Snapshot();

    // Swap storm: the service reads through a SnapshotManager so a
    // background thread can publish rebuilt snapshots mid-run. Every
    // published version is retained for the per-version replay check.
    const bool swap_storm =
        cfg_.scenario == StressScenario::kSnapshotSwapStorm;
    std::unique_ptr<SnapshotManager> manager;
    if (swap_storm) {
      published_.clear();
      published_.push_back(engine_->snapshot());
      swap_publishes_ = 0;
      Result<SnapshotManager> m = SnapshotManager::Create(engine_->snapshot());
      if (!m.ok()) {
        AddViolation("service-create",
                     "SnapshotManager::Create: " + m.status().ToString());
        return run;
      }
      manager = std::make_unique<SnapshotManager>(std::move(m).value());
    }

    Result<QueryService> created =
        swap_storm ? QueryService::Create(engine_.get(), manager.get(),
                                          cfg_.service)
                   : QueryService::Create(engine_.get(), cfg_.service);
    if (!created.ok()) {
      AddViolation("service-create", created.status().ToString());
      return run;
    }
    QueryService service = std::move(created).value();

    const size_t num_ops = ops_.size();
    std::vector<Future<QueryResponse>> futures(num_ops);
    std::vector<std::shared_ptr<CancelToken>> tokens(num_ops);
    for (size_t i = 0; i < num_ops; ++i) {
      if (ops_[i].with_token) tokens[i] = std::make_shared<CancelToken>();
    }

    // Arm chaos only for the duration of the run; CheckReplay and every
    // other instance must see a clean registry.
    const bool chaos =
        cfg_.scenario == StressScenario::kFailpointChaos && SEMSIM_FAILPOINTS;
    if (chaos) ArmChaos();

    std::atomic<size_t> submitted{0};

    // Cancel storm plumbing: producers enqueue the due cancellations as
    // they submit; one canceller thread fires them at their offsets.
    struct DueCancel {
      std::shared_ptr<CancelToken> token;
      Clock::time_point fire_at;
    };
    std::mutex cancel_mu;
    std::condition_variable cancel_cv;
    std::deque<DueCancel> due;
    size_t total_cancels = 0;
    for (const StressOp& op : ops_) {
      if (op.cancel) ++total_cancels;
    }
    std::thread canceller;
    if (total_cancels > 0) {
      canceller = std::thread([&] {
        size_t fired = 0;
        while (fired < total_cancels) {
          DueCancel next;
          {
            std::unique_lock<std::mutex> lock(cancel_mu);
            cancel_cv.wait(lock, [&] { return !due.empty(); });
            next = std::move(due.front());
            due.pop_front();
          }
          std::this_thread::sleep_until(next.fire_at);
          next.token->Cancel();
          ++fired;
        }
      });
    }

    // Mid-flight shutdown: Shutdown() lands from a foreign thread once
    // the submission counter crosses the threshold, racing producers
    // that keep submitting afterwards.
    std::thread shutdowner;
    if (cfg_.shutdown_after_op >= 0) {
      const size_t threshold = std::min(
          num_ops, static_cast<size_t>(cfg_.shutdown_after_op));
      shutdowner = std::thread([&, threshold] {
        while (submitted.load(std::memory_order_acquire) < threshold) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        service.Shutdown();
      });
    }

    // The storm itself: rebuild the walk index under a fresh sampling
    // seed and publish it while producers keep submitting. Each
    // published snapshot copies the engine's own options, so a replay
    // bound to that version reproduces the serving results bit for bit.
    std::vector<std::string> swap_errors;
    std::thread swapper;
    if (swap_storm) {
      swapper = std::thread([&] {
        for (int s = 0; s < cfg_.num_swaps; ++s) {
          std::this_thread::sleep_for(std::chrono::microseconds(120));
          WalkIndexOptions walks = cfg_.walks;
          walks.seed = cfg_.walks.seed + static_cast<uint64_t>(s) + 1;
          Result<EngineSnapshotPtr> next = EngineSnapshot::Build(
              Unowned(hin_.get()), Unowned<SemanticMeasure>(measure_.get()),
              walks, engine_->snapshot()->options(), manager->NextVersion());
          if (!next.ok()) {
            swap_errors.push_back("EngineSnapshot::Build: " +
                                  next.status().ToString());
            break;
          }
          published_.push_back(next.value());
          Status st = manager->Publish(next.value());
          if (!st.ok()) {
            swap_errors.push_back("Publish: " + st.ToString());
            break;
          }
          ++swap_publishes_;
        }
      });
    }

    const bool closed_loop =
        cfg_.scenario == StressScenario::kDeterministicReplay;
    std::vector<std::thread> producers;
    producers.reserve(static_cast<size_t>(cfg_.num_producers));
    for (int p = 0; p < cfg_.num_producers; ++p) {
      producers.emplace_back([&, p] {
        for (size_t i = 0; i < num_ops; ++i) {
          const StressOp& op = ops_[i];
          if (op.producer != p) continue;
          if (op.pace_ns > 0) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(op.pace_ns));
          }
          Clock::time_point submit_time = Clock::now();
          futures[i] = service.Submit(requests_[i], tokens[i]);
          submitted.fetch_add(1, std::memory_order_release);
          if (op.cancel) {
            {
              std::lock_guard<std::mutex> lock(cancel_mu);
              due.push_back(
                  {tokens[i],
                   submit_time + std::chrono::nanoseconds(op.cancel_delay_ns)});
            }
            cancel_cv.notify_one();
          }
          if (closed_loop) futures[i].Wait();
        }
      });
    }
    for (std::thread& t : producers) t.join();
    if (shutdowner.joinable()) shutdowner.join();
    if (canceller.joinable()) canceller.join();
    if (swapper.joinable()) swapper.join();
    for (const std::string& e : swap_errors) AddViolation("snapshot-swap", e);

    // Invariant 1: every submitted future resolves. The wait ceiling is
    // generous on purpose — a future that misses it is lost, not slow.
    run.responses.resize(num_ops);
    run.resolved.assign(num_ops, false);
    run.outcome.submitted = num_ops;
    for (size_t i = 0; i < num_ops; ++i) {
      if (!futures[i].valid() ||
          !futures[i].WaitFor(std::chrono::seconds(opt_.future_wait_seconds))) {
        ++run.outcome.unresolved;
        continue;
      }
      run.resolved[i] = true;
      run.responses[i] = futures[i].Get();
    }

    service.Shutdown();
    if (chaos) FailPoints::Global().DisarmAll();
    run.after = MetricsRegistry::Global().Snapshot();
    Tally(run);
    return run;
  }

  void Tally(RunOutcome& run) {
    uint64_t h = kFnvOffset;
    for (size_t i = 0; i < run.responses.size(); ++i) {
      if (!run.resolved[i]) continue;
      const QueryResponse& resp = run.responses[i];
      FnvMix(h, i);
      FnvMix(h, static_cast<uint64_t>(resp.status.code()));
      switch (resp.status.code()) {
        case StatusCode::kOk:
          ++run.outcome.ok;
          if (resp.degraded) ++run.outcome.degraded;
          FnvMix(h, static_cast<uint64_t>(resp.effective_walk_budget));
          FnvMix(h, resp.degraded ? 1 : 0);
          FnvMix(h, resp.snapshot_version);
          for (double v : resp.scores) FnvMixDouble(h, v);
          for (const std::vector<double>& row : resp.rows) {
            for (double v : row) FnvMixDouble(h, v);
          }
          for (const std::vector<Scored>& list : resp.topk) {
            for (const Scored& s : list) {
              FnvMix(h, static_cast<uint64_t>(s.node));
              FnvMixDouble(h, s.score);
            }
          }
          break;
        case StatusCode::kResourceExhausted:
          ++run.outcome.rejected;
          break;
        case StatusCode::kCancelled:
          ++run.outcome.cancelled;
          break;
        case StatusCode::kDeadlineExceeded:
          ++run.outcome.deadline_exceeded;
          break;
        case StatusCode::kFailedPrecondition:
          ++run.outcome.shutdown_rejected;
          break;
        default:
          ++run.outcome.unexpected_status;
          break;
      }
    }
    run.outcome.value_fingerprint = h;
  }

  // ---- invariants ---------------------------------------------------------

  bool StatusAllowed(StatusCode code) const {
    if (code == StatusCode::kOk) return true;
    switch (cfg_.scenario) {
      case StressScenario::kDeterministicReplay:
        return false;
      case StressScenario::kOverloadBurst:
      case StressScenario::kFailpointChaos:
        return code == StatusCode::kResourceExhausted;
      case StressScenario::kDeadlineMix:
        return code == StatusCode::kResourceExhausted ||
               code == StatusCode::kDeadlineExceeded;
      case StressScenario::kCancelStorm:
        return code == StatusCode::kResourceExhausted ||
               code == StatusCode::kCancelled;
      case StressScenario::kMidflightShutdown:
        return code == StatusCode::kResourceExhausted ||
               code == StatusCode::kCancelled ||
               code == StatusCode::kFailedPrecondition;
      case StressScenario::kSnapshotSwapStorm:
        return code == StatusCode::kResourceExhausted;
    }
    return false;
  }

  uint64_t CounterDelta(const RunOutcome& run, const std::string& name) const {
    auto get = [&](const MetricsSnapshot& snap) -> uint64_t {
      auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    return get(run.after) - get(run.before);
  }

  double GaugeDelta(const RunOutcome& run, const std::string& name) const {
    auto get = [&](const MetricsSnapshot& snap) -> double {
      auto it = snap.gauges.find(name);
      return it == snap.gauges.end() ? 0.0 : it->second;
    };
    return get(run.after) - get(run.before);
  }

  void CheckOutcomes(const RunOutcome& run) {
    const StressOutcome& o = run.outcome;

    // Invariant 1: no lost futures.
    CheckEq("future-resolution", "unresolved futures", o.unresolved, 0);

    // Invariant 2: statuses stay inside the scenario's allowed set.
    for (size_t i = 0; i < run.responses.size() && !suppressed_; ++i) {
      if (!run.resolved[i]) continue;
      StatusCode code = run.responses[i].status.code();
      ++report_.checks;
      if (!StatusAllowed(code)) {
        AddViolation("status-allowed",
                     "op " + std::to_string(i) + " resolved with " +
                         run.responses[i].status.ToString() +
                         ", outside the " +
                         StressScenarioName(cfg_.scenario) + " set");
      }
    }

    // Invariant 3: conservation — every submission lands in exactly one
    // bucket.
    CheckEq("conservation",
            "ok+rejected+cancelled+deadline+shutdown+unresolved+unexpected "
            "vs submitted",
            o.ok + o.rejected + o.cancelled + o.deadline_exceeded +
                o.shutdown_rejected + o.unresolved + o.unexpected_status,
            o.submitted);
    if (cfg_.scenario == StressScenario::kDeterministicReplay) {
      CheckEq("conservation", "closed-loop run: ok vs submitted", o.ok,
              o.submitted);
      CheckEq("conservation", "closed-loop run: degraded responses",
              o.degraded, 0);
    }

    // Invariant 5: the service's metrics moved by exactly what we
    // observed. The registry is process-global, so deltas (not absolute
    // values) are compared; nothing else touches these counters while an
    // instance runs.
    CheckEq("metrics", "submitted_total delta",
            CounterDelta(run, "semsim_service_submitted_total"), o.submitted);
    CheckEq("metrics", "rejected_total delta",
            CounterDelta(run, "semsim_service_rejected_total"), o.rejected);
    CheckEq("metrics", "completed_total delta",
            CounterDelta(run, "semsim_service_completed_total"), o.ok);
    CheckEq("metrics", "degraded_total delta",
            CounterDelta(run, "semsim_service_degraded_total"), o.degraded);
    CheckEq("metrics", "cancelled_total delta",
            CounterDelta(run, "semsim_service_cancelled_total"), o.cancelled);
    CheckEq("metrics", "deadline_exceeded_total delta",
            CounterDelta(run, "semsim_service_deadline_exceeded_total"),
            o.deadline_exceeded);
    CheckEq("metrics", "admitted_total delta",
            CounterDelta(run, "semsim_service_admitted_total"),
            o.submitted - o.rejected - o.shutdown_rejected);
    ++report_.checks;
    double depth = GaugeDelta(run, "semsim_service_queue_depth");
    if (std::abs(depth) > 0.25) {
      AddViolation("metrics", "queue_depth gauge did not return to zero: " +
                                  std::to_string(depth));
    }

    // Swap storm: every OK response names exactly one published version
    // (a mixed or torn read would surface as an unknown id here or as a
    // replay mismatch below), and the swap counter moved by exactly the
    // publishes that succeeded.
    if (cfg_.scenario == StressScenario::kSnapshotSwapStorm) {
      std::set<uint64_t> versions;
      for (const EngineSnapshotPtr& snap : published_) {
        versions.insert(snap->version());
      }
      for (size_t i = 0; i < run.responses.size() && !suppressed_; ++i) {
        if (!run.resolved[i] || !run.responses[i].ok()) continue;
        ++report_.checks;
        if (versions.count(run.responses[i].snapshot_version) == 0) {
          AddViolation("snapshot-version",
                       "op " + std::to_string(i) +
                           " reports unpublished snapshot version " +
                           std::to_string(run.responses[i].snapshot_version));
        }
      }
      CheckEq("metrics", "snapshot_swaps_total delta",
              CounterDelta(run, "semsim_snapshot_swaps_total"),
              swap_publishes_);
    }
  }

  // Invariant 6: the deterministic scenario is bit-reproducible.
  void CheckReproducible(const StressOutcome& a, const StressOutcome& b) {
    CheckEq("reproducibility", "ok count across runs", a.ok, b.ok);
    CheckEq("reproducibility", "degraded count across runs", a.degraded,
            b.degraded);
    CheckEq("reproducibility", "rejected count across runs", a.rejected,
            b.rejected);
    CheckEq("reproducibility", "value fingerprint across runs",
            a.value_fingerprint, b.value_fingerprint);
  }

  // Invariant 4: every OK response replays bit-identically through a
  // direct engine call at its reported effective budget (the service
  // determinism contract), and degraded pair scores stay within the
  // summed Hoeffding bands of a full-budget replay. Invariant 7 rides
  // the same per-response loop. Runs after Shutdown and DisarmAll, so
  // the replay is undisturbed.
  void CheckReplay(const RunOutcome& run) {
    // Swap-storm responses replay through an engine bound to the exact
    // snapshot version each response reported; other scenarios serve a
    // single version and replay through the fixture engine directly.
    std::map<uint64_t, BatchQueryEngine> replicas;
    auto engine_for = [&](uint64_t version) -> const BatchQueryEngine* {
      if (cfg_.scenario != StressScenario::kSnapshotSwapStorm) {
        return engine_.get();
      }
      auto it = replicas.find(version);
      if (it != replicas.end()) return &it->second;
      for (const EngineSnapshotPtr& snap : published_) {
        if (snap->version() != version) continue;
        Result<BatchQueryEngine> replica =
            BatchQueryEngine::CreateFromSnapshot(snap, cfg_.engine_threads);
        if (!replica.ok()) return nullptr;
        return &replicas.emplace(version, std::move(replica).value())
                    .first->second;
      }
      return nullptr;
    };

    for (size_t i = 0; i < run.responses.size() && !suppressed_; ++i) {
      if (!run.resolved[i] || !run.responses[i].ok()) continue;
      const QueryResponse& resp = run.responses[i];
      const QueryRequest& req = requests_[i];
      std::string tag = "op " + std::to_string(i) + " (" +
                        KindName(req.kind) + ")";

      // Invariant 7: an OK response finished inside its deadline. Exact,
      // not a latency bound: Submit arms the token at enqueue + timeout,
      // both spans are read off that steady clock, and Execute reports
      // OK only after its post-run deadline check has passed.
      if (req.timeout > std::chrono::nanoseconds::zero()) {
        ++report_.checks;
        const double timeout_s =
            std::chrono::duration<double>(req.timeout).count();
        if (resp.queue_seconds + resp.run_seconds > timeout_s) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        ": queue %.9f s + run %.9f s > timeout %.9f s",
                        resp.queue_seconds, resp.run_seconds, timeout_s);
          AddViolation("deadline-honoured", tag + buf);
        }
      }

      ++report_.checks;
      const BatchQueryEngine* eng = engine_for(resp.snapshot_version);
      if (eng == nullptr) {
        AddViolation("snapshot-version",
                     tag + ": no replayable engine for snapshot version " +
                         std::to_string(resp.snapshot_version));
        continue;
      }
      const int full = EffectiveWalkBudget(
          eng->snapshot()->options().query.mc,
          eng->snapshot()->walk_index().num_walks());

      ++report_.checks;
      if (resp.effective_walk_budget < 1 || resp.effective_walk_budget > full ||
          resp.degraded != (resp.effective_walk_budget < full)) {
        AddViolation("budget-range",
                     tag + ": effective budget " +
                         std::to_string(resp.effective_walk_budget) +
                         " degraded=" + std::to_string(resp.degraded) +
                         " vs full " + std::to_string(full));
        continue;
      }

      SemSimMcOptions mc = eng->snapshot()->options().query.mc;
      mc.walk_budget = resp.effective_walk_budget;
      switch (req.kind) {
        case QueryRequestKind::kPairs: {
          std::vector<double> want = eng->QueryBatch(req.pairs, mc).values;
          CompareVectors("replay-bit-identity", tag, resp.scores, want);
          if (resp.degraded) CheckBand(*eng, tag, resp, req, full);
          break;
        }
        case QueryRequestKind::kSingleSource: {
          std::vector<std::vector<double>> want =
              eng->SingleSourceBatch(req.sources, mc).values;
          ++report_.checks;
          if (want.size() != resp.rows.size()) {
            AddViolation("replay-bit-identity",
                         tag + ": row count differs from direct call");
            break;
          }
          for (size_t s = 0; s < want.size() && !suppressed_; ++s) {
            CompareVectors("replay-bit-identity",
                           tag + " row " + std::to_string(s), resp.rows[s],
                           want[s]);
          }
          break;
        }
        case QueryRequestKind::kTopK: {
          std::vector<std::vector<Scored>> want =
              eng->TopKBatch(req.sources, req.k, mc).values;
          ++report_.checks;
          if (want.size() != resp.topk.size()) {
            AddViolation("replay-bit-identity",
                         tag + ": top-k list count differs from direct call");
            break;
          }
          for (size_t s = 0; s < want.size(); ++s) {
            const std::vector<Scored>& got = resp.topk[s];
            if (got.size() != want[s].size()) {
              AddViolation("replay-bit-identity",
                           tag + ": top-k size differs at source " +
                               std::to_string(s));
              break;
            }
            for (size_t j = 0; j < got.size(); ++j) {
              if (got[j].node != want[s][j].node ||
                  !BitEqual(got[j].score, want[s][j].score)) {
                AddViolation("replay-bit-identity",
                             tag + ": top-k entry " + std::to_string(j) +
                                 " differs at source " + std::to_string(s));
                break;
              }
            }
          }
          break;
        }
      }
    }
  }

  void CompareVectors(const char* check, const std::string& what,
                      const std::vector<double>& got,
                      const std::vector<double>& want) {
    ++report_.checks;
    if (got.size() != want.size()) {
      AddViolation(check, what + ": size " + std::to_string(got.size()) +
                              " vs " + std::to_string(want.size()));
      return;
    }
    for (size_t i = 0; i < got.size(); ++i) {
      if (!BitEqual(got[i], want[i])) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      ": entry %zu: %.17g != %.17g (bit-identity violated)", i,
                      got[i], want[i]);
        AddViolation(check, what + buf);
        return;
      }
    }
  }

  // Degraded responses are unbiased estimates over fewer walks: each
  // score must sit within the summed error bands of a full-budget
  // replay (both bands are conservative Hoeffding bounds, so the sum
  // bounds the distance between the two estimates).
  void CheckBand(const BatchQueryEngine& eng, const std::string& tag,
                 const QueryResponse& resp, const QueryRequest& req,
                 int full) {
    SemSimMcOptions mc_full = eng.snapshot()->options().query.mc;
    mc_full.walk_budget = full;
    std::vector<double> full_vals =
        eng.QueryBatch(req.pairs, mc_full).values;
    const double band_full = WalkBudgetErrorBand(full, cfg_.service.band_delta,
                                                 hin_->num_nodes());
    ++report_.checks;
    for (size_t j = 0; j < resp.scores.size(); ++j) {
      const double tol = resp.error_band + band_full + 1e-12;
      if (std::abs(resp.scores[j] - full_vals[j]) > tol) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      ": pair %zu: |%.17g - %.17g| > band %.17g", j,
                      resp.scores[j], full_vals[j], tol);
        AddViolation("degraded-band", tag + buf);
        return;
      }
    }
  }

  // ---- failure dump -------------------------------------------------------

  void DumpInstance() {
    std::error_code ec;
    std::filesystem::create_directories(opt_.dump_dir, ec);
    std::string prefix = opt_.dump_dir + "/seed" + std::to_string(cfg_.seed);
    std::ofstream sched(prefix + ".schedule");
    if (sched) {
      sched << "# seed " << cfg_.seed << " fingerprint "
            << report_.schedule_fingerprint << "\n"
            << "# " << cfg_.Describe() << "\n";
      for (size_t i = 0; i < ops_.size(); ++i) {
        const StressOp& op = ops_[i];
        sched << "op=" << i << " kind=" << KindName(op.kind)
              << " items=" << op.num_items << " k=" << op.k
              << " timeout_ns=" << op.timeout_ns
              << " degrade=" << op.allow_degradation
              << " token=" << op.with_token << " cancel=" << op.cancel
              << " cancel_delay_ns=" << op.cancel_delay_ns
              << " producer=" << op.producer << " pace_ns=" << op.pace_ns
              << "\n";
      }
      report_.dumped_files.push_back(prefix + ".schedule");
    }
    std::ofstream txt(prefix + ".repro.txt");
    if (txt) {
      txt << "seed: " << cfg_.seed << "\n"
          << "instance: " << cfg_.Describe() << "\n"
          << "repro: " << StressReproCommand(cfg_.seed) << "\n\n";
      for (const std::string& v : report_.violations) txt << v << "\n\n";
      report_.dumped_files.push_back(prefix + ".repro.txt");
    }
  }

  const StressConfig& cfg_;
  const StressOptions& opt_;
  StressReport report_;
  bool suppressed_ = false;

  std::unique_ptr<Hin> hin_;
  std::unique_ptr<SemanticContext> ctx_;
  std::unique_ptr<SemanticMeasure> measure_;
  std::unique_ptr<WalkIndex> walks_;
  std::unique_ptr<BatchQueryEngine> engine_;
  std::vector<StressOp> ops_;
  std::vector<QueryRequest> requests_;
  // kSnapshotSwapStorm: every snapshot the swapper published (plus the
  // engine's initial one), retained for the per-version replay.
  std::vector<EngineSnapshotPtr> published_;
  size_t swap_publishes_ = 0;
};

}  // namespace

StressReport RunStressInstance(const StressConfig& config,
                               const StressOptions& options) {
  return StressRunner(config, options).Run();
}

StressReport RunStressSweep(uint64_t start_seed, int instances,
                            const StressOptions& options) {
  StressReport total;
  total.seed = start_seed;
  for (int i = 0; i < instances; ++i) {
    uint64_t seed = start_seed + static_cast<uint64_t>(i);
    StressConfig cfg = MakeStressConfig(seed);
    if (options.verbose) {
      std::fprintf(stderr, "[stress] seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   cfg.Describe().c_str());
    }
    total.Merge(RunStressInstance(cfg, options));
  }
  total.instances = instances;
  return total;
}

}  // namespace testing
}  // namespace semsim
