// Serving benchmark program. Runs one named workload against QueryService
// from a single client thread, checks the answers, and prints the
// workload's metrics as the last line of stdout. See README.md.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <path>] [--git-sha <sha>] [--src-sha <sha>]
//
// --trace 0 prints the end-to-end metrics (client-observed, no spans
// recorded); --trace 1 records spans around every call into the library,
// runs the per-layer probes after the measured window, and prints the
// per-layer metrics.

#include <sched.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/batch_engine.h"
#include "core/dynamic_walk_index.h"
#include "core/engine_snapshot.h"
#include "core/single_source.h"
#include "core/walk_index.h"
#include "lib/replay.h"
#include "lib/stats.h"
#include "lib/streams.h"
#include "lib/trace.h"
#include "serving/query_service.h"
#include "serving/snapshot_manager.h"
#include "taxonomy/semantic_measure.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

using semsim::BatchQueryEngine;
using semsim::DynamicWalkIndex;
using semsim::EngineSnapshot;
using semsim::EngineSnapshotPtr;
using semsim::Hin;
using semsim::QueryRequest;
using semsim::QueryRequestKind;
using semsim::QueryResponse;
using semsim::QueryService;
using semsim::SnapshotManager;
using semsim::Status;

// The paper's defaults (Sec. 5): Lin, c = 0.6, θ = 0.05, n_w = 150, t = 15.
constexpr int kNumWalks = 150;
constexpr int kWalkLength = 15;
constexpr double kDecay = 0.6;
constexpr double kTheta = 0.05;

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
// Equal sub-windows of the measured window; p90_ms and throughput_rps
// are medians over them.
constexpr int kSubWindows = 4;
// Warm-up before the window: at least kWarmupRequests, then until the
// shared normalizer cache stops filling (it reaches kWarmCacheFill of its
// slots, or gains less than kWarmCacheGrowth of them over
// kWarmupRequests requests), at most kWarmupMaxSeconds. The cache fills
// over the first seconds of traffic and latency more than doubles as it
// does (it starts evicting), so a window that included the fill would
// measure where the fill stopped, not the service.
constexpr int kWarmupRequests = 50;
constexpr double kWarmCacheFill = 0.9;
constexpr double kWarmCacheGrowth = 0.002;
constexpr double kWarmupMaxSeconds = 15;
// Every kSampleStride-th request (up to kSampleCap) that comes back OK
// and undegraded is replayed for bit-identity.
constexpr uint64_t kSampleStride = 16;
constexpr size_t kSampleCap = 64;
// The first requests of the stream, recomputed on the initial snapshot,
// give the answer fingerprint.
constexpr uint64_t kFingerprintRequests = 16;
// Update batches the trace-mode writer probe runs.
constexpr int kProbeWrites = 3;
// Sources / pairs of the trace-mode layer probes (a cold AMiner sweep
// takes over a second, so the source count stays small).
constexpr size_t kProbeSources = 5;
constexpr size_t kProbePairs = 256;
// A decomposed parent span may leave at most this share of its duration
// outside its children.
constexpr double kSpanBound = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
  std::string src_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--src-sha") {
      args->src_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "flags take one value each\n");
    return false;
  }
  return !args->workload.empty() && args->seconds > 0;
}

semsim::EngineSnapshotOptions SnapshotOptions() {
  semsim::EngineSnapshotOptions opt;
  opt.query.kernel = semsim::QueryKernel::kFlat;
  opt.query.mc = semsim::SemSimMcOptions{kDecay, kTheta};
  return opt;
}

semsim::WalkIndexOptions WalkOptions(uint64_t seed, int threads) {
  semsim::WalkIndexOptions opt;
  opt.num_walks = kNumWalks;
  opt.walk_length = kWalkLength;
  opt.seed = SubSeed(seed, kWalkStream);
  opt.weighted = false;
  opt.num_threads = threads;
  return opt;
}

/// CPUs this process may run on (what `nproc` prints).
int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return semsim::ThreadPool::ResolveThreadCount(0);
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Wall and CPU time of one stretch of work.
struct Meter {
  Clock::time_point t0 = Clock::now();
  double cpu0 = ProcessCpuSeconds();
  double wall_s() const {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }
  double cpu_s() const { return ProcessCpuSeconds() - cpu0; }
};

/// The generated graph and the measure bound to it.
struct Inputs {
  semsim::Dataset dataset;  // owns the SemanticContext the measure reads
  std::shared_ptr<const Hin> graph;
  std::shared_ptr<const semsim::SemanticMeasure> semantic;
  std::vector<NodeId> hot;  // entity nodes in Zipf-rank order
  size_t max_in_degree = 0;
};

Status MakeInputs(const WorkloadSpec& spec, Inputs* in) {
  SEMSIM_ASSIGN_OR_RETURN(in->dataset, MakeDataset(spec));
  in->graph = std::make_shared<const Hin>(std::move(in->dataset.graph));
  in->semantic =
      std::make_shared<const semsim::LinMeasure>(&in->dataset.context);
  in->hot = HotOrder(*in->graph, spec.entity_label, kDatasetSeed);
  if (in->hot.size() < 2) {
    return Status::InvalidArgument("graph has no '" + spec.entity_label +
                                   "' nodes to query");
  }
  for (NodeId v = 0; v < in->graph->num_nodes(); ++v) {
    in->max_in_degree = std::max(in->max_in_degree, in->graph->InDegree(v));
  }
  return Status::OK();
}

/// The serving stack. Members are destroyed in reverse order: the
/// service (joins its scheduler) before the manager and the engine.
struct Stack {
  std::optional<BatchQueryEngine> engine;
  std::optional<SnapshotManager> manager;
  std::optional<QueryService> service;
};

struct SetupTimes {
  double total_s = 0;
  double walk_s = 0;
  double walk_cpu_s = 0;
  double create_s = 0;
};

/// Graph in memory → service ready. Every step runs in its own span
/// under one `setup` span.
Status BuildStack(const WorkloadSpec& spec, const Inputs& in, uint64_t seed,
                  int threads, Tracer* tracer, Stack* stack,
                  SetupTimes* times) {
  const uint64_t trace = tracer ? tracer->NewTrace() : 0;
  Meter total;
  ScopedSpan setup(tracer, "setup", 0, trace);
  const semsim::WalkIndexOptions walks = WalkOptions(seed, threads);
  const semsim::EngineSnapshotOptions options = SnapshotOptions();

  EngineSnapshotPtr initial;
  std::shared_ptr<const semsim::WalkIndex> index;
  {
    ScopedSpan span(tracer, "walk_index.build", setup.id(), trace);
    Meter m;
    index = std::make_shared<const semsim::WalkIndex>(
        semsim::WalkIndex::Build(*in.graph, walks));
    times->walk_s = m.wall_s();
    times->walk_cpu_s = m.cpu_s();
  }
  {
    ScopedSpan span(tracer, "engine_snapshot.create", setup.id(), trace);
    Meter m;
    SEMSIM_ASSIGN_OR_RETURN(
        initial,
        EngineSnapshot::Create(in.graph, in.semantic, index, options, 1));
    times->create_s = m.wall_s();
  }
  {
    ScopedSpan span(tracer, "batch_engine.create", setup.id(), trace);
    SEMSIM_ASSIGN_OR_RETURN(
        BatchQueryEngine engine,
        BatchQueryEngine::CreateFromSnapshot(initial, threads));
    stack->engine.emplace(std::move(engine));
  }
  if (spec.eager_inverted) {
    ScopedSpan span(tracer, "single_source.build", setup.id(), trace);
    initial->InvertedIndex(&stack->engine->pool());
  }
  {
    ScopedSpan span(tracer, "snapshot_manager.create", setup.id(), trace);
    SEMSIM_ASSIGN_OR_RETURN(SnapshotManager manager,
                            SnapshotManager::Create(std::move(initial)));
    stack->manager.emplace(std::move(manager));
  }
  {
    ScopedSpan span(tracer, "query_service.create", setup.id(), trace);
    semsim::QueryServiceOptions sopt;
    sopt.queue_capacity = 256;
    SEMSIM_ASSIGN_OR_RETURN(
        QueryService service,
        QueryService::Create(&*stack->engine, &*stack->manager, sopt));
    stack->service.emplace(std::move(service));
  }
  times->total_s = total.wall_s();
  return Status::OK();
}

/// What the writer probe did, one entry per published batch.
struct WriterLog {
  std::vector<double> update_ms;  // batch start → Publish returned
  std::vector<double> rebuild_ms;
  std::vector<double> dwi_ms;
  std::vector<double> publish_ms;
  std::vector<double> resampled;
};

/// One write: the next edge batch → new graph version → suffix-resampled
/// snapshot → Publish. `graph` advances to the new version.
Status WriteOnce(const WorkloadSpec& spec, const Inputs& in,
                 UpdateStream& updates, std::shared_ptr<const Hin>* graph,
                 DynamicWalkIndex& dyn, SnapshotManager& manager,
                 Tracer* tracer, WriterLog* log) {
  const uint64_t trace = tracer ? tracer->NewTrace() : 0;
  const Clock::time_point start = Clock::now();
  ScopedSpan batch_span(tracer, "update.batch", 0, trace);
  std::vector<NodeId> dirty;
  std::shared_ptr<const Hin> next;
  {
    ScopedSpan span(tracer, "hin.rebuild", batch_span.id(), trace);
    const Clock::time_point t = Clock::now();
    SEMSIM_ASSIGN_OR_RETURN(
        Hin built, ApplyBatch(**graph, updates.Next(), spec.update_edge_label,
                              &dirty));
    next = std::make_shared<const Hin>(std::move(built));
    log->rebuild_ms.push_back(Ms(Clock::now() - t));
  }
  EngineSnapshotPtr snap;
  {
    ScopedSpan span(tracer, "dynamic_walk_index.update", batch_span.id(),
                    trace);
    const Clock::time_point t = Clock::now();
    size_t resampled = 0;
    SEMSIM_ASSIGN_OR_RETURN(
        snap, dyn.UpdateToSnapshot(next, dirty, in.semantic, SnapshotOptions(),
                                   manager.NextVersion(), &resampled));
    log->dwi_ms.push_back(Ms(Clock::now() - t));
    log->resampled.push_back(static_cast<double>(resampled));
  }
  {
    ScopedSpan span(tracer, "snapshot_manager.publish", batch_span.id(),
                    trace);
    const Clock::time_point t = Clock::now();
    SEMSIM_RETURN_NOT_OK(manager.Publish(std::move(snap)));
    log->publish_ms.push_back(Ms(Clock::now() - t));
  }
  log->update_ms.push_back(Ms(Clock::now() - start));
  *graph = std::move(next);
  return Status::OK();
}

/// Everything the client observed in the window.
struct ClientLog {
  uint64_t sent = 0, ok = 0, failed = 0, degraded = 0;
  std::vector<double> latency_ms;  // OK responses
  std::vector<Clock::time_point> done_at;  // when each of them resolved
  std::vector<double> queue_ms, run_ms, resolve_ms;
  std::vector<double> record_us;          // span recording, per request
  std::vector<Recorded> sample;           // replayed for bit-identity
  std::vector<Recorded> first_requests;   // fingerprint inputs
  std::set<uint64_t> versions;            // every version that answered
  semsim::McQueryStats stats;
  uint64_t pair_items = 0, source_items = 0;
  ScoreAudit audit;
  Clock::time_point last_done;
};

struct Inflight {
  uint64_t index = 0;
  QueryRequestKind kind = QueryRequestKind::kPairs;
  Clock::time_point sent;
  std::optional<QueryRequest> copy;  // kept for sampled requests only
  semsim::Future<QueryResponse> future;
};

/// Drives the window: a closed loop with `spec.outstanding` requests in
/// flight. Latency runs from Submit to the moment the client sees the
/// future resolve.
void DriveClient(const WorkloadSpec& spec, QueryService& service,
                 RequestStream& stream, Clock::time_point end, Tracer* tracer,
                 ClientLog* log) {
  std::deque<Inflight> inflight;
  uint64_t next_index = 0;

  auto submit = [&] {
    QueryRequest req = stream.Next();
    Inflight f;
    f.index = next_index++;
    f.kind = req.kind;
    if (f.index < kFingerprintRequests || f.index % kSampleStride == 0) {
      f.copy = req;
    }
    f.sent = Clock::now();
    f.future = service.Submit(std::move(req));
    inflight.push_back(std::move(f));
    ++log->sent;
  };

  auto complete = [&](Inflight& f) {
    QueryResponse resp = f.future.Take();
    const Clock::time_point done = Clock::now();
    log->last_done = done;
    if (f.copy && f.index < kFingerprintRequests) {
      Recorded rec;
      rec.request_index = f.index;
      rec.request = *f.copy;
      log->first_requests.push_back(std::move(rec));
    }
    if (resp.snapshot_version != 0) log->versions.insert(resp.snapshot_version);
    if (!resp.status.ok()) {
      ++log->failed;
      return;
    }
    ++log->ok;
    if (resp.degraded) ++log->degraded;
    log->audit.Add(resp);
    log->stats.Merge(resp.stats);
    if (f.kind == QueryRequestKind::kPairs) {
      log->pair_items += resp.scores.size();
    } else {
      log->source_items += resp.topk.size();
    }
    const double latency = Ms(done - f.sent);
    const double queue = resp.queue_seconds * 1e3;
    const double run = resp.run_seconds * 1e3;
    log->latency_ms.push_back(latency);
    log->done_at.push_back(done);
    log->queue_ms.push_back(queue);
    log->run_ms.push_back(run);
    log->resolve_ms.push_back(latency - queue - run);
    if (tracer != nullptr) {
      // The spans are recorded after `done`, and the closed loop frees
      // the slot only once this returns, so their cost is in no latency.
      // It is timed instead.
      const Clock::time_point t = Clock::now();
      const uint64_t trace = tracer->NewTrace();
      const uint64_t parent =
          tracer->Record("client.request", 0, trace, f.sent, done);
      // Queue and run, placed back to back from the send; clipped so
      // rounding never puts a child past its parent.
      auto at = [&](double ms) {
        return std::min(done, f.sent + Seconds(ms / 1e3));
      };
      tracer->Record("query_service.queue", parent, trace, f.sent, at(queue));
      tracer->Record("query_service.run", parent, trace, at(queue),
                     at(queue + run));
      log->record_us.push_back(Ms(Clock::now() - t) * 1e3);
    }
    if (f.copy && f.index % kSampleStride == 0 && !resp.degraded &&
        log->sample.size() < kSampleCap) {
      Recorded rec;
      rec.request_index = f.index;
      rec.request = std::move(*f.copy);
      rec.version = resp.snapshot_version;
      rec.scores = std::move(resp.scores);
      rec.topk = std::move(resp.topk);
      log->sample.push_back(std::move(rec));
    }
  };

  while (true) {
    while (inflight.size() < static_cast<size_t>(spec.outstanding) &&
           Clock::now() < end) {
      submit();
    }
    if (inflight.empty()) break;
    complete(inflight.front());
    inflight.pop_front();
  }
}

/// Closed-loop, one-at-a-time requests from their own stream, before the
/// window: fills the caches and seeds the service's cost model. Returns
/// the number of requests sent.
int WarmUp(QueryService& service, const SnapshotManager& manager,
           RequestStream& stream) {
  const Clock::time_point deadline = Clock::now() + Seconds(kWarmupMaxSeconds);
  int sent = 0;
  size_t last_size = 0;
  while (Clock::now() < deadline) {
    for (int i = 0; i < kWarmupRequests; ++i) {
      service.Submit(stream.Next()).Take();
    }
    sent += kWarmupRequests;
    const semsim::ConcurrentPairCache* cache =
        manager.Acquire()->normalizer_cache();
    if (cache == nullptr) break;
    const double capacity = static_cast<double>(cache->capacity());
    const size_t size = cache->size();
    if (size >= kWarmCacheFill * capacity ||
        static_cast<double>(size) - static_cast<double>(last_size) <
            kWarmCacheGrowth * capacity) {
      break;
    }
    last_size = size;
  }
  return sent;
}

/// Registry histogram as a vector of per-bucket counts.
std::vector<double> HistogramCounts(const std::string& name,
                                    std::vector<double>* bounds) {
  semsim::MetricsSnapshot snap = semsim::MetricsRegistry::Global().Snapshot();
  auto it = snap.histograms.find(name);
  if (it == snap.histograms.end()) return {};
  *bounds = it->second.bounds;
  const std::vector<uint64_t>& counts = it->second.counts;
  return std::vector<double>(counts.begin(), counts.end());
}

/// One metric line of the result.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

double Per(double num, double den) { return den > 0 ? num / den : 0; }

/// The correctness checks: no invalid score, every response served by
/// the one published snapshot (nothing else is published during the
/// window), and every sampled answer recomputed bit-identically on it.
/// Also computes the answer fingerprint.
void CheckAnswers(const BatchQueryEngine& engine, const EngineSnapshot& snap,
                  const ClientLog& client, CheckReport* report,
                  uint64_t* answers_fp) {
  for (uint64_t v : client.versions) {
    if (v != snap.version()) {
      report->Fail(&report->unknown_versions,
                   "response served by unpublished version " +
                       std::to_string(v));
    }
  }
  if (client.audit.invalid > 0) {
    report->invalid_scores += client.audit.invalid;
    if (report->first_error.empty()) {
      report->first_error = "NaN, infinite or negative score";
    }
  }
  std::vector<Recorded> requests = client.first_requests;
  std::sort(requests.begin(), requests.end(),
            [](const Recorded& a, const Recorded& b) {
              return a.request_index < b.request_index;
            });
  std::vector<Recorded> answers;
  for (const Recorded& rec : requests) {
    answers.push_back(Recompute(engine, snap, rec));
  }
  *answers_fp = AnswersFingerprint(answers);
  ReplayOn(engine, snap, client.sample, report);
}

int Run(const Args& args) {
  const WorkloadSpec* spec_ptr = FindWorkload(args.workload);
  if (spec_ptr == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *spec_ptr;
  const int nproc = CpuCount();
  // The scheduler joins the pool, so pool + client stay within nproc
  // busy threads.
  const int threads = std::max(1, nproc - 1);
  std::unique_ptr<Tracer> tracer_owner =
      args.trace ? std::make_unique<Tracer>() : nullptr;
  Tracer* tracer = tracer_owner.get();
  // Where a run's wall time goes, phase by phase (printed, not a metric).
  std::string phases;
  Clock::time_point phase_start = Clock::now();
  auto mark = [&](const char* phase) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s=%.2fs", phases.empty() ? "" : " ",
                  phase, Ms(Clock::now() - phase_start) / 1e3);
    phases += buf;
    phase_start = Clock::now();
  };

  // A percentile needs ten samples beyond it; a run too short for one
  // prints its metrics for the record but no result.
  bool tails_supported = true;
  auto Tail = [&tails_supported](const std::vector<double>& values,
                                 double q) {
    const std::optional<double> p = SupportedPercentile(values, q);
    if (p) return *p;
    tails_supported = false;
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
  };

  Inputs in;
  if (Status st = MakeInputs(spec, &in); !st.ok()) {
    std::fprintf(stderr, "inputs: %s\n", st.ToString().c_str());
    return 2;
  }
  mark("inputs");

  // ---- set-up, kSetupReps times; the last stack serves -----------------
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack_owner;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack_owner.reset();
    stack_owner = std::make_unique<Stack>();
    SetupTimes times;
    if (Status st = BuildStack(spec, in, args.seed, threads, tracer,
                               stack_owner.get(), &times);
        !st.ok()) {
      std::fprintf(stderr, "setup: %s\n", st.ToString().c_str());
      return 2;
    }
    setups.push_back(times);
  }
  Stack& stack = *stack_owner;
  QueryService& service = *stack.service;
  BatchQueryEngine& engine = *stack.engine;
  SnapshotManager& manager = *stack.manager;

  RequestStream warmup(spec, in.hot, SubSeed(args.seed, kWarmupStream));
  mark("setup");
  const int warmup_requests = WarmUp(service, manager, warmup);
  mark("warmup");

  // ---- the measured window ----------------------------------------------
  std::vector<double> chunk_bounds;
  const std::vector<double> chunks_before =
      HistogramCounts("semsim_pool_chunk_seconds", &chunk_bounds);
  RequestStream requests(spec, in.hot, SubSeed(args.seed, kRequestStream));
  ClientLog client;

  const Meter window;
  const Clock::time_point start = window.t0;
  DriveClient(spec, service, requests, start + Seconds(args.seconds), tracer,
              &client);
  const double wall_s = window.wall_s();
  const double cpu_s = window.cpu_s();
  const double served_s =
      std::chrono::duration<double>(client.last_done - start).count();
  const double rss_mb = PeakRssMb();
  // p90 and throughput of each sub-window (by completion time; the last
  // one also takes the drain after the window closed). The reported
  // figures are their medians, so a host stall of a few seconds moves
  // one sub-window, not the run's figure.
  std::vector<double> sub_p90, sub_rps;
  {
    const double sub_s = args.seconds / kSubWindows;
    std::vector<std::vector<double>> latencies(kSubWindows);
    for (size_t i = 0; i < client.latency_ms.size(); ++i) {
      const double t =
          std::chrono::duration<double>(client.done_at[i] - start).count();
      const int w = std::min(kSubWindows - 1, static_cast<int>(t / sub_s));
      latencies[w].push_back(client.latency_ms[i]);
    }
    for (int w = 0; w < kSubWindows; ++w) {
      const double length =
          w + 1 < kSubWindows ? sub_s : served_s - w * sub_s;
      sub_p90.push_back(Tail(latencies[w], 0.90));
      sub_rps.push_back(Per(static_cast<double>(latencies[w].size()), length));
    }
  }

  mark("window");
  const EngineSnapshotPtr serving = manager.Acquire();
  std::vector<Metric> layer;
  if (tracer != nullptr) {
    // ---- per-layer probes, after the window -----------------------------
    const semsim::SemSimMcOptions mc = serving->options().query.mc;
    semsim::Rng probe_rng(SubSeed(args.seed, kProbeStream));
    ZipfSampler zipf(in.hot.size(), 0.8);
    auto draw = [&] { return in.hot[zipf.Sample(probe_rng)]; };

    // Replay of the recorded sample, straight into the batch engine.
    std::vector<double> replay_ms;
    Meter replay_meter;
    for (const Recorded& rec : client.sample) {
      ScopedSpan span(tracer, "batch_engine.replay", 0, tracer->NewTrace());
      const Clock::time_point t = Clock::now();
      Recompute(engine, *serving, rec);
      replay_ms.push_back(Ms(Clock::now() - t));
    }
    const double replay_parallelism =
        Per(replay_meter.cpu_s(), replay_meter.wall_s());

    // Serial IS estimator on Zipf pairs.
    std::vector<double> query_us;
    for (size_t i = 0; i < kProbePairs; ++i) {
      const NodeId u = draw(), v = draw();
      const Clock::time_point t = Clock::now();
      serving->estimator().Query(u, v, mc);
      query_us.push_back(Ms(Clock::now() - t) * 1e3);
    }

    // First use of the inverted index on a fresh snapshot of the serving
    // artifacts: the cost the first top-k after a swap pays, and what
    // eager set-up moves into setup_s.
    semsim::EngineSnapshotOptions lazy = serving->options();
    lazy.eager_single_source = false;
    semsim::Result<EngineSnapshotPtr> fresh_or =
        EngineSnapshot::Create(serving->graph_ptr(), serving->semantic_ptr(),
                               serving->walk_index_ptr(), lazy, 0);
    if (!fresh_or.ok()) {
      std::fprintf(stderr, "probe: %s\n", fresh_or.status().ToString().c_str());
      return 2;
    }
    const EngineSnapshotPtr fresh = std::move(fresh_or).value();
    double first_use_ms = 0, build_s = 0, build_cpu_s = 0;
    {
      const uint64_t trace = tracer->NewTrace();
      ScopedSpan first(tracer, "engine_snapshot.inverted_first_use", 0, trace);
      const Clock::time_point t = Clock::now();
      {
        ScopedSpan span(tracer, "single_source.build", first.id(), trace);
        Meter m;
        fresh->InvertedIndex(&engine.pool());
        build_s = m.wall_s();
        build_cpu_s = m.cpu_s();
      }
      {
        ScopedSpan span(tracer, "single_source.first_topk", first.id(), trace);
        const std::vector<NodeId> source = {draw()};
        engine.TopKBatch(*fresh, source, kTopK, mc);
      }
      first_use_ms = Ms(Clock::now() - t);
    }
    const semsim::SingleSourceIndex& inverted = fresh->InvertedIndex();
    std::vector<NodeId> sources;
    for (size_t i = 0; i < kProbeSources; ++i) sources.push_back(draw());
    semsim::QueryScratch scratch;
    std::vector<double> row;
    std::vector<double> meetings_ms, meetings, sweep_ms, topk_ms;
    for (NodeId s : sources) {
      const uint64_t trace = tracer->NewTrace();
      {
        ScopedSpan span(tracer, "single_source.meetings", 0, trace);
        const Clock::time_point t = Clock::now();
        inverted.FirstMeetingsInto(s, scratch);
        meetings_ms.push_back(Ms(Clock::now() - t));
        meetings.push_back(static_cast<double>(scratch.meetings.size()));
      }
      // An untimed sweep first, so the timed sweep and top-k below both
      // find this source's normalizers in the shared cache and differ
      // only by the select.
      inverted.SemSimFromInto(s, fresh->estimator(), mc, scratch, row);
      {
        ScopedSpan span(tracer, "single_source.sweep", 0, trace);
        const Clock::time_point t = Clock::now();
        inverted.SemSimFromInto(s, fresh->estimator(), mc, scratch, row);
        sweep_ms.push_back(Ms(Clock::now() - t));
      }
      {
        ScopedSpan span(tracer, "single_source.topk", 0, trace);
        const Clock::time_point t = Clock::now();
        inverted.TopKFrom(s, kTopK, fresh->estimator(), mc, scratch);
        topk_ms.push_back(Ms(Clock::now() - t));
      }
    }
    const double inverted_mb = inverted.MemoryBytes() / (1024.0 * 1024.0);

    // Writer probe: edge batches through the write path on a private
    // maintainer and manager, so the serving snapshot never changes.
    WriterLog writes;
    {
      DynamicWalkIndex dyn = DynamicWalkIndex::Build(
          in.graph.get(), WalkOptions(args.seed, threads));
      semsim::Result<EngineSnapshotPtr> v1 = dyn.UpdateToSnapshot(
          in.graph, {}, in.semantic, SnapshotOptions(), 1);
      semsim::Result<SnapshotManager> m =
          v1.ok() ? SnapshotManager::Create(std::move(v1).value())
                  : semsim::Result<SnapshotManager>(v1.status());
      if (!m.ok()) {
        std::fprintf(stderr, "probe: %s\n", m.status().ToString().c_str());
        return 2;
      }
      UpdateStream updates(in.hot, SubSeed(args.seed, kProbeStream));
      std::shared_ptr<const Hin> graph = in.graph;
      for (int b = 0; b < kProbeWrites; ++b) {
        if (Status st =
                WriteOnce(spec, in, updates, &graph, dyn, *m, tracer, &writes);
            !st.ok()) {
          std::fprintf(stderr, "probe: %s\n", st.ToString().c_str());
          return 2;
        }
      }
    }

    // Pool chunks of the window and the probes (the probes add the
    // pool's index builds).
    std::vector<double> bounds_after;
    std::vector<double> chunks =
        HistogramCounts("semsim_pool_chunk_seconds", &bounds_after);
    for (size_t i = 0; i < chunks.size() && i < chunks_before.size(); ++i) {
      chunks[i] -= chunks_before[i];
    }

    // ---- the layer-sum check -------------------------------------------
    const std::vector<Span> spans = tracer->Spans();
    const CoverageReport coverage = CheckCoverage(
        spans, {"setup", "update.batch", "engine_snapshot.inverted_first_use"});
    std::printf("trace: %zu spans, %zu decomposed parents, max unaccounted "
                "%.4f (%s), child overflows %zu, bound %.2f\n",
                spans.size(), coverage.parents_checked,
                coverage.max_unaccounted_share, coverage.worst.c_str(),
                coverage.child_overflows, kSpanBound);
    if (coverage.max_unaccounted_share > kSpanBound ||
        coverage.child_overflows > 0) {
      std::fprintf(stderr, "layer spans do not add up to their parents\n");
      return 1;
    }
    if (!args.trace_out.empty() && !tracer->WriteJson(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 2;
    }

    std::vector<double> walk_s, walk_par, create_s;
    for (const SetupTimes& t : setups) {
      walk_s.push_back(t.walk_s);
      walk_par.push_back(Per(t.walk_cpu_s, t.walk_s));
      create_s.push_back(t.create_s);
    }
    const semsim::ConcurrentPairCache* cache = serving->normalizer_cache();
    const double items =
        static_cast<double>(client.pair_items + client.source_items);
    const double mib = 1024.0 * 1024.0;
    layer = {
        {"query_service.queue_ms_p50", Median(client.queue_ms), "ms"},
        {"query_service.queue_ms_p99", Tail(client.queue_ms, 0.99), "ms"},
        {"query_service.run_ms_p50", Median(client.run_ms), "ms"},
        {"query_service.run_ms_p99", Tail(client.run_ms, 0.99), "ms"},
        {"query_service.resolve_ms_p50", Median(client.resolve_ms), "ms"},
        {"client.latency_ms_p50", Median(client.latency_ms), "ms"},
        {"client.latency_ms_p99", Tail(client.latency_ms, 0.99), "ms"},
        {"batch_engine.replay_ms_p50", Median(replay_ms), "ms"},
        {"batch_engine.parallelism", replay_parallelism, "cpu/wall"},
        {"mc_semsim.query_us_p50", Median(query_us), "us"},
        {"mc_semsim.normalizers_per_pair",
         Per(static_cast<double>(client.stats.normalizers_computed), items),
         "count"},
        {"mc_semsim.pruned_walk_ratio",
         Per(client.stats.pruned_walks, client.stats.met_walks), "share"},
        {"mc_semsim.sem_pruned_ratio",
         Per(static_cast<double>(client.stats.sem_pruned_queries),
             static_cast<double>(client.pair_items)),
         "share"},
        {"mc_semsim.met_walks_per_item", Per(client.stats.met_walks, items),
         "count"},
        {"mc_semsim.scores_above_one",
         static_cast<double>(client.audit.above_one), "count"},
        {"concurrent_cache.normalizer_hit_rate",
         cache ? cache->hit_rate() : 0, "share"},
        {"concurrent_cache.evictions",
         cache ? static_cast<double>(cache->evictions()) : 0, "count"},
        {"concurrent_cache.occupancy",
         cache ? Per(cache->size(), cache->capacity()) : 0, "share"},
        {"single_source.meetings_ms_p50", Median(meetings_ms), "ms"},
        {"single_source.meetings_per_source", Median(meetings), "count"},
        {"single_source.sweep_ms_p50", Median(sweep_ms), "ms"},
        {"single_source.topk_ms_p50", Median(topk_ms), "ms"},
        {"single_source.build_s", build_s, "s"},
        {"single_source.build_parallelism", Per(build_cpu_s, build_s),
         "cpu/wall"},
        {"single_source.memory_mb", inverted_mb, "MiB"},
        {"walk_index.build_s", Median(walk_s), "s"},
        {"walk_index.build_parallelism", Median(walk_par), "cpu/wall"},
        {"walk_index.memory_mb", serving->walk_index().MemoryBytes() / mib,
         "MiB"},
        {"engine_snapshot.create_s", Median(create_s), "s"},
        {"engine_snapshot.memory_mb", serving->MemoryBytes() / mib, "MiB"},
        {"engine_snapshot.inverted_first_use_ms", first_use_ms, "ms"},
        {"hin.rebuild_ms_p50", Median(writes.rebuild_ms), "ms"},
        {"dynamic_walk_index.update_ms_p50", Median(writes.dwi_ms), "ms"},
        {"dynamic_walk_index.resampled_per_update", Median(writes.resampled),
         "count"},
        {"snapshot_manager.publish_ms_p50", Median(writes.publish_ms), "ms"},
        {"snapshot_manager.publish_ms_max",
         *std::max_element(writes.publish_ms.begin(), writes.publish_ms.end()),
         "ms"},
        {"writer.update_ms_p50", Median(writes.update_ms), "ms"},
        {"thread_pool.chunk_ms_p99",
         HistogramQuantile(bounds_after, chunks, 0.99) * 1e3, "ms"},
        {"query_scratch.reuse_rate", engine.scratch_pool().reuse_rate(),
         "share"},
        {"trace.record_us_p50", Median(client.record_us), "us"},
        {"trace.max_unaccounted_share", coverage.max_unaccounted_share,
         "share"},
    };
  }

  if (tracer != nullptr) mark("probes");

  // ---- correctness ---------------------------------------------------------
  CheckReport check;
  uint64_t answers_fp = 0;
  CheckAnswers(engine, *serving, client, &check, &answers_fp);
  mark("check");

  // ---- report ------------------------------------------------------------
  utsname host{};
  uname(&host);
  std::printf(
      "facts: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"engine_threads\": %d, "
      "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"src_sha\": \"%s\", "
      "\"host\": \"%s %s\", \"nodes\": %zu, \"edges\": %zu, "
      "\"max_in_degree\": %zu, \"walk_index_bytes\": %zu, "
      "\"snapshot_bytes\": %zu, \"window_wall_s\": %.3f, "
      "\"window_cpu_s\": %.3f, \"window_parallelism\": %.3f, "
      "\"warmup_requests\": %d}\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, nproc, threads, SERVEBENCH_BUILD_TYPE,
      args.git_sha.c_str(), args.src_sha.c_str(), host.sysname, host.machine,
      in.graph->num_nodes(), in.graph->num_edges(), in.max_in_degree,
      serving->walk_index().MemoryBytes(), serving->MemoryBytes(), wall_s,
      cpu_s, Per(cpu_s, wall_s), warmup_requests);
  std::printf("phases: %s\n", phases.c_str());
  std::printf("counts: sent=%llu ok=%llu failed=%llu degraded=%llu "
              "samples=%zu\n",
              static_cast<unsigned long long>(client.sent),
              static_cast<unsigned long long>(client.ok),
              static_cast<unsigned long long>(client.failed),
              static_cast<unsigned long long>(client.degraded),
              client.latency_ms.size());
  {
    std::vector<double> sorted = client.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    auto at = [&](double q) {
      if (sorted.empty()) return 0.0;
      return sorted[static_cast<size_t>(q * (sorted.size() - 1))];
    };
    std::printf("latency_ms: p10=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f "
                "p99=%.3f max=%.3f\n",
                at(0.1), at(0.25), at(0.5), at(0.75), at(0.9), at(0.99),
                at(1.0));
  }
  std::printf("check: replayed=%zu mismatches=%zu invalid_scores=%zu "
              "scores_above_one=%zu/%zu (max %.6g) unknown_versions=%zu "
              "versions_served=%zu answers_fingerprint=%016llx%s%s\n",
              check.replayed, check.mismatches, check.invalid_scores,
              client.audit.above_one, client.audit.scores,
              client.audit.max_score, check.unknown_versions,
              client.versions.size(),
              static_cast<unsigned long long>(answers_fp),
              check.first_error.empty() ? "" : " first_error=",
              check.first_error.c_str());

  const bool correct = check.ok() && check.replayed > 0;
  const uint64_t failed = client.sent - client.ok;
  std::vector<Metric> metrics;
  if (tracer != nullptr) {
    metrics = std::move(layer);
  } else {
    std::vector<double> setup_s;
    for (const SetupTimes& t : setups) setup_s.push_back(t.total_s);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"p50_ms", Median(client.latency_ms), "ms"},
        {"p90_ms", Median(sub_p90), "ms"},
        {"throughput_rps", Median(sub_rps), "1/s"},
        {"cpu_ms_per_req", Per(cpu_s * 1e3, static_cast<double>(client.ok)),
         "ms"},
        {"rss_mb", rss_mb, "MiB"},
    };
  }
  for (const Metric& m : metrics) {
    std::printf("metric: %-42s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!tails_supported) {
    std::fprintf(stderr,
                 "too few responses (%zu) for every percentile: run longer\n",
                 client.latency_ms.size());
    return 3;
  }
  std::printf("%s\n",
              ResultJson(correct, client.sent, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  return servebench::Run(args);
}
