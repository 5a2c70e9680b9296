// Serving benchmark: QueryService under nominal and overload traffic.
//
// Phase 0 enforces the determinism contract (undegraded service answers
// are bit-identical to direct BatchQueryEngine calls). Phase 1 measures
// closed-loop nominal latency — one request in flight at a time, no
// deadlines — and derives the service's capacity. Phase 2 offers an
// open-loop burst at 2x capacity with per-request deadlines; the service
// must keep admitted-request latency bounded by visibly shedding load
// (admission rejections, walk-budget degradation, deadline failures)
// instead of letting the queue age out. Phase 3 reloads the engine
// snapshot under closed-loop traffic: a background thread rebuilds and
// publishes fresh snapshots through a SnapshotManager while requests
// keep flowing — zero failures allowed, every response tagged with
// exactly one published version, and swap latency is reported.
//
// Emits BENCH_service.json, gated by `ci/compare_bench.py --service`.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/batch_engine.h"
#include "core/engine_snapshot.h"
#include "core/walk_index.h"
#include "serving/query_service.h"
#include "serving/snapshot_manager.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {
namespace {

using Clock = CancelToken::Clock;

std::vector<NodePair> MakePairs(size_t num_nodes, size_t count,
                                uint64_t seed) {
  std::vector<NodePair> pairs;
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    pairs.push_back(NodePair{static_cast<NodeId>(rng.NextIndex(num_nodes)),
                             static_cast<NodeId>(rng.NextIndex(num_nodes))});
  }
  return pairs;
}

double PercentileMs(std::vector<double> seconds, double q) {
  if (seconds.empty()) return 0;
  std::sort(seconds.begin(), seconds.end());
  size_t idx = static_cast<size_t>(q * static_cast<double>(seconds.size()));
  if (idx >= seconds.size()) idx = seconds.size() - 1;
  return seconds[idx] * 1e3;
}

int Run(int argc, char** argv) {
  const int threads = bench::ParseIntFlag(argc, argv, "--threads", 2);
  const std::string dataset_name =
      bench::ParseStringFlag(argc, argv, "--dataset", "small");
  const int nominal_requests =
      bench::ParseIntFlag(argc, argv, "--requests", 120);
  const int burst_requests =
      bench::ParseIntFlag(argc, argv, "--burst-requests", 2 * 120);
  const size_t pairs_per_request = static_cast<size_t>(
      bench::ParseIntFlag(argc, argv, "--pairs", 256));

  Dataset dataset =
      dataset_name == "tiny" ? bench::AminerTiny() : bench::AminerSmall();
  bench::Banner("service: deadline-aware serving under overload", dataset, 1);

  LinMeasure lin(&dataset.context);
  WalkIndex index = WalkIndex::Build(
      dataset.graph, WalkIndexOptions{150, 10, 11, false});

  EngineSnapshotOptions eopt;
  eopt.query.mc = SemSimMcOptions{0.6, 0.05};
  BatchQueryEngine engine = bench::Unwrap(BatchQueryEngine::CreateFromSnapshot(
      bench::Unwrap(EngineSnapshot::Create(Unowned(&dataset.graph),
                                           Unowned(&lin), Unowned(&index),
                                           eopt, 0)),
      threads));

  QueryServiceOptions sopt;
  sopt.queue_capacity = 4;
  QueryService service = bench::Unwrap(QueryService::Create(&engine, sopt));

  bench::JsonBenchDoc doc("service");
  doc.Add("dataset", dataset.name)
      .Add("num_nodes", dataset.graph.num_nodes())
      .Add("threads", threads)
      .Add("num_walks", index.num_walks())
      .Add("pairs_per_request", pairs_per_request)
      .Add("queue_capacity", sopt.queue_capacity);

  const size_t n = dataset.graph.num_nodes();

  // ---- Phase 0: determinism differential --------------------------------
  // Undegraded service responses must be bit-identical to direct engine
  // calls — same pairs, same options, same caches.
  bool determinism_ok = true;
  for (int i = 0; i < 20; ++i) {
    QueryRequest req;
    req.kind = QueryRequestKind::kPairs;
    req.pairs = MakePairs(n, pairs_per_request, 100 + i);
    QueryResponse resp = service.Submit(req).Take();
    if (!resp.ok() || resp.degraded ||
        resp.scores != engine.QueryBatch(req.pairs).values) {
      determinism_ok = false;
      std::printf("DETERMINISM VIOLATION at differential request %d (%s)\n",
                  i, resp.status.ToString().c_str());
    }
  }
  std::printf("determinism: service vs direct engine bit-identical: %s\n",
              determinism_ok ? "yes" : "NO");

  // ---- Phase 1: closed-loop nominal -------------------------------------
  std::vector<double> nominal_lat;
  int nominal_rejected = 0;
  for (int i = 0; i < nominal_requests; ++i) {
    QueryRequest req;
    req.kind = QueryRequestKind::kPairs;
    req.pairs = MakePairs(n, pairs_per_request, 1000 + i);
    QueryResponse resp = service.Submit(req).Take();
    if (resp.status.code() == StatusCode::kResourceExhausted) {
      ++nominal_rejected;
    } else if (resp.ok()) {
      nominal_lat.push_back(resp.queue_seconds + resp.run_seconds);
    }
  }
  double nominal_mean = 0;
  for (double s : nominal_lat) nominal_mean += s;
  nominal_mean /= nominal_lat.empty() ? 1 : nominal_lat.size();
  const double nominal_p50 = PercentileMs(nominal_lat, 0.50);
  const double nominal_p99 = PercentileMs(nominal_lat, 0.99);
  const double capacity_qps = nominal_mean > 0 ? 1.0 / nominal_mean : 0;
  std::printf("nominal (closed loop, %zu ok / %d sent): p50=%.3fms "
              "p99=%.3fms capacity=%.1f req/s rejected=%d\n",
              nominal_lat.size(), nominal_requests, nominal_p50, nominal_p99,
              capacity_qps, nominal_rejected);

  // ---- Phase 2: open-loop burst at 2x capacity --------------------------
  // Deadline: a modest multiple of nominal p99 (floored for timer
  // granularity). A successful response always finishes inside its
  // deadline, which is what bounds admitted-request latency under
  // overload.
  const double deadline_ms = std::max(1.0, 1.2 * nominal_p99);
  const auto deadline = std::chrono::nanoseconds(
      static_cast<int64_t>(deadline_ms * 1e6));
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(nominal_mean * 1e9 / 2.0));  // 2x offered load
  const double offered_qps = 2.0 * capacity_qps;

  std::vector<Future<QueryResponse>> futures;
  futures.reserve(static_cast<size_t>(burst_requests));
  std::vector<QueryRequest> reqs(static_cast<size_t>(burst_requests));
  for (int i = 0; i < burst_requests; ++i) {
    reqs[i].kind = QueryRequestKind::kPairs;
    reqs[i].pairs = MakePairs(n, pairs_per_request, 5000 + i);
    reqs[i].timeout = deadline;
  }
  Clock::time_point next = Clock::now();
  for (int i = 0; i < burst_requests; ++i) {
    std::this_thread::sleep_until(next);
    next += interval;
    futures.push_back(service.Submit(std::move(reqs[i])));
  }

  std::vector<double> burst_lat;
  int burst_ok = 0, burst_degraded = 0, burst_rejected = 0;
  int burst_deadline_exceeded = 0, burst_other = 0;
  for (Future<QueryResponse>& fut : futures) {
    QueryResponse resp = fut.Take();
    switch (resp.status.code()) {
      case StatusCode::kOk:
        ++burst_ok;
        if (resp.degraded) ++burst_degraded;
        burst_lat.push_back(resp.queue_seconds + resp.run_seconds);
        break;
      case StatusCode::kResourceExhausted:
        ++burst_rejected;
        break;
      case StatusCode::kDeadlineExceeded:
        ++burst_deadline_exceeded;
        break;
      default:
        ++burst_other;
        break;
    }
  }
  const double burst_p50 = PercentileMs(burst_lat, 0.50);
  const double burst_p99 = PercentileMs(burst_lat, 0.99);
  const double p99_ratio = nominal_p99 > 0 ? burst_p99 / nominal_p99 : 0;
  const int shed = burst_rejected + burst_degraded + burst_deadline_exceeded;
  std::printf("burst (open loop, %.1f req/s offered, deadline=%.2fms): "
              "ok=%d (degraded=%d) rejected=%d deadline_exceeded=%d "
              "other=%d\n",
              offered_qps, deadline_ms, burst_ok, burst_degraded,
              burst_rejected, burst_deadline_exceeded, burst_other);
  std::printf("burst admitted-request latency: p50=%.3fms p99=%.3fms "
              "(%.2fx nominal p99); load visibly shed on %d requests\n",
              burst_p50, burst_p99, p99_ratio, shed);

  // ---- Phase 3: hot reload under load -----------------------------------
  // Closed-loop traffic against a hot-swap service while a background
  // thread rebuilds the snapshot (fresh sampling seed each time) and
  // publishes it. The contract under test: zero failed queries, every
  // response served wholly by one published snapshot version, and the
  // swap itself is one atomic pointer exchange (its latency is the
  // publish seam, not a service pause).
  const int reload_requests =
      bench::ParseIntFlag(argc, argv, "--reload-requests", nominal_requests);
  const int reload_swaps = bench::ParseIntFlag(argc, argv, "--swaps", 3);

  SnapshotManager manager =
      bench::Unwrap(SnapshotManager::Create(engine.snapshot()));
  QueryServiceOptions reload_sopt;
  reload_sopt.queue_capacity = 16;
  QueryService reload_service =
      bench::Unwrap(QueryService::Create(&engine, &manager, reload_sopt));

  std::vector<EngineSnapshotPtr> published = {engine.snapshot()};
  std::vector<double> swap_publish_seconds;
  std::vector<double> swap_build_seconds;
  int swap_failed = 0;
  std::atomic<bool> swaps_done{false};
  // Spread the swaps across the expected traffic window.
  const auto swap_gap = std::chrono::nanoseconds(static_cast<int64_t>(
      nominal_mean * 1e9 * reload_requests / (reload_swaps + 1)));
  std::thread swapper([&] {
    for (int s = 0; s < reload_swaps; ++s) {
      std::this_thread::sleep_for(swap_gap);
      WalkIndexOptions walks = index.options();
      walks.seed = index.options().seed + static_cast<uint64_t>(s) + 1;
      Timer build_timer;
      Result<EngineSnapshotPtr> next = EngineSnapshot::Build(
          Unowned(&dataset.graph), Unowned<SemanticMeasure>(&lin), walks,
          engine.snapshot()->options(), manager.NextVersion());
      if (!next.ok()) {
        ++swap_failed;
        continue;
      }
      swap_build_seconds.push_back(build_timer.ElapsedSeconds());
      published.push_back(next.value());
      Timer publish_timer;
      if (manager.Publish(next.value()).ok()) {
        swap_publish_seconds.push_back(publish_timer.ElapsedSeconds());
      } else {
        ++swap_failed;
      }
    }
    swaps_done.store(true, std::memory_order_release);
  });

  // Closed-loop traffic for at least --reload-requests, and in any case
  // until every swap has been published — the phase exists to overlap
  // queries with swaps, and snapshot builds can outlast a short request
  // budget. A generous cap keeps a wedged swapper from hanging the
  // bench.
  std::vector<double> reload_lat;
  std::set<uint64_t> reload_versions;
  int reload_sent = 0, reload_failed = 0;
  bool reload_versions_ok = true;
  const int reload_cap = reload_requests * 200;
  for (int i = 0;
       (i < reload_requests || !swaps_done.load(std::memory_order_acquire)) &&
       i < reload_cap;
       ++i) {
    QueryRequest req;
    req.kind = QueryRequestKind::kPairs;
    req.pairs = MakePairs(n, pairs_per_request, 9000 + i);
    QueryResponse resp = reload_service.Submit(req).Take();
    ++reload_sent;
    if (!resp.ok()) {
      ++reload_failed;
      continue;
    }
    reload_lat.push_back(resp.queue_seconds + resp.run_seconds);
    reload_versions.insert(resp.snapshot_version);
  }
  swapper.join();
  for (uint64_t v : reload_versions) {
    bool known = false;
    for (const EngineSnapshotPtr& snap : published) {
      known = known || snap->version() == v;
    }
    reload_versions_ok = reload_versions_ok && known;
  }
  double swap_publish_mean = 0, swap_publish_max = 0, swap_build_mean = 0;
  for (double s : swap_publish_seconds) {
    swap_publish_mean += s;
    swap_publish_max = std::max(swap_publish_max, s);
  }
  swap_publish_mean /=
      swap_publish_seconds.empty() ? 1 : swap_publish_seconds.size();
  for (double s : swap_build_seconds) swap_build_mean += s;
  swap_build_mean /= swap_build_seconds.empty() ? 1 : swap_build_seconds.size();
  const double reload_p50 = PercentileMs(reload_lat, 0.50);
  const double reload_p99 = PercentileMs(reload_lat, 0.99);
  std::printf("reload (closed loop, %d requests, %zu swaps published): "
              "failed=%d versions_served=%zu versions_ok=%s\n",
              reload_sent, swap_publish_seconds.size(), reload_failed,
              reload_versions.size(), reload_versions_ok ? "yes" : "NO");
  std::printf("reload latency: p50=%.3fms p99=%.3fms; swap build "
              "mean=%.3fms, publish mean=%.3fms max=%.3fms\n",
              reload_p50, reload_p99, swap_build_mean * 1e3,
              swap_publish_mean * 1e3, swap_publish_max * 1e3);

  doc.Add("determinism_ok", determinism_ok ? 1 : 0)
      .Add("nominal_requests", nominal_requests)
      .Add("nominal_rejected", nominal_rejected)
      .Add("nominal_p50_ms", nominal_p50)
      .Add("nominal_p99_ms", nominal_p99)
      .Add("nominal_mean_ms", nominal_mean * 1e3)
      .Add("capacity_qps", capacity_qps)
      .Add("offered_qps", offered_qps)
      .Add("deadline_ms", deadline_ms)
      .Add("burst_requests", burst_requests)
      .Add("burst_ok", burst_ok)
      .Add("burst_degraded", burst_degraded)
      .Add("burst_rejected", burst_rejected)
      .Add("burst_deadline_exceeded", burst_deadline_exceeded)
      .Add("burst_other", burst_other)
      .Add("burst_p50_ms", burst_p50)
      .Add("burst_p99_ms", burst_p99)
      .Add("p99_ratio", p99_ratio)
      .Add("reload_requests", reload_sent)
      .Add("reload_failed", reload_failed)
      .Add("reload_swaps", swap_publish_seconds.size())
      .Add("reload_swap_failed", swap_failed)
      .Add("reload_versions_served", reload_versions.size())
      .Add("reload_versions_ok", reload_versions_ok ? 1 : 0)
      .Add("reload_p50_ms", reload_p50)
      .Add("reload_p99_ms", reload_p99)
      .Add("swap_build_mean_ms", swap_build_mean * 1e3)
      .Add("swap_publish_mean_ms", swap_publish_mean * 1e3)
      .Add("swap_publish_max_ms", swap_publish_max * 1e3);
  doc.WriteFile("BENCH_service.json");

  bench::MaybeWriteMetrics(
      bench::ParseStringFlag(argc, argv, "--metrics-out", ""));
  return 0;
}

}  // namespace
}  // namespace semsim

int main(int argc, char** argv) { return semsim::Run(argc, argv); }
