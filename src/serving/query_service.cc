#include "serving/query_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "serving/admission_queue.h"

namespace semsim {

namespace {

using Clock = CancelToken::Clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// One admitted request in flight: the work, its completion promise,
/// the (optional) cancellation token, and the admission timestamp the
/// queue-latency split is measured from.
struct PendingRequest {
  QueryRequest request;
  Promise<QueryResponse> promise;
  std::shared_ptr<CancelToken> token;
  Clock::time_point enqueue_time;
};

/// Number of cost-model items in a request (the unit the per-kind
/// seconds-per-item·walk EMA is normalized by).
size_t ItemCount(const QueryRequest& request) {
  return request.kind == QueryRequestKind::kPairs ? request.pairs.size()
                                                  : request.sources.size();
}

/// InvalidArgument unless every node id of `request` is below
/// `num_nodes`, the request names at least one item, a top-k request
/// asks for k ≥ 1, and a single-source request's dense rows fit in
/// kMaxSingleSourceCells.
Status ValidateRequest(const QueryRequest& request, size_t num_nodes) {
  if (ItemCount(request) == 0) {
    return Status::InvalidArgument("request names no pairs or sources");
  }
  if (request.kind == QueryRequestKind::kTopK && request.k == 0) {
    return Status::InvalidArgument("top-k request needs k >= 1");
  }
  // Divided rather than multiplied, so the product cannot overflow.
  if (request.kind == QueryRequestKind::kSingleSource && num_nodes > 0 &&
      request.sources.size() > kMaxSingleSourceCells / num_nodes) {
    return Status::InvalidArgument(
        "single-source request asks for more than kMaxSingleSourceCells "
        "score cells (sources x num_nodes)");
  }
  auto in_range = [num_nodes](NodeId id) { return id < num_nodes; };
  if (request.kind == QueryRequestKind::kPairs) {
    for (const NodePair& p : request.pairs) {
      if (!in_range(p.first) || !in_range(p.second)) {
        return Status::InvalidArgument("pair names a node id >= num_nodes");
      }
    }
  } else {
    for (NodeId s : request.sources) {
      if (!in_range(s)) {
        return Status::InvalidArgument("source is a node id >= num_nodes");
      }
    }
  }
  return Status::OK();
}

}  // namespace

struct QueryService::Impl {
  const BatchQueryEngine* engine = nullptr;
  // Optional hot-swap source; nullptr pins the service to the engine's
  // own snapshot.
  const SnapshotManager* snapshots = nullptr;
  QueryServiceOptions options;
  AdmissionQueue<PendingRequest> queue;
  std::atomic<bool> stopping{false};
  std::atomic<bool> shut_down{false};
  // Per-kind cost model (seconds per item·walk), scheduler-thread only.
  double rate[3];
  std::thread scheduler;

  struct MetricSites {
    Counter* submitted;
    Counter* admitted;
    Counter* rejected;
    Counter* completed;
    Counter* degraded;
    Counter* cancelled;
    Counter* deadline_exceeded;
    Counter* invalid;
    Gauge* queue_depth;
    Histogram* queue_seconds;
    Histogram* run_seconds;
    Histogram* latency_seconds;
  };
  MetricSites metrics;

  explicit Impl(const QueryServiceOptions& opts)
      : options(opts), queue(opts.queue_capacity) {
    for (double& r : rate) r = opts.initial_seconds_per_item_walk;
    MetricsRegistry& reg = MetricsRegistry::Global();
    metrics = MetricSites{
        reg.GetCounter("semsim_service_submitted_total"),
        reg.GetCounter("semsim_service_admitted_total"),
        reg.GetCounter("semsim_service_rejected_total"),
        reg.GetCounter("semsim_service_completed_total"),
        reg.GetCounter("semsim_service_degraded_total"),
        reg.GetCounter("semsim_service_cancelled_total"),
        reg.GetCounter("semsim_service_deadline_exceeded_total"),
        reg.GetCounter("semsim_service_invalid_total"),
        reg.GetGauge("semsim_service_queue_depth"),
        reg.GetHistogram("semsim_service_queue_seconds"),
        reg.GetHistogram("semsim_service_run_seconds"),
        reg.GetHistogram("semsim_service_latency_seconds"),
    };
  }

  void Run();
  QueryResponse Execute(PendingRequest& item);
};

void QueryService::Impl::Run() {
  while (true) {
    std::optional<PendingRequest> item = queue.Pop();
    if (!item.has_value()) break;  // closed and drained
    // Delay-only site: holds a popped request between dequeue and
    // execution, widening the race against Shutdown's `stopping` flag
    // and against caller-side cancellation.
    SEMSIM_FAILPOINT("query_service/scheduler");
    metrics.queue_depth->Sub(1);
    QueryResponse resp;
    if (stopping.load(std::memory_order_acquire)) {
      resp.status = Status::Cancelled("service shutting down");
      resp.queue_seconds = Seconds(Clock::now() - item->enqueue_time);
      metrics.cancelled->Add(1);
    } else {
      resp = Execute(*item);
    }
    metrics.queue_seconds->Observe(resp.queue_seconds);
    metrics.latency_seconds->Observe(resp.queue_seconds + resp.run_seconds);
    item->promise.Set(std::move(resp));
  }
}

QueryResponse QueryService::Impl::Execute(PendingRequest& item) {
  SEMSIM_TRACE_SPAN("semsim_service_execute");
  const QueryRequest& request = item.request;
  const CancelToken* token = item.token.get();
  QueryResponse resp;
  resp.queue_seconds = Seconds(Clock::now() - item.enqueue_time);

  // The RCU read-side acquire: one snapshot serves this whole request.
  // A Publish() landing after this line is invisible to the request;
  // the old snapshot stays alive until `snap` releases it below.
  EngineSnapshotPtr snap =
      snapshots != nullptr ? snapshots->Acquire() : engine->snapshot();
  resp.snapshot_version = snap->version();

  // Validated against the snapshot that will serve the request: the
  // node count can change across publishes, and an out-of-range id would
  // index past the walk index and the per-node tables.
  Status valid = ValidateRequest(request, snap->graph().num_nodes());
  if (!valid.ok()) {
    resp.status = std::move(valid);
    metrics.invalid->Add(1);
    return resp;
  }

  const int full = EffectiveWalkBudget(snap->options().query.mc,
                                       snap->walk_index().num_walks());
  resp.full_walk_budget = full;

  // Fast-fail before any work: a request whose deadline already passed
  // while queued (or that was cancelled while queued) never reaches the
  // engine — that is what keeps queued latency from compounding under
  // overload.
  if (token != nullptr && token->ShouldStop()) {
    resp.status = token->ToStatus();
    (resp.status.code() == StatusCode::kCancelled ? metrics.cancelled
                                                  : metrics.deadline_exceeded)
        ->Add(1);
    return resp;
  }

  // Degradation decision: project the full-budget run time through the
  // per-kind cost model; when it exceeds the headroom-scaled remaining
  // deadline, shrink the walk budget just enough to fit (never below
  // the floor).
  const size_t items = ItemCount(request);
  const size_t kind_idx = static_cast<size_t>(request.kind);
  int budget = full;
  if (token != nullptr && token->has_deadline() && items > 0) {
    const double budget_seconds =
        Seconds(token->remaining()) * options.degradation_headroom;
    const double per_walk = rate[kind_idx] * static_cast<double>(items);
    const double projected = per_walk * static_cast<double>(full);
    if (projected > budget_seconds) {
      if (!request.allow_degradation) {
        resp.status = Status::DeadlineExceeded(
            "projected run time exceeds the deadline and degradation is "
            "disabled");
        metrics.deadline_exceeded->Add(1);
        return resp;
      }
      budget = static_cast<int>(budget_seconds / per_walk);
      // Floor first, then cap: min_walk_budget may exceed a small index.
      budget = std::min(full, std::max(options.min_walk_budget, budget));
    }
  }
  resp.effective_walk_budget = budget;
  resp.degraded = budget < full;

  SemSimMcOptions mc = snap->options().query.mc;
  mc.walk_budget = budget;
  mc.cancel = token;

  Timer run_timer;
  switch (request.kind) {
    case QueryRequestKind::kPairs: {
      BatchResult<double> r = engine->QueryBatch(*snap, request.pairs, mc);
      resp.scores = std::move(r.values);
      resp.stats = r.stats;
      break;
    }
    case QueryRequestKind::kSingleSource: {
      BatchResult<std::vector<double>> r =
          engine->SingleSourceBatch(*snap, request.sources, mc);
      resp.rows = std::move(r.values);
      resp.stats = r.stats;
      break;
    }
    case QueryRequestKind::kTopK: {
      BatchResult<std::vector<Scored>> r =
          engine->TopKBatch(*snap, request.sources, request.k, mc);
      resp.topk = std::move(r.values);
      resp.stats = r.stats;
      break;
    }
  }
  resp.run_seconds = run_timer.ElapsedSeconds();
  metrics.run_seconds->Observe(resp.run_seconds);

  // The token may have fired mid-run; the engine unwound cooperatively
  // and whatever landed in the value vectors is partial. Report the
  // token's status and drop the values.
  if (token != nullptr && (token->cancelled() || token->deadline_exceeded())) {
    resp.status = token->ToStatus();
    resp.scores.clear();
    resp.rows.clear();
    resp.topk.clear();
    resp.effective_walk_budget = 0;
    resp.degraded = false;
    (resp.status.code() == StatusCode::kCancelled ? metrics.cancelled
                                                  : metrics.deadline_exceeded)
        ->Add(1);
    return resp;
  }

  // Completed run: refresh the cost model and report the band the
  // effective budget still guarantees.
  if (items > 0 && resp.run_seconds > 0) {
    const double observed = resp.run_seconds / (static_cast<double>(items) *
                                                static_cast<double>(budget));
    rate[kind_idx] = options.cost_ema_alpha * observed +
                     (1.0 - options.cost_ema_alpha) * rate[kind_idx];
  }
  resp.error_band = WalkBudgetErrorBand(budget, options.band_delta,
                                        snap->graph().num_nodes());
  metrics.completed->Add(1);
  if (resp.degraded) metrics.degraded->Add(1);
  return resp;
}

Result<QueryService> QueryService::Create(const BatchQueryEngine* engine,
                                          const QueryServiceOptions& options) {
  return Create(engine, /*snapshots=*/nullptr, options);
}

Result<QueryService> QueryService::Create(const BatchQueryEngine* engine,
                                          const SnapshotManager* snapshots,
                                          const QueryServiceOptions& options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine is required");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (options.min_walk_budget < 1) {
    return Status::InvalidArgument("min_walk_budget must be >= 1");
  }
  if (!(options.degradation_headroom > 0 &&
        options.degradation_headroom <= 1)) {
    return Status::InvalidArgument(
        "degradation_headroom must lie in (0,1]");
  }
  if (!(options.band_delta > 0 && options.band_delta < 1)) {
    return Status::InvalidArgument("band_delta must lie in (0,1)");
  }
  if (!(options.cost_ema_alpha > 0 && options.cost_ema_alpha <= 1)) {
    return Status::InvalidArgument("cost_ema_alpha must lie in (0,1]");
  }
  if (!(options.initial_seconds_per_item_walk > 0)) {
    return Status::InvalidArgument(
        "initial_seconds_per_item_walk must be > 0");
  }
  auto impl = std::make_unique<Impl>(options);
  impl->engine = engine;
  impl->snapshots = snapshots;
  Impl* raw = impl.get();
  impl->scheduler = std::thread([raw] { raw->Run(); });
  return QueryService(std::move(impl));
}

QueryService::QueryService(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

QueryService::QueryService(QueryService&&) noexcept = default;

QueryService& QueryService::operator=(QueryService&& other) noexcept {
  if (this != &other) {
    // The target may own a live scheduler thread; join it before its
    // Impl is destroyed.
    if (impl_ != nullptr) Shutdown();
    impl_ = std::move(other.impl_);
  }
  return *this;
}

QueryService::~QueryService() {
  if (impl_ != nullptr) Shutdown();
}

void QueryService::Shutdown() {
  Impl& impl = *impl_;
  if (impl.shut_down.exchange(true)) return;
  impl.stopping.store(true, std::memory_order_release);
  impl.queue.Close();
  // The scheduler keeps popping after Close until the queue drains; with
  // `stopping` set it fails each remaining request with kCancelled
  // instead of executing it, then exits on the drained queue.
  impl.scheduler.join();
}

Future<QueryResponse> QueryService::Submit(QueryRequest request,
                                           std::shared_ptr<CancelToken> token) {
  Impl& impl = *impl_;
  impl.metrics.submitted->Add(1);
  PendingRequest item;
  item.enqueue_time = Clock::now();
  if (request.timeout > std::chrono::nanoseconds::zero()) {
    if (token == nullptr) token = std::make_shared<CancelToken>();
    token->SetDeadline(item.enqueue_time + request.timeout);
  }
  item.request = std::move(request);
  item.token = std::move(token);
  Future<QueryResponse> future = item.promise.GetFuture();
  if (impl.stopping.load(std::memory_order_acquire)) {
    QueryResponse resp;
    resp.status = Status::FailedPrecondition("service is shut down");
    item.promise.Set(std::move(resp));
    return future;
  }
  if (!impl.queue.TryPush(item)) {
    QueryResponse resp;
    if (impl.stopping.load(std::memory_order_acquire)) {
      // Shutdown landed between the stopping check above and the push:
      // the queue is closed, not full. Report what actually happened
      // instead of a capacity rejection (the admission-queue mutex
      // orders Close()'s critical section before this failed push, so
      // a closed-queue failure always observes stopping == true).
      resp.status = Status::FailedPrecondition("service is shut down");
    } else {
      // Explicit rejection: bounded queue, bounded queueing delay. The
      // caller sees kResourceExhausted immediately instead of a request
      // that ages out in line.
      impl.metrics.rejected->Add(1);
      resp.status = Status::ResourceExhausted(
          "admission queue full (capacity " +
          std::to_string(impl.queue.capacity()) + ")");
    }
    item.promise.Set(std::move(resp));
    return future;
  }
  impl.metrics.admitted->Add(1);
  impl.metrics.queue_depth->Add(1);
  return future;
}

size_t QueryService::queue_depth() const { return impl_->queue.size(); }

const QueryServiceOptions& QueryService::options() const {
  return impl_->options;
}

const BatchQueryEngine& QueryService::engine() const {
  return *impl_->engine;
}

}  // namespace semsim
