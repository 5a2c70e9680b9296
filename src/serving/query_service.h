#ifndef SEMSIM_SERVING_QUERY_SERVICE_H_
#define SEMSIM_SERVING_QUERY_SERVICE_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/future.h"
#include "common/result.h"
#include "core/batch_engine.h"
#include "core/topk.h"
#include "graph/hin.h"
#include "serving/snapshot_manager.h"

namespace semsim {

/// What a request asks the engine to run.
enum class QueryRequestKind {
  kPairs,         // pair scores over `pairs`
  kSingleSource,  // one dense score row per node in `sources`
  kTopK,          // top-`k` per node in `sources`
};

/// Cap on the dense score cells (sources × num_nodes) one kSingleSource
/// request may ask for: 2^26 doubles, 512 MiB of rows. A larger request
/// fails with InvalidArgument before any row is allocated.
inline constexpr size_t kMaxSingleSourceCells = size_t{1} << 26;

/// One unit of work submitted to the service. Exactly one of
/// pairs/sources is consulted, per `kind`.
struct QueryRequest {
  QueryRequestKind kind = QueryRequestKind::kPairs;
  std::vector<NodePair> pairs;
  std::vector<NodeId> sources;
  size_t k = 10;
  /// Deadline, measured from Submit(). zero = none. Propagated into the
  /// estimator loops through the request's CancelToken.
  std::chrono::nanoseconds timeout{0};
  /// When the deadline cannot fit a full-budget run, shrink the walk
  /// budget (graceful degradation) instead of failing the request.
  /// false = run full-budget and let the deadline abort mid-run (or
  /// fail upfront when the projection already rules the run out).
  bool allow_degradation = true;
};

/// The service's answer. `status` is the source of truth: values are
/// meaningful only when ok(). The budget/band fields implement the
/// degradation contract — a response that ran at full budget
/// (effective == full, degraded == false) is bit-identical to the
/// equivalent direct BatchQueryEngine call.
struct QueryResponse {
  Status status;
  std::vector<double> scores;             // kPairs
  std::vector<std::vector<double>> rows;  // kSingleSource
  std::vector<std::vector<Scored>> topk;  // kTopK
  McQueryStats stats;
  /// The walk budget the engine's own options would run with.
  int full_walk_budget = 0;
  /// The budget this request actually ran with (0 when it never ran).
  int effective_walk_budget = 0;
  bool degraded = false;
  /// Hoeffding band of the effective budget (WalkBudgetErrorBand); only
  /// set on ok() responses.
  double error_band = 0;
  /// Per-stage latency split, also observed into the service histograms.
  double queue_seconds = 0;
  double run_seconds = 0;
  /// Version of the EngineSnapshot this request ran against. Exactly
  /// one snapshot serves the whole request (RCU: acquired once before
  /// the budget projection, released after the response is built), so
  /// a response can never mix two versions. 0 = the request never
  /// reached the engine, or the service runs without a SnapshotManager
  /// on an unversioned engine snapshot.
  uint64_t snapshot_version = 0;

  bool ok() const { return status.ok(); }
};

struct QueryServiceOptions {
  /// Bound of the admission queue; a full queue rejects with
  /// kResourceExhausted instead of queueing unboundedly.
  size_t queue_capacity = 64;
  /// Floor of walk-budget degradation: requests are never degraded
  /// below this many walks (past it the band is too wide to be useful —
  /// the request fails with kDeadlineExceeded mid-run instead).
  int min_walk_budget = 8;
  /// Fraction of the remaining deadline the scheduler budgets for the
  /// run itself; the rest absorbs projection error and response
  /// plumbing.
  double degradation_headroom = 0.8;
  /// Confidence parameter δ of the reported error band.
  double band_delta = 0.05;
  /// EMA smoothing of the per-kind cost model (seconds per item·walk).
  double cost_ema_alpha = 0.3;
  /// Cost prior before the first completed request of a kind. The
  /// default is deliberately small: a cold service degrades nothing
  /// until it has observed real costs. Tests raise it to force the
  /// degradation path deterministically.
  double initial_seconds_per_item_walk = 1e-7;
};

/// Deadline-aware async façade over BatchQueryEngine: the serving story
/// of DESIGN.md §12. Requests are admitted into a bounded queue (full →
/// immediate kResourceExhausted), executed FIFO by a dedicated
/// scheduler thread on the engine's pool, and resolved through
/// Future<QueryResponse>. Each request may carry a deadline; the
/// scheduler propagates it into the estimator loops via a cooperative
/// CancelToken and — when the projected full-budget run would blow the
/// deadline — shrinks the per-pair walk budget instead of failing,
/// reporting the effective budget and the widened error band.
///
/// Determinism contract: a request that runs to completion at full
/// budget returns values bit-identical to the equivalent direct
/// BatchQueryEngine call (enforced by the service tests and by the
/// semsim_stress replay of every OK response); a degraded request is
/// bit-identical to the direct call with the same walk_budget override.
class QueryService {
 public:
  /// Validating factory. `engine` (from
  /// BatchQueryEngine::CreateFromSnapshot) must be non-null and outlive
  /// the service. Every request runs against the
  /// engine's own snapshot.
  static Result<QueryService> Create(const BatchQueryEngine* engine,
                                     const QueryServiceOptions& options = {});

  /// Hot-swap form: the scheduler acquires the current snapshot from
  /// `snapshots` once per request, so a Publish() between two requests
  /// moves the service onto the new version without a restart, while a
  /// request already running finishes on the version it started with.
  /// `engine` supplies the pool + scratch arenas; both pointers must
  /// outlive the service.
  static Result<QueryService> Create(const BatchQueryEngine* engine,
                                     const SnapshotManager* snapshots,
                                     const QueryServiceOptions& options = {});

  QueryService(QueryService&&) noexcept;
  QueryService& operator=(QueryService&&) noexcept;
  ~QueryService();

  /// Submits a request; never blocks. The future resolves when the
  /// request completes, degrades, misses its deadline, or is rejected
  /// (a full admission queue resolves it immediately with
  /// kResourceExhausted). A request naming a node id outside the
  /// snapshot that would serve it, no pairs/sources, or k == 0 resolves
  /// with kInvalidArgument and never reaches the engine. `token` lets the caller cancel the request
  /// (and observe that the cancellation was seen); when the request has
  /// a timeout and no token is given, the service arms an internal one.
  Future<QueryResponse> Submit(QueryRequest request,
                               std::shared_ptr<CancelToken> token = nullptr);

  /// Stops admitting, fails everything still queued with kCancelled,
  /// and joins the scheduler thread. Idempotent; the destructor calls
  /// it.
  void Shutdown();

  /// Requests currently queued (admitted, not yet started).
  size_t queue_depth() const;

  const QueryServiceOptions& options() const;
  const BatchQueryEngine& engine() const;

 private:
  struct Impl;
  explicit QueryService(std::unique_ptr<Impl> impl);

  std::unique_ptr<Impl> impl_;
};

}  // namespace semsim

#endif  // SEMSIM_SERVING_QUERY_SERVICE_H_
