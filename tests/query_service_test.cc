#include "serving/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/future.h"
#include "common/metrics.h"
#include "core/batch_engine.h"
#include "core/single_source.h"
#include "core/walk_index.h"
#include "datasets/aminer_gen.h"
#include "datasets/figure1.h"
#include "serving/admission_queue.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;

std::vector<NodePair> MakePairs(size_t num_nodes, size_t count) {
  std::vector<NodePair> pairs;
  Rng rng(17);
  for (size_t i = 0; i < count; ++i) {
    NodeId u = static_cast<NodeId>(i % num_nodes);
    NodeId v = static_cast<NodeId>(rng.NextIndex(num_nodes));
    pairs.push_back(NodePair{u, v});
  }
  return pairs;
}

struct Fixture {
  Dataset dataset;
  LinMeasure lin;
  WalkIndex index;
  BatchQueryEngine engine;

  explicit Fixture(Dataset d, int num_walks = 60, int walk_length = 10,
                   int threads = 2)
      : dataset(std::move(d)),
        lin(&dataset.context),
        index(WalkIndex::Build(dataset.graph,
                               WalkIndexOptions{num_walks, walk_length, 11,
                                                false})),
        engine(MakeEngine(threads)) {}

  BatchQueryEngine MakeEngine(int threads) {
    EngineSnapshotOptions opt;
    opt.query.mc = SemSimMcOptions{0.6, 0.05};
    return Unwrap(BatchQueryEngine::CreateFromSnapshot(
        Unwrap(EngineSnapshot::Create(Unowned(&dataset.graph), Unowned(&lin),
                                      Unowned(&index), opt, /*version=*/0)),
        threads));
  }
};

Fixture AminerFixture() {
  AminerOptions opt;
  opt.num_authors = 220;
  opt.seed = 3;
  return Fixture(Unwrap(GenerateAminer(opt)));
}

// ---- CancelToken ----------------------------------------------------------

TEST(CancelToken, StartsInertAndRecordsObservation) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.deadline_exceeded());
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_EQ(token.polls(), 1u);
  EXPECT_FALSE(token.observed());
  EXPECT_TRUE(token.ToStatus().ok());

  token.Cancel();
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_TRUE(token.observed());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancelToken, ExpiredDeadlineFiresAndCancelWins) {
  CancelToken token;
  token.SetDeadline(CancelToken::Clock::now() - milliseconds(1));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_TRUE(token.deadline_exceeded());
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LE(token.remaining().count(), 0);
  // An explicit Cancel takes precedence in the reported status.
  token.Cancel();
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);
}

TEST(CancelToken, FutureDeadlineDoesNotFireEarly) {
  CancelToken token;
  token.SetTimeout(std::chrono::hours(1));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_GT(token.remaining(), std::chrono::minutes(59));
}

// ---- Future / Promise / Latch ---------------------------------------------

TEST(Future, ResolvesAcrossThreads) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  EXPECT_TRUE(future.valid());
  EXPECT_FALSE(future.Ready());
  EXPECT_FALSE(future.WaitFor(milliseconds(1)));
  std::thread producer([&] { promise.Set(42); });
  future.Wait();
  EXPECT_TRUE(future.Ready());
  EXPECT_EQ(future.Get(), 42);
  EXPECT_EQ(future.Take(), 42);
  producer.join();
  EXPECT_TRUE(promise.fulfilled());
}

TEST(Latch, ReleasesWaitersAtZero) {
  Latch latch(2);
  EXPECT_FALSE(latch.TryWait());
  latch.CountDown();
  EXPECT_FALSE(latch.TryWait());
  latch.CountDown();
  EXPECT_TRUE(latch.TryWait());
  latch.Wait();  // returns immediately
}

// ---- AdmissionQueue -------------------------------------------------------

TEST(AdmissionQueue, OverflowBoundaryIsExact) {
  AdmissionQueue<int> queue(3);
  EXPECT_EQ(queue.capacity(), 3u);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    EXPECT_TRUE(queue.TryPush(v)) << i;
  }
  int overflow = 99;
  EXPECT_FALSE(queue.TryPush(overflow));
  EXPECT_EQ(overflow, 99);  // rejected item is left untouched
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.Pop(), 0);
  int refill = 3;
  EXPECT_TRUE(queue.TryPush(refill));  // slot freed by Pop
}

TEST(AdmissionQueue, CloseDrainsThenSignalsEnd) {
  AdmissionQueue<int> queue(4);
  int a = 1, b = 2;
  ASSERT_TRUE(queue.TryPush(a));
  ASSERT_TRUE(queue.TryPush(b));
  queue.Close();
  int c = 3;
  EXPECT_FALSE(queue.TryPush(c));  // closed queues admit nothing
  EXPECT_EQ(queue.Pop(), 1);
  EXPECT_EQ(queue.Pop(), 2);
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(AdmissionQueue, DrainNowReturnsEverythingQueued) {
  AdmissionQueue<int> queue(4);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_TRUE(queue.TryPush(v));
  }
  std::vector<int> drained = queue.DrainNow();
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.size(), 0u);
}

// ---- Cooperative cancellation inside the estimators -----------------------

TEST(Cancellation, PreFiredTokenIsObservedMidSweep) {
  Fixture f = AminerFixture();
  CancelToken token;
  token.Cancel();
  SemSimMcOptions mc{0.6, 0.05};
  mc.cancel = &token;

  // Pair path: the per-walk poll sees the fired token on walk 0 and the
  // loop contributes nothing.
  SemSimMcEstimator estimator(&f.dataset.graph, &f.lin, &f.index);
  McQueryStats stats;
  estimator.Query(1, 2, mc, &stats);
  EXPECT_TRUE(token.observed());
  EXPECT_EQ(stats.met_walks, 0);

  // Sweep path: same token, same observation guarantee.
  size_t polls_before = token.polls();
  SingleSourceIndex inverted =
      SingleSourceIndex::Build(f.index, f.dataset.graph.num_nodes());
  QueryScratch scratch;
  std::vector<double> row;
  inverted.SemSimFromInto(1, estimator, mc, scratch, row);
  EXPECT_GT(token.polls(), polls_before);
  // The sweep unwound before accumulating: only the self-score survives.
  for (NodeId v = 0; v < row.size(); ++v) {
    if (v != 1) {
      EXPECT_EQ(row[v], 0.0) << "v=" << v;
    }
  }
}

TEST(Cancellation, ParallelForSkipsChunksOnceFired) {
  ThreadPool pool(4);
  CancelToken token;
  token.Cancel();
  std::atomic<int> executed{0};
  pool.ParallelFor(0, 1000,
                   [&](size_t, size_t) { executed.fetch_add(1); }, &token);
  EXPECT_EQ(executed.load(), 0);
  EXPECT_TRUE(token.observed());
}

// ---- QueryService ---------------------------------------------------------

TEST(QueryService, CreateValidatesOptions) {
  Fixture f = AminerFixture();
  EXPECT_EQ(QueryService::Create(nullptr).status().code(),
            StatusCode::kInvalidArgument);
  QueryServiceOptions bad;
  bad.queue_capacity = 0;
  EXPECT_FALSE(QueryService::Create(&f.engine, bad).ok());
  bad = QueryServiceOptions{};
  bad.min_walk_budget = 0;
  EXPECT_FALSE(QueryService::Create(&f.engine, bad).ok());
  bad = QueryServiceOptions{};
  bad.degradation_headroom = 1.5;
  EXPECT_FALSE(QueryService::Create(&f.engine, bad).ok());
  bad = QueryServiceOptions{};
  bad.band_delta = 1.0;
  EXPECT_FALSE(QueryService::Create(&f.engine, bad).ok());
  bad = QueryServiceOptions{};
  bad.cost_ema_alpha = 0.0;
  EXPECT_FALSE(QueryService::Create(&f.engine, bad).ok());
  bad = QueryServiceOptions{};
  bad.initial_seconds_per_item_walk = 0.0;
  EXPECT_FALSE(QueryService::Create(&f.engine, bad).ok());
  EXPECT_TRUE(QueryService::Create(&f.engine).ok());
}

// The determinism contract: an undegraded service response is
// bit-identical to the equivalent direct engine call, for every request
// kind.
TEST(QueryService, UndegradedResponsesMatchEngineBitForBit) {
  Fixture f = AminerFixture();
  QueryService service = Unwrap(QueryService::Create(&f.engine));

  QueryRequest pairs_req;
  pairs_req.kind = QueryRequestKind::kPairs;
  pairs_req.pairs = MakePairs(f.dataset.graph.num_nodes(), 120);
  QueryRequest sweep_req;
  sweep_req.kind = QueryRequestKind::kSingleSource;
  sweep_req.sources = {0, 3, 7};
  QueryRequest topk_req;
  topk_req.kind = QueryRequestKind::kTopK;
  topk_req.sources = {1, 4};
  topk_req.k = 5;

  Future<QueryResponse> pf = service.Submit(pairs_req);
  Future<QueryResponse> sf = service.Submit(sweep_req);
  Future<QueryResponse> tf = service.Submit(topk_req);

  const QueryResponse& pr = pf.Get();
  ASSERT_TRUE(pr.ok()) << pr.status.ToString();
  EXPECT_EQ(pr.scores, f.engine.QueryBatch(pairs_req.pairs).values);
  EXPECT_EQ(pr.effective_walk_budget, pr.full_walk_budget);
  EXPECT_EQ(pr.full_walk_budget, f.index.num_walks());
  EXPECT_FALSE(pr.degraded);
  EXPECT_GT(pr.error_band, 0.0);
  EXPECT_GT(pr.stats.met_walks, 0);
  EXPECT_GE(pr.queue_seconds, 0.0);
  EXPECT_GT(pr.run_seconds, 0.0);

  const QueryResponse& sr = sf.Get();
  ASSERT_TRUE(sr.ok()) << sr.status.ToString();
  EXPECT_EQ(sr.rows, f.engine.SingleSourceBatch(sweep_req.sources).values);

  const QueryResponse& tr = tf.Get();
  ASSERT_TRUE(tr.ok()) << tr.status.ToString();
  auto want_topk = f.engine.TopKBatch(topk_req.sources, topk_req.k).values;
  ASSERT_EQ(tr.topk.size(), want_topk.size());
  for (size_t i = 0; i < want_topk.size(); ++i) {
    ASSERT_EQ(tr.topk[i].size(), want_topk[i].size());
    for (size_t j = 0; j < want_topk[i].size(); ++j) {
      EXPECT_EQ(tr.topk[i][j].node, want_topk[i][j].node);
      EXPECT_EQ(tr.topk[i][j].score, want_topk[i][j].score);
    }
  }
}

// A request is checked against the snapshot that serves it before it
// reaches the engine. The first case is the historical crash: one pair
// naming node 1<<28 indexed past the flat tables and took the
// scheduler thread (and the process) down.
TEST(QueryService, MalformedRequestsFailWithInvalidArgument) {
  Fixture f = AminerFixture();
  QueryService service = Unwrap(QueryService::Create(&f.engine));
  const NodeId n = static_cast<NodeId>(f.dataset.graph.num_nodes());
  Counter* invalid =
      MetricsRegistry::Global().GetCounter("semsim_service_invalid_total");
  const uint64_t before = invalid->Value();

  std::vector<QueryRequest> bad;
  QueryRequest huge_id;
  huge_id.kind = QueryRequestKind::kPairs;
  huge_id.pairs = {NodePair{0, 1}, NodePair{1u << 28, 0}};
  bad.push_back(huge_id);
  QueryRequest first_past_end;
  first_past_end.kind = QueryRequestKind::kPairs;
  first_past_end.pairs = {NodePair{0, n}};
  bad.push_back(first_past_end);
  QueryRequest empty_pairs;
  empty_pairs.kind = QueryRequestKind::kPairs;
  bad.push_back(empty_pairs);
  QueryRequest empty_sources;
  empty_sources.kind = QueryRequestKind::kSingleSource;
  bad.push_back(empty_sources);
  QueryRequest bad_source;
  bad_source.kind = QueryRequestKind::kSingleSource;
  bad_source.sources = {0, n};
  bad.push_back(bad_source);
  QueryRequest k_zero;
  k_zero.kind = QueryRequestKind::kTopK;
  k_zero.sources = {0};
  k_zero.k = 0;
  bad.push_back(k_zero);
  QueryRequest topk_bad_source;
  topk_bad_source.kind = QueryRequestKind::kTopK;
  topk_bad_source.sources = {1u << 28};
  bad.push_back(topk_bad_source);
  // Valid ids, but the dense rows would need more than
  // kMaxSingleSourceCells doubles: rejected before any row is allocated.
  QueryRequest too_many_cells;
  too_many_cells.kind = QueryRequestKind::kSingleSource;
  too_many_cells.sources.assign(kMaxSingleSourceCells / n + 1, 0);
  bad.push_back(too_many_cells);

  for (size_t i = 0; i < bad.size(); ++i) {
    QueryResponse resp = service.Submit(bad[i]).Get();
    EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument)
        << "request " << i << ": " << resp.status.ToString();
    EXPECT_TRUE(resp.scores.empty());
    EXPECT_TRUE(resp.rows.empty());
    EXPECT_TRUE(resp.topk.empty());
  }
  EXPECT_EQ(invalid->Value() - before, bad.size());

  // The scheduler survived and still serves valid traffic bit-exactly,
  // including the last valid id.
  QueryRequest good;
  good.kind = QueryRequestKind::kPairs;
  good.pairs = {NodePair{0, 1}, NodePair{n - 1, 0}};
  QueryResponse resp = service.Submit(good).Get();
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.scores, f.engine.QueryBatch(good.pairs).values);
  EXPECT_EQ(invalid->Value() - before, bad.size());
}

// A pessimistic cost prior forces the projection over any realistic
// deadline, so the degradation decision is deterministic: the budget
// collapses to the floor, and the degraded values are bit-identical to
// a direct engine call with the same walk_budget override.
TEST(QueryService, DegradedRunShrinksBudgetAndStaysDeterministic) {
  Fixture f = AminerFixture();
  QueryServiceOptions sopt;
  sopt.min_walk_budget = 10;
  sopt.initial_seconds_per_item_walk = 1.0;  // ludicrous prior: ~1s per walk
  QueryService service = Unwrap(QueryService::Create(&f.engine, sopt));

  QueryRequest req;
  req.kind = QueryRequestKind::kPairs;
  req.pairs = MakePairs(f.dataset.graph.num_nodes(), 60);
  req.timeout = std::chrono::seconds(30);  // plenty of real time

  QueryResponse resp = service.Submit(req).Take();
  ASSERT_TRUE(resp.ok()) << resp.status.ToString();
  EXPECT_TRUE(resp.degraded);
  EXPECT_EQ(resp.effective_walk_budget, sopt.min_walk_budget);
  EXPECT_EQ(resp.full_walk_budget, f.index.num_walks());

  SemSimMcOptions budgeted = f.engine.snapshot()->options().query.mc;
  budgeted.walk_budget = sopt.min_walk_budget;
  EXPECT_EQ(resp.scores, f.engine.QueryBatch(req.pairs, budgeted).values);

  // The degraded band is wider than the full-budget band would be.
  double full_band =
      WalkBudgetErrorBand(f.index.num_walks(), sopt.band_delta,
                          f.dataset.graph.num_nodes());
  EXPECT_GT(resp.error_band, full_band);
}

// Same infeasible projection, degradation disabled: the request fails
// upfront with kDeadlineExceeded instead of running at a reduced budget.
TEST(QueryService, InfeasibleDeadlineWithoutDegradationFailsFast) {
  Fixture f = AminerFixture();
  QueryServiceOptions sopt;
  sopt.initial_seconds_per_item_walk = 1.0;
  QueryService service = Unwrap(QueryService::Create(&f.engine, sopt));

  QueryRequest req;
  req.kind = QueryRequestKind::kPairs;
  req.pairs = MakePairs(f.dataset.graph.num_nodes(), 60);
  req.timeout = std::chrono::seconds(30);
  req.allow_degradation = false;

  QueryResponse resp = service.Submit(req).Take();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.scores.empty());
  EXPECT_EQ(resp.effective_walk_budget, 0);
  EXPECT_FALSE(resp.degraded);
}

// A deadline that expires while the request is still queued fails fast
// without reaching the engine.
TEST(QueryService, DeadlineExpiredInQueueFailsBeforeRunning) {
  Fixture f = AminerFixture();
  QueryService service = Unwrap(QueryService::Create(&f.engine));

  // A long blocker request keeps the scheduler busy...
  QueryRequest blocker;
  blocker.kind = QueryRequestKind::kSingleSource;
  for (NodeId v = 0; v < f.dataset.graph.num_nodes(); ++v) {
    blocker.sources.push_back(v);
  }
  Future<QueryResponse> blocked = service.Submit(blocker);

  // ...while a nanosecond-deadline request ages out behind it.
  QueryRequest doomed;
  doomed.kind = QueryRequestKind::kPairs;
  doomed.pairs = MakePairs(f.dataset.graph.num_nodes(), 40);
  doomed.timeout = nanoseconds(1);
  QueryResponse resp = service.Submit(doomed).Take();
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(resp.scores.empty());
  EXPECT_EQ(resp.effective_walk_budget, 0);
  EXPECT_GT(resp.full_walk_budget, 0);  // reported even on failure
  EXPECT_TRUE(blocked.Take().ok());
}

TEST(QueryService, CallerTokenCancelsQueuedRequest) {
  Fixture f = AminerFixture();
  QueryService service = Unwrap(QueryService::Create(&f.engine));

  QueryRequest blocker;
  blocker.kind = QueryRequestKind::kSingleSource;
  for (int rep = 0; rep < 3; ++rep) {
    for (NodeId v = 0; v < f.dataset.graph.num_nodes(); ++v) {
      blocker.sources.push_back(v);
    }
  }
  Future<QueryResponse> blocked = service.Submit(blocker);

  auto token = std::make_shared<CancelToken>();
  QueryRequest victim;
  victim.kind = QueryRequestKind::kPairs;
  victim.pairs = MakePairs(f.dataset.graph.num_nodes(), 40);
  Future<QueryResponse> cancelled = service.Submit(victim, token);
  token->Cancel();

  QueryResponse resp = cancelled.Take();
  EXPECT_EQ(resp.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(resp.scores.empty());
  EXPECT_TRUE(token->observed());
  EXPECT_TRUE(blocked.Take().ok());
}

// Deterministic overflow: queue_capacity=1 plus a scheduler pinned on a
// caller-controlled gate means exactly one queued slot. The next submit
// after the slot fills must reject with kResourceExhausted immediately.
TEST(QueryService, FullAdmissionQueueRejectsImmediately) {
  Fixture f = AminerFixture();
  QueryServiceOptions sopt;
  sopt.queue_capacity = 1;
  QueryService service = Unwrap(QueryService::Create(&f.engine, sopt));

  // Occupy the scheduler long enough to deterministically fill the
  // queue behind it: several full single-source sweeps of the graph
  // (the caller token cuts it short once the rejection is observed).
  QueryRequest blocker;
  blocker.kind = QueryRequestKind::kSingleSource;
  for (int rep = 0; rep < 5; ++rep) {
    for (NodeId v = 0; v < f.dataset.graph.num_nodes(); ++v) {
      blocker.sources.push_back(v);
    }
  }
  auto blocker_token = std::make_shared<CancelToken>();
  Future<QueryResponse> running = service.Submit(blocker, blocker_token);

  // Wait for the scheduler to pop the blocker: once the queue is empty
  // and the blocker is executing, exactly one admission slot is free.
  while (service.queue_depth() != 0 && !running.Ready()) {
    std::this_thread::yield();
  }
  ASSERT_FALSE(running.Ready()) << "blocker finished before the test filled "
                                   "the queue";

  QueryRequest small;
  small.kind = QueryRequestKind::kPairs;
  small.pairs = MakePairs(f.dataset.graph.num_nodes(), 10);
  Future<QueryResponse> queued = service.Submit(small);
  ASSERT_EQ(service.queue_depth(), 1u);

  // The queue now holds one admitted request → the next one bounces.
  QueryResponse rejected = service.Submit(small).Take();
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status.ToString().find("capacity 1"), std::string::npos)
      << rejected.status.ToString();

  blocker_token->Cancel();  // unblock quickly
  EXPECT_EQ(running.Take().status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(queued.Take().ok());
}

TEST(QueryService, ShutdownFailsQueuedRequestsAndStopsAdmission) {
  Fixture f = AminerFixture();
  QueryService service = Unwrap(QueryService::Create(&f.engine));

  QueryRequest blocker;
  blocker.kind = QueryRequestKind::kSingleSource;
  for (NodeId v = 0; v < f.dataset.graph.num_nodes(); ++v) {
    blocker.sources.push_back(v);
  }
  Future<QueryResponse> running = service.Submit(blocker);
  QueryRequest queued_req;
  queued_req.kind = QueryRequestKind::kPairs;
  queued_req.pairs = MakePairs(f.dataset.graph.num_nodes(), 20);
  std::vector<Future<QueryResponse>> queued;
  for (int i = 0; i < 4; ++i) queued.push_back(service.Submit(queued_req));

  service.Shutdown();
  service.Shutdown();  // idempotent

  // Whatever had not started when Shutdown hit resolves kCancelled; the
  // in-flight request may legitimately have completed first.
  for (Future<QueryResponse>& fut : queued) {
    QueryResponse resp = fut.Take();
    EXPECT_TRUE(resp.ok() ||
                resp.status.code() == StatusCode::kCancelled)
        << resp.status.ToString();
  }
  running.Wait();

  QueryResponse late = service.Submit(queued_req).Take();
  EXPECT_EQ(late.status.code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace semsim
