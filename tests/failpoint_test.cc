#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/mapped_file.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/batch_engine.h"
#include "core/walk_index.h"
#include "serving/admission_queue.h"
#include "serving/query_service.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

/// Every test starts and ends with a clean registry; armed sites are
/// process-global state.
class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Global().DisarmAll(); }
  void TearDown() override { FailPoints::Global().DisarmAll(); }
};

// ---- registry semantics (independent of SEMSIM_FAILPOINTS: Evaluate is
// always compiled; only the macros gate) ------------------------------------

TEST_F(FailPointTest, UnarmedSiteEvaluatesOk) {
  EXPECT_FALSE(FailPoints::AnyArmed());
  EXPECT_TRUE(FailPoints::Global().Evaluate("nowhere/nothing").ok());
  EXPECT_EQ(FailPoints::Global().Hits("nowhere/nothing"), 0u);
}

TEST_F(FailPointTest, ErrorPolicyHonorsSkipAndMaxFires) {
  FailPoints& fp = FailPoints::Global();
  fp.ArmError("t/err", Status::Internal("injected"), /*skip_hits=*/2,
              /*max_fires=*/2);
  EXPECT_TRUE(FailPoints::AnyArmed());
  EXPECT_TRUE(fp.Evaluate("t/err").ok());   // hit 1: skipped
  EXPECT_TRUE(fp.Evaluate("t/err").ok());   // hit 2: skipped
  EXPECT_FALSE(fp.Evaluate("t/err").ok());  // hit 3: fire 1
  EXPECT_FALSE(fp.Evaluate("t/err").ok());  // hit 4: fire 2
  EXPECT_TRUE(fp.Evaluate("t/err").ok());   // hit 5: max_fires exhausted
  EXPECT_EQ(fp.Hits("t/err"), 5u);
  EXPECT_EQ(fp.Fires("t/err"), 2u);
}

TEST_F(FailPointTest, ErrorPolicyReturnsTheArmedStatus) {
  FailPoints& fp = FailPoints::Global();
  fp.ArmError("t/status", Status::IOError("disk on fire"));
  Status s = fp.Evaluate("t/status");
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.ToString().find("disk on fire"), std::string::npos);
}

TEST_F(FailPointTest, NthHitFiresExactlyOnce) {
  FailPoints& fp = FailPoints::Global();
  fp.ArmNthHit("t/nth", 3, Status::Internal("third"));
  EXPECT_TRUE(fp.Evaluate("t/nth").ok());
  EXPECT_TRUE(fp.Evaluate("t/nth").ok());
  EXPECT_FALSE(fp.Evaluate("t/nth").ok());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fp.Evaluate("t/nth").ok());
  EXPECT_EQ(fp.Fires("t/nth"), 1u);
}

TEST_F(FailPointTest, ProbabilityPatternIsSeedDeterministic) {
  FailPoints& fp = FailPoints::Global();
  auto pattern = [&](uint64_t seed) {
    fp.ArmProbability("t/prob", 0.5, seed, Status::Internal("maybe"));
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) fires.push_back(!fp.Evaluate("t/prob").ok());
    fp.Disarm("t/prob");
    return fires;
  };
  std::vector<bool> a = pattern(7);
  std::vector<bool> b = pattern(7);
  EXPECT_EQ(a, b);
  // Sanity: p=0.5 over 64 draws fires at least once and passes at least
  // once (probability of either extreme is 2^-64).
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST_F(FailPointTest, DelayPolicySleepsWithoutError) {
  FailPoints& fp = FailPoints::Global();
  fp.ArmDelay("t/delay", std::chrono::milliseconds(5));
  auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(fp.Evaluate("t/delay").ok());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(5));
  EXPECT_EQ(fp.Fires("t/delay"), 1u);
}

TEST_F(FailPointTest, DisarmAllClearsEverything) {
  FailPoints& fp = FailPoints::Global();
  fp.ArmError("t/a", Status::Internal("a"));
  fp.ArmDelay("t/b", std::chrono::nanoseconds(1));
  EXPECT_EQ(fp.ArmedSites().size(), 2u);
  fp.DisarmAll();
  EXPECT_FALSE(FailPoints::AnyArmed());
  EXPECT_TRUE(fp.ArmedSites().empty());
  EXPECT_TRUE(fp.Evaluate("t/a").ok());
}

TEST_F(FailPointTest, RearmingReplacesThePolicy) {
  FailPoints& fp = FailPoints::Global();
  fp.ArmError("t/rearm", Status::Internal("first"));
  EXPECT_FALSE(fp.Evaluate("t/rearm").ok());
  fp.ArmNthHit("t/rearm", 2, Status::Internal("second"));
  EXPECT_EQ(fp.Hits("t/rearm"), 0u) << "rearming resets the counters";
  EXPECT_TRUE(fp.Evaluate("t/rearm").ok());
  EXPECT_FALSE(fp.Evaluate("t/rearm").ok());
}

// ---- compiled-in sites: each armed site flips an error path ----------------
//
// Each test below demonstrates one SEMSIM_FAILPOINT site in the code
// under test taking its failure branch. When the sites are compiled out
// the macros are inert, so the whole section skips.

#if !SEMSIM_FAILPOINTS
#define SEMSIM_REQUIRE_FAILPOINTS() \
  GTEST_SKIP() << "failpoint sites compiled out (SEMSIM_FAILPOINTS=0)"
#else
#define SEMSIM_REQUIRE_FAILPOINTS() \
  do {                              \
  } while (false)
#endif

std::string WriteTempFile(const std::string& name, const std::string& bytes) {
  std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST_F(FailPointTest, SiteMappedFileOpen) {
  SEMSIM_REQUIRE_FAILPOINTS();
  std::string path = WriteTempFile("semsim_fp_open.bin", "payload");
  FailPoints::Global().ArmError("mapped_file/open",
                                Status::IOError("injected open failure"));
  auto result = MappedFile::Open(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST_F(FailPointTest, SiteMappedFileRead) {
  SEMSIM_REQUIRE_FAILPOINTS();
  std::string path = WriteTempFile("semsim_fp_read.bin", "payload");
  FailPoints::Global().ArmError("mapped_file/read",
                                Status::IOError("injected read failure"));
  auto result = MappedFile::OpenBuffered(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST_F(FailPointTest, SiteMappedFileMmapFallsBackToBuffered) {
  SEMSIM_REQUIRE_FAILPOINTS();
  std::string path = WriteTempFile("semsim_fp_mmap.bin", "fallback payload");
  FailPoints::Global().ArmError("mapped_file/mmap",
                                Status::Internal("injected mmap failure"));
  MappedFile file = Unwrap(MappedFile::Open(path));
  EXPECT_FALSE(file.mapped()) << "mmap failure must fall back, not fail";
  std::remove(path.c_str());
}

class WalkIndexSiteTest : public FailPointTest {
 protected:
  void SetUp() override {
    FailPointTest::SetUp();
    auto w = MakeSmallWorld();
    WalkIndexOptions opt;
    opt.num_walks = 6;
    opt.walk_length = 4;
    WalkIndex index = WalkIndex::Build(w.graph, opt);
    num_nodes_ = w.graph.num_nodes();
    path_ = ::testing::TempDir() + "semsim_fp_walks.widx";
    ASSERT_TRUE(index.Save(path_).ok());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    FailPointTest::TearDown();
  }
  std::string path_;
  size_t num_nodes_ = 0;
};

TEST_F(WalkIndexSiteTest, SiteWalkIndexLoadCountsTheFailure) {
  SEMSIM_REQUIRE_FAILPOINTS();
  Counter* failures = MetricsRegistry::Global().GetCounter(
      "semsim_walk_index_load_failures_total");
  uint64_t before = failures->Value();
  FailPoints::Global().ArmError("walk_index/load",
                                Status::IOError("injected load failure"));
  auto result = WalkIndex::Load(path_, num_nodes_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(failures->Value(), before + 1);
}

TEST_F(WalkIndexSiteTest, SiteWalkIndexMapCountsTheFailure) {
  SEMSIM_REQUIRE_FAILPOINTS();
  Counter* failures = MetricsRegistry::Global().GetCounter(
      "semsim_walk_index_map_failures_total");
  uint64_t before = failures->Value();
  FailPoints::Global().ArmError("walk_index/map",
                                Status::IOError("injected map failure"));
  auto result = WalkIndex::Map(path_, num_nodes_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(failures->Value(), before + 1);
}

TEST_F(WalkIndexSiteTest, SiteWalkIndexSectionFailsBothLoadPaths) {
  SEMSIM_REQUIRE_FAILPOINTS();
  // The section seam sits in the parser both Load and Map share.
  FailPoints::Global().ArmError("walk_index/section",
                                Status::IOError("injected section failure"));
  EXPECT_FALSE(WalkIndex::Load(path_, num_nodes_).ok());
  EXPECT_FALSE(WalkIndex::Map(path_, num_nodes_).ok());
  EXPECT_EQ(FailPoints::Global().Fires("walk_index/section"), 2u);
}

TEST_F(FailPointTest, SiteAdmissionQueueTryPushLeavesItemIntact) {
  SEMSIM_REQUIRE_FAILPOINTS();
  AdmissionQueue<std::string> queue(4);
  FailPoints::Global().ArmError("admission_queue/try_push",
                                Status::ResourceExhausted("injected"));
  std::string item = "precious payload";
  EXPECT_FALSE(queue.TryPush(item));
  EXPECT_EQ(item, "precious payload") << "rejected items must not be consumed";
  EXPECT_EQ(queue.size(), 0u);
  // Disarmed, the same push succeeds — the site synthesizes a full
  // queue, it does not corrupt it.
  FailPoints::Global().DisarmAll();
  EXPECT_TRUE(queue.TryPush(item));
  EXPECT_EQ(queue.size(), 1u);
}

TEST_F(FailPointTest, SiteAdmissionQueuePopDelays) {
  SEMSIM_REQUIRE_FAILPOINTS();
  AdmissionQueue<int> queue(4);
  int item = 7;
  ASSERT_TRUE(queue.TryPush(item));
  FailPoints::Global().ArmDelay("admission_queue/pop",
                                std::chrono::milliseconds(2));
  auto start = std::chrono::steady_clock::now();
  auto popped = queue.Pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(*popped, 7);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(2));
  EXPECT_EQ(FailPoints::Global().Fires("admission_queue/pop"), 1u);
}

TEST_F(FailPointTest, SiteThreadPoolDispatchIsHitPerChunk) {
  SEMSIM_REQUIRE_FAILPOINTS();
  FailPoints::Global().ArmDelay("thread_pool/dispatch",
                                std::chrono::nanoseconds(1));
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.ParallelFor(0, 64, [&](size_t lo, size_t hi) {
    sum.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(sum.load(), 64);
  EXPECT_GT(FailPoints::Global().Hits("thread_pool/dispatch"), 0u);
}

TEST_F(FailPointTest, SiteCancelShouldStopForcesCooperativeUnwind) {
  SEMSIM_REQUIRE_FAILPOINTS();
  CancelToken token;
  FailPoints::Global().ArmError("cancel/should_stop",
                                Status::Cancelled("injected stop"));
  // The poll observes a stop without the token itself firing.
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.deadline_exceeded());
  EXPECT_TRUE(token.observed());

  // Downstream effect: every ParallelFor chunk body is skipped — the
  // cooperative-unwind path the estimator loops rely on, driven without
  // arming any real deadline.
  ThreadPool pool(2);
  std::atomic<int> executed{0};
  pool.ParallelFor(
      0, 32, [&](size_t lo, size_t hi) { executed += static_cast<int>(hi - lo); },
      &token);
  EXPECT_EQ(executed.load(), 0) << "all chunk bodies must be skipped";
}

TEST_F(FailPointTest, SiteQuerySchedulerDelayIsHitPerRequest) {
  SEMSIM_REQUIRE_FAILPOINTS();
  auto w = MakeSmallWorld();
  ConstantMeasure measure;
  WalkIndexOptions wopt;
  wopt.num_walks = 8;
  wopt.walk_length = 4;
  WalkIndex walks = WalkIndex::Build(w.graph, wopt);
  BatchQueryEngine engine = Unwrap(BatchQueryEngine::CreateFromSnapshot(
      Unwrap(EngineSnapshot::Create(Unowned(&w.graph), Unowned(&measure),
                                    Unowned(&walks), EngineSnapshotOptions{},
                                    /*version=*/0))));
  QueryService service = Unwrap(QueryService::Create(&engine));

  FailPoints::Global().ArmDelay("query_service/scheduler",
                                std::chrono::nanoseconds(1));
  QueryRequest req;
  req.kind = QueryRequestKind::kPairs;
  req.pairs.push_back({w.a0, w.a1});
  QueryResponse resp = service.Submit(std::move(req)).Take();
  EXPECT_TRUE(resp.ok());
  EXPECT_EQ(FailPoints::Global().Fires("query_service/scheduler"), 1u);
  service.Shutdown();
}

}  // namespace
}  // namespace semsim
