#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "core/iterative.h"
#include "core/walk_index.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

TEST(ThreadPool, CoversRangeExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool runner(threads);
    std::vector<std::atomic<int>> hits(100);
    runner.ParallelFor(0, 100, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool runner(4);
  bool called = false;
  runner.ParallelFor(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MoreThreadsThanWork) {
  ThreadPool runner(16);
  std::vector<std::atomic<int>> hits(3);
  runner.ParallelFor(0, 3, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, AutoThreadCountIsPositive) {
  ThreadPool runner(0);
  EXPECT_GE(runner.num_threads(), 1);
}

TEST(ThreadPool, ThreadCountResolutionContract) {
  // num_threads <= 0 resolves to hardware concurrency (or 1 when the
  // runtime reports 0); positive requests are taken as-is, never
  // silently truncated.
  unsigned hw = std::thread::hardware_concurrency();
  int expected_auto = hw == 0 ? 1 : static_cast<int>(hw);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0), expected_auto);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(-3), expected_auto);
  EXPECT_EQ(ThreadPool(0).num_threads(), expected_auto);
  EXPECT_EQ(ThreadPool(-1).num_threads(), expected_auto);
  for (int requested : {1, 2, 5, 16, 64}) {
    EXPECT_EQ(ThreadPool::ResolveThreadCount(requested), requested);
    EXPECT_EQ(ThreadPool(requested).num_threads(), requested);
  }
}

TEST(ThreadPool, ReusedAcrossManyCalls) {
  // The pool is persistent: many ParallelFor calls over one instance
  // must each cover their range exactly once.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(64);
    pool.ParallelFor(0, hits.size(), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "round " << round;
  }
}

TEST(ThreadPool, SkewedWorkStillCoversRangeExactlyOnce) {
  // Dynamic chunk claiming: wildly uneven per-item cost must not lose
  // or duplicate items.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(200);
  std::atomic<long> sink{0};
  pool.ParallelFor(0, hits.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      long burn = 0;
      for (size_t j = 0; j < (i % 7 == 0 ? 200000u : 10u); ++j) burn += j;
      sink.fetch_add(burn);
      hits[i].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A chunk that re-enters the pool must not deadlock; the inner call
  // degrades to inline execution.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> outer(16);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(0, outer.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      outer[i].fetch_add(1);
      pool.ParallelFor(0, 4, [&](size_t ilo, size_t ihi) {
        inner_total.fetch_add(static_cast<int>(ihi - ilo));
      });
    }
  });
  for (const auto& h : outer) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(inner_total.load(), static_cast<int>(outer.size()) * 4);
}

TEST(ThreadPool, ConcurrentSubmittersSerialize) {
  // ParallelFor from several external threads at once: submissions
  // serialize internally and every range is covered exactly once.
  ThreadPool pool(3);
  constexpr int kSubmitters = 4;
  constexpr size_t kItems = 128;
  std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kItems);
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      pool.ParallelFor(0, kItems, [&, s](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) hits[s][i].fetch_add(1);
      });
    });
  }
  for (auto& t : submitters) t.join();
  for (const auto& per : hits) {
    for (const auto& h : per) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelIterative, ResultsBitwiseIdenticalAcrossThreadCounts) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  IterativeOptions opt;
  opt.decay = 0.6;
  opt.max_iterations = 6;
  opt.semantic = &lin;
  opt.num_threads = 1;
  ScoreMatrix serial = Unwrap(ComputeIterativeScores(w.graph, opt));
  for (int threads : {2, 4}) {
    opt.num_threads = threads;
    ScoreMatrix parallel = Unwrap(ComputeIterativeScores(w.graph, opt));
    EXPECT_EQ(parallel.MaxAbsDifference(serial), 0.0)
        << "threads=" << threads;
  }
}

TEST(ParallelWalkIndex, WalksIdenticalAcrossThreadCounts) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 40;
  opt.walk_length = 10;
  opt.seed = 5;
  opt.num_threads = 1;
  WalkIndex serial = WalkIndex::Build(w.graph, opt);
  for (int threads : {2, 4}) {
    opt.num_threads = threads;
    WalkIndex parallel = WalkIndex::Build(w.graph, opt);
    for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
      for (int k = 0; k < opt.num_walks; ++k) {
        auto a = serial.Walk(v, k);
        auto b = parallel.Walk(v, k);
        for (int s = 0; s < opt.walk_length; ++s) {
          ASSERT_EQ(a[s], b[s]) << "threads=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace semsim
