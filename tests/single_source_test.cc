#include "core/single_source.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/mc_simrank.h"
#include "datasets/amazon_gen.h"
#include "datasets/aminer_gen.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

class SingleSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = MakeSmallWorld();
    WalkIndexOptions opt;
    opt.num_walks = 200;
    opt.walk_length = 12;
    opt.seed = 9;
    index_ = WalkIndex::Build(world_.graph, opt);
    inverted_ = SingleSourceIndex::Build(index_);
  }

  testutil::SmallWorld world_;
  WalkIndex index_;
  SingleSourceIndex inverted_;
};

TEST_F(SingleSourceTest, FirstMeetingsMatchPairwiseScan) {
  for (NodeId u = 0; u < world_.graph.num_nodes(); ++u) {
    // Collect per-(v, walk) meetings from the inverted index.
    std::vector<std::vector<int>> inverted_meet(
        world_.graph.num_nodes(),
        std::vector<int>(index_.num_walks(), -1));
    for (const auto& m : inverted_.FirstMeetings(u)) {
      inverted_meet[m.node][m.walk] = m.step;
    }
    for (NodeId v = 0; v < world_.graph.num_nodes(); ++v) {
      if (v == u) continue;
      for (int w = 0; w < index_.num_walks(); ++w) {
        ASSERT_EQ(inverted_meet[v][w], FirstMeetingStep(index_, u, v, w))
            << "u=" << u << " v=" << v << " walk=" << w;
      }
    }
  }
}

// The header's order contract: meetings grouped by node, walks
// ascending inside a node — strictly increasing in (node, walk).
void ExpectGroupedByNodeThenWalk(const SingleSourceIndex& inverted,
                                 size_t num_nodes) {
  for (NodeId u = 0; u < num_nodes; ++u) {
    std::vector<SingleSourceIndex::Meeting> meetings =
        inverted.FirstMeetings(u);
    for (size_t i = 1; i < meetings.size(); ++i) {
      const auto& a = meetings[i - 1];
      const auto& b = meetings[i];
      ASSERT_TRUE(a.node < b.node || (a.node == b.node && a.walk < b.walk))
          << "u=" << u << " at " << i << ": (" << a.node << "," << a.walk
          << ") then (" << b.node << "," << b.walk << ")";
    }
  }
}

TEST_F(SingleSourceTest, FirstMeetingsAreGroupedByNodeThenWalk) {
  ExpectGroupedByNodeThenWalk(inverted_, world_.graph.num_nodes());
}

TEST_F(SingleSourceTest, SimRankFromMatchesPairQueries) {
  for (NodeId u = 0; u < world_.graph.num_nodes(); ++u) {
    std::vector<double> scores = inverted_.SimRankFrom(u, 0.6);
    ASSERT_EQ(scores.size(), world_.graph.num_nodes());
    for (NodeId v = 0; v < world_.graph.num_nodes(); ++v) {
      EXPECT_NEAR(scores[v], McSimRankQuery(index_, u, v, 0.6), 1e-12)
          << "u=" << u << " v=" << v;
    }
  }
}

TEST_F(SingleSourceTest, SemSimFromMatchesPairQueries) {
  LinMeasure lin(&world_.context);
  SemSimMcEstimator estimator(&world_.graph, &lin, &index_);
  QueryScratch scratch;
  std::vector<double> scores;
  for (double theta : {0.0, 0.05}) {
    SemSimMcOptions opt{0.6, theta};
    for (NodeId u = 0; u < world_.graph.num_nodes(); ++u) {
      inverted_.SemSimFromInto(u, estimator, opt, scratch, scores);
      for (NodeId v = 0; v < world_.graph.num_nodes(); ++v) {
        EXPECT_NEAR(scores[v], estimator.Query(u, v, opt), 1e-10)
            << "theta=" << theta << " u=" << u << " v=" << v;
      }
    }
  }
}

TEST_F(SingleSourceTest, TopKMatchesMcTopK) {
  LinMeasure lin(&world_.context);
  SemSimMcEstimator estimator(&world_.graph, &lin, &index_);
  SemSimMcOptions opt{0.6, 0.0};
  QueryScratch scratch;
  auto fast = inverted_.TopKFrom(world_.a0, 4, estimator, opt, scratch);
  auto slow = McTopK(estimator, world_.a0, 4, opt);
  ASSERT_EQ(fast.size(), slow.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].node, slow[i].node) << "rank " << i;
    EXPECT_NEAR(fast[i].score, slow[i].score, 1e-10);
  }
}

TEST_F(SingleSourceTest, MemoryIsReported) {
  EXPECT_GT(inverted_.MemoryBytes(), 0u);
}

TEST_F(SingleSourceTest, ParallelBuildIsBitIdenticalAcrossThreadCounts) {
  // The inverted index must not depend on how construction was
  // partitioned: 1, 2, and 8 threads (more threads than partitions on
  // the 8-node world) all reproduce the serial structure byte for byte.
  uint64_t serial = inverted_.Fingerprint();
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    SingleSourceIndex parallel =
        SingleSourceIndex::Build(index_, &pool);
    EXPECT_EQ(parallel.Fingerprint(), serial) << "threads=" << threads;
    EXPECT_EQ(parallel.MemoryBytes(), inverted_.MemoryBytes());
  }
}

TEST_F(SingleSourceTest, ReusedScratchSweepsAreBitIdenticalToFreshScratch) {
  LinMeasure lin(&world_.context);
  SemSimMcEstimator estimator(&world_.graph, &lin, &index_);
  QueryScratch scratch;
  std::vector<double> out;
  for (double theta : {0.0, 0.05}) {
    SemSimMcOptions opt{0.6, theta};
    // One scratch reused across every source and both thetas — epoch
    // stamping must fully isolate the queries.
    for (NodeId u = 0; u < world_.graph.num_nodes(); ++u) {
      McQueryStats fresh_stats, scratch_stats;
      QueryScratch fresh_scratch;
      std::vector<double> fresh;
      inverted_.SemSimFromInto(u, estimator, opt, fresh_scratch, fresh,
                               &fresh_stats);
      inverted_.SemSimFromInto(u, estimator, opt, scratch, out,
                               &scratch_stats);
      ASSERT_EQ(out.size(), fresh.size());
      for (NodeId v = 0; v < world_.graph.num_nodes(); ++v) {
        ASSERT_EQ(out[v], fresh[v])  // bit-identical, not just near
            << "theta=" << theta << " u=" << u << " v=" << v;
      }
      EXPECT_EQ(scratch_stats.met_walks, fresh_stats.met_walks);
      EXPECT_EQ(scratch_stats.sem_pruned_queries,
                fresh_stats.sem_pruned_queries);
      EXPECT_EQ(scratch_stats.normalizers_computed,
                fresh_stats.normalizers_computed);
    }
  }
}

TEST_F(SingleSourceTest, ReusedScratchTopKMatchesFreshScratch) {
  LinMeasure lin(&world_.context);
  SemSimMcEstimator estimator(&world_.graph, &lin, &index_);
  SemSimMcOptions opt{0.6, 0.05};
  QueryScratch scratch;
  for (NodeId u = 0; u < world_.graph.num_nodes(); ++u) {
    QueryScratch fresh;
    auto plain = inverted_.TopKFrom(u, 4, estimator, opt, fresh);
    auto pooled = inverted_.TopKFrom(u, 4, estimator, opt, scratch);
    ASSERT_EQ(plain.size(), pooled.size());
    for (size_t i = 0; i < plain.size(); ++i) {
      EXPECT_EQ(plain[i].node, pooled[i].node) << "u=" << u << " rank " << i;
      EXPECT_EQ(plain[i].score, pooled[i].score);
    }
  }
}

TEST_F(SingleSourceTest, ScratchPoolLeasesAndReuses) {
  ScratchPool pool;
  {
    ScratchPool::Lease a = pool.Acquire();
    ScratchPool::Lease b = pool.Acquire();
    ASSERT_NE(a.get(), nullptr);
    ASSERT_NE(b.get(), nullptr);
    ASSERT_NE(a.get(), b.get());
  }
  QueryScratch* first = nullptr;
  {
    ScratchPool::Lease c = pool.Acquire();
    first = c.get();
  }
  ScratchPool::Lease d = pool.Acquire();
  EXPECT_EQ(d.get(), first);  // freelist reuse, most-recently-returned
  EXPECT_EQ(pool.acquired(), 4u);
  EXPECT_EQ(pool.reused(), 2u);
  EXPECT_DOUBLE_EQ(pool.reuse_rate(), 0.5);
}

TEST(SingleSourceGenerated, ParallelBuildMatchesSerialOnLargerGraph) {
  AmazonOptions gen;
  gen.num_items = 200;
  gen.seed = 31;
  Dataset d = Unwrap(GenerateAmazon(gen));
  WalkIndexOptions wopt;
  wopt.num_walks = 60;
  wopt.walk_length = 10;
  WalkIndex index = WalkIndex::Build(d.graph, wopt);
  SingleSourceIndex serial = SingleSourceIndex::Build(index);
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    SingleSourceIndex parallel =
        SingleSourceIndex::Build(index, &pool);
    ASSERT_EQ(parallel.Fingerprint(), serial.Fingerprint())
        << "threads=" << threads;
  }
}

TEST(SingleSourceGenerated, FirstMeetingsMatchPairwiseScanOnAmazon) {
  // Category hubs are the positions of many walks at once, so this graph
  // has long runs — unlike the 8-node world. Every thread count's build
  // must report exactly the pairwise first meetings, in (node, walk)
  // order.
  AmazonOptions gen;
  gen.num_items = 200;
  gen.seed = 31;
  Dataset d = Unwrap(GenerateAmazon(gen));
  WalkIndexOptions wopt;
  wopt.num_walks = 60;
  wopt.walk_length = 10;
  WalkIndex index = WalkIndex::Build(d.graph, wopt);
  const size_t n = d.graph.num_nodes();
  std::vector<SingleSourceIndex> builds;
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    builds.push_back(SingleSourceIndex::Build(index, &pool));
  }
  std::vector<int> expected(n * wopt.num_walks);
  std::vector<int> found(n * wopt.num_walks);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      for (int w = 0; w < wopt.num_walks; ++w) {
        expected[v * wopt.num_walks + w] =
            v == u ? -1 : FirstMeetingStep(index, u, v, w);
      }
    }
    for (size_t b = 0; b < builds.size(); ++b) {
      std::fill(found.begin(), found.end(), -1);
      for (const auto& m : builds[b].FirstMeetings(u)) {
        found[m.node * wopt.num_walks + m.walk] = m.step;
      }
      ASSERT_EQ(found, expected) << "u=" << u << " build " << b;
    }
  }
  for (const SingleSourceIndex& inverted : builds) {
    ExpectGroupedByNodeThenWalk(inverted, n);
  }
}

TEST(SingleSourceGenerated, ConsistentOnLargerGraph) {
  AmazonOptions gen;
  gen.num_items = 150;
  gen.seed = 77;
  Dataset d = Unwrap(GenerateAmazon(gen));
  WalkIndexOptions wopt;
  wopt.num_walks = 80;
  wopt.walk_length = 10;
  WalkIndex index = WalkIndex::Build(d.graph, wopt);
  SingleSourceIndex inverted = SingleSourceIndex::Build(index);
  LinMeasure lin(&d.context);
  SemSimMcEstimator est(&d.graph, &lin, &index);
  SemSimMcOptions opt{0.6, 0.05};
  Rng rng(5);
  QueryScratch scratch;
  std::vector<double> scores;
  for (int q = 0; q < 10; ++q) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(d.graph.num_nodes()));
    inverted.SemSimFromInto(u, est, opt, scratch, scores);
    for (int c = 0; c < 30; ++c) {
      NodeId v = static_cast<NodeId>(rng.NextIndex(d.graph.num_nodes()));
      ASSERT_NEAR(scores[v], est.Query(u, v, opt), 1e-10);
    }
  }
}

// The reference the walk-major sweep must reproduce bit for bit: the
// by-node meetings of FirstMeetingsInto replayed one met walk at a time
// through Normalizer and CoupledWalkScore, with SemSimFromInto's final
// scaling. The estimator must carry no shared cache.
std::vector<double> ReplayPerMeeting(const SingleSourceIndex& inverted,
                                     const SemSimMcEstimator& estimator,
                                     NodeId u, const SemSimMcOptions& opt,
                                     QueryScratch& scratch,
                                     McQueryStats* stats) {
  const size_t n = estimator.graph().num_nodes();
  const int budget = EffectiveWalkBudget(opt, estimator.index().num_walks());
  inverted.FirstMeetingsInto(u, scratch);
  std::vector<double> total(n, 0.0);
  std::vector<double> sem(n, 0.0);
  NodeId current = kInvalidNode;
  bool kept = false;
  double so_uv = 0;
  for (const SingleSourceIndex::Meeting& m : scratch.meetings) {
    if (m.walk >= budget) continue;
    const NodeId v = m.node;
    if (v != current) {
      current = v;
      sem[v] = estimator.SemValue(u, v);
      kept = !(opt.theta > 0 && sem[v] <= opt.theta);
      if (kept) {
        so_uv = estimator.Normalizer(u, v, stats);
      } else {
        ++stats->sem_pruned_queries;
      }
    }
    if (!kept) continue;
    ++stats->met_walks;
    total[v] += estimator.CoupledWalkScore(u, v, so_uv, m.walk, m.step, opt,
                                           stats);
  }
  const double inv = 1.0 / static_cast<double>(budget);
  std::vector<double> out(n);
  for (NodeId v = 0; v < n; ++v) {
    const double s = total[v];
    out[v] = s > 0 ? ProjectOntoSemBound(s * sem[v] * inv, sem[v]) : s;
  }
  out[u] = 1.0;
  return out;
}

// Every score of SemSimFromInto equals the per-meeting replay to the
// bit, with equal stage counts, over θ ∈ {0, 0.05}, uniform and weighted
// proposals, the full index and a 40-walk budget, and the three
// normalizer paths: the groups' S table, groups above the table cap,
// and no groups (the d² loop).
TEST(SingleSourceGenerated, WalkMajorSweepMatchesPerMeetingReplay) {
  AmazonOptions amazon;
  amazon.num_items = 800;
  AminerOptions aminer;
  aminer.num_authors = 600;
  const Dataset amazon_800 = Unwrap(GenerateAmazon(amazon));
  const Dataset aminer_600 = Unwrap(GenerateAminer(aminer));
  const Dataset chain = testutil::MakeAboveCapChain();
  struct Case {
    const Dataset* dataset;
    bool jiang_conrath;  // else Lin
    const char* kernel;  // the estimator's sem_kernel_name()
    NodeId source_stride;
  };
  // The d² loop runs on a sample of Amazon sources only: every Amazon
  // source takes about 45 s for the eight settings in a release build,
  // and over the AMiner hubs it costs about 1.4 s per source.
  const Case cases[] = {
      {&amazon_800, false, "group-table", 1},
      {&aminer_600, false, "group-table", 7},
      {&chain, false, "virtual-grouped", 21},
      {&amazon_800, true, "virtual", 37},
  };
  for (const Case& c : cases) {
    const Dataset& d = *c.dataset;
    std::unique_ptr<SemanticMeasure> measure;
    if (c.jiang_conrath) {
      measure = std::make_unique<JiangConrathMeasure>(&d.context);
    } else {
      measure = std::make_unique<LinMeasure>(&d.context);
    }
    for (bool weighted : {false, true}) {
      WalkIndexOptions wopt;
      wopt.num_walks = 60;
      wopt.walk_length = 10;
      wopt.seed = 23;
      wopt.weighted = weighted;
      const WalkIndex index = WalkIndex::Build(d.graph, wopt);
      const SingleSourceIndex inverted = SingleSourceIndex::Build(index);
      SemSimMcEstimator estimator(&d.graph, measure.get(), &index);
      estimator.AttachGroups();
      ASSERT_EQ(estimator.sem_kernel_name(), c.kernel) << d.name;
      QueryScratch sweep_scratch, replay_scratch;
      std::vector<double> got;
      for (double theta : {0.0, 0.05}) {
        for (int budget : {0, 40}) {
          SemSimMcOptions opt{0.6, theta};
          opt.walk_budget = budget;
          const std::string where =
              d.name + " " + c.kernel + (weighted ? " weighted" : "") +
              " theta=" + std::to_string(theta) +
              " budget=" + std::to_string(budget);
          for (NodeId u = 0; u < d.graph.num_nodes(); u += c.source_stride) {
            McQueryStats want_stats, got_stats;
            const std::vector<double> want = ReplayPerMeeting(
                inverted, estimator, u, opt, replay_scratch, &want_stats);
            inverted.SemSimFromInto(u, estimator, opt, sweep_scratch, got,
                                    &got_stats);
            ASSERT_EQ(got.size(), want.size());
            for (NodeId v = 0; v < got.size(); ++v) {
              ASSERT_EQ(got[v], want[v]) << where << " u=" << u << " v=" << v;
            }
            ASSERT_EQ(got_stats.met_walks, want_stats.met_walks) << where;
            ASSERT_EQ(got_stats.pruned_walks, want_stats.pruned_walks)
                << where;
            ASSERT_EQ(got_stats.sem_pruned_queries,
                      want_stats.sem_pruned_queries)
                << where;
            ASSERT_EQ(got_stats.normalizers_computed,
                      want_stats.normalizers_computed)
                << where;
          }
        }
      }
    }
  }
}

// QueryScratch::MemoryBytes counts every buffer a sweep grows, the
// correction row, the per-candidate SO(u,v) array and the live-walk list
// among them.
TEST(SingleSourceGenerated, ScratchMemoryCountsTheSweepBuffers) {
  AminerOptions aminer;
  aminer.num_authors = 200;
  const Dataset d = Unwrap(GenerateAminer(aminer));
  LinMeasure lin(&d.context);
  WalkIndexOptions wopt;
  wopt.num_walks = 40;
  wopt.walk_length = 8;
  const WalkIndex index = WalkIndex::Build(d.graph, wopt);
  const SingleSourceIndex inverted = SingleSourceIndex::Build(index);
  SemSimMcEstimator estimator(&d.graph, &lin, &index);
  ASSERT_TRUE(estimator.AttachGroups());
  QueryScratch scratch;
  std::vector<double> out;
  for (NodeId u = 0; u < 20; ++u) {
    inverted.SemSimFromInto(u, estimator, SemSimMcOptions{0.6, 0.05},
                            scratch, out);
  }
  inverted.FirstMeetingsInto(0, scratch);
  ASSERT_EQ(scratch.correction_row.size(),
            estimator.normalizer_groups().num_concepts());
  ASSERT_EQ(scratch.so_uv.size(), d.graph.num_nodes());
  ASSERT_GT(scratch.live_walks.capacity(), 0u);
  EXPECT_EQ(scratch.MemoryBytes(),
            scratch.met_stamp.capacity() * sizeof(uint64_t) +
                scratch.sem_epoch.capacity() * sizeof(uint64_t) +
                scratch.sem_ok.capacity() * sizeof(int8_t) +
                scratch.sem_val.capacity() * sizeof(double) +
                scratch.so_uv.capacity() * sizeof(double) +
                scratch.scores.capacity() * sizeof(double) +
                scratch.node_cursor.capacity() * sizeof(uint32_t) +
                scratch.meetings.capacity() * sizeof(WalkMeeting) +
                scratch.walk_order_meetings.capacity() * sizeof(WalkMeeting) +
                scratch.correction_row.capacity() * sizeof(double) +
                scratch.live_walks.capacity() * sizeof(LiveWalk) +
                scratch.result.capacity() * sizeof(double));
}

}  // namespace
}  // namespace semsim
