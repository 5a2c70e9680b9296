#include "core/topk.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/pair_graph.h"
#include "datasets/amazon_gen.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

TEST(BoundedSemanticTopK, MatchesExhaustiveScan) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndexOptions wopt;
  wopt.num_walks = 300;
  wopt.walk_length = 10;
  WalkIndex index = WalkIndex::Build(w.graph, wopt);
  SemSimMcEstimator est(&w.graph, &lin, &index);
  SemSimMcOptions opt{0.6, 0.0};
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    auto bounded = BoundedSemanticTopK(est, u, 3, opt, nullptr, /*slack=*/0.8);
    auto full = McTopK(est, u, 3, opt);
    ASSERT_EQ(bounded.size(), full.size()) << "u=" << u;
    for (size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(bounded[i].node, full[i].node) << "u=" << u << " rank " << i;
      EXPECT_DOUBLE_EQ(bounded[i].score, full[i].score);
    }
  }
}

TEST(BoundedSemanticTopK, ScansFewerCandidatesThanExhaustive) {
  AmazonOptions gen;
  gen.num_items = 200;
  gen.seed = 9;
  Dataset d = Unwrap(GenerateAmazon(gen));
  LinMeasure lin(&d.context);
  WalkIndexOptions wopt;
  wopt.num_walks = 100;
  wopt.walk_length = 10;
  WalkIndex index = WalkIndex::Build(d.graph, wopt);
  SemSimMcEstimator est(&d.graph, &lin, &index);
  SemSimMcOptions opt{0.6, 0.05};
  Rng rng(4);
  size_t total_scanned = 0, queries = 0;
  for (int q = 0; q < 10; ++q) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(d.graph.num_nodes()));
    size_t scanned = 0;
    BoundedSemanticTopK(est, u, 10, opt, nullptr, 0.9, &scanned);
    total_scanned += scanned;
    ++queries;
  }
  double avg = static_cast<double>(total_scanned) / static_cast<double>(queries);
  // The semantic bound must cut off a large share of the candidate set.
  EXPECT_LT(avg, 0.7 * static_cast<double>(d.graph.num_nodes()));
  EXPECT_GT(avg, 0.0);
}

TEST(BoundedSemanticTopK, HonorsCandidateList) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndexOptions wopt;
  wopt.num_walks = 100;
  wopt.walk_length = 8;
  WalkIndex index = WalkIndex::Build(w.graph, wopt);
  SemSimMcEstimator est(&w.graph, &lin, &index);
  SemSimMcOptions opt{0.6, 0.0};
  std::vector<NodeId> candidates = {w.a1, w.a2};
  auto top = BoundedSemanticTopK(est, w.a0, 5, opt, &candidates);
  ASSERT_EQ(top.size(), 2u);
  for (const Scored& s : top) {
    EXPECT_TRUE(s.node == w.a1 || s.node == w.a2);
  }
}

TEST(ExactSinglePair, MatchesFullMatrixEvaluation) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  PairGraph pg(&w.graph, &lin);
  ScoreMatrix full = pg.ExactScores(0.6, 60);
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v <= u; ++v) {
      double single = pg.ExactSinglePair(u, v, 0.6, /*depth=*/40);
      EXPECT_NEAR(single, full.at(u, v), 1e-8)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(ExactSinglePair, TruncationErrorBoundedByDecayPower) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  PairGraph pg(&w.graph, &lin);
  double exact = pg.ExactSinglePair(w.a0, w.a1, 0.6, 50);
  for (int depth : {1, 2, 4, 8}) {
    double truncated = pg.ExactSinglePair(w.a0, w.a1, 0.6, depth);
    EXPECT_LE(truncated, exact + 1e-12);
    EXPECT_LE(exact - truncated,
              lin.Sim(w.a0, w.a1) * std::pow(0.6, depth + 1) + 1e-12)
        << "depth=" << depth;
  }
}

TEST(WalkIndexIo, RoundTripPreservesWalksAndOptions) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 25;
  opt.walk_length = 9;
  opt.seed = 77;
  WalkIndex original = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_walks.bin";
  ASSERT_TRUE(original.Save(path).ok());
  WalkIndex loaded = Unwrap(WalkIndex::Load(path, w.graph.num_nodes()));
  EXPECT_EQ(loaded.num_walks(), 25);
  EXPECT_EQ(loaded.walk_length(), 9);
  EXPECT_EQ(loaded.options().seed, 77u);
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      auto a = original.Walk(v, k);
      auto b = loaded.Walk(v, k);
      for (int s = 0; s < opt.walk_length; ++s) ASSERT_EQ(a[s], b[s]);
    }
  }
  std::remove(path.c_str());
}

TEST(WalkIndexIo, RejectsWrongGraphAndGarbage) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 5;
  opt.walk_length = 5;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_walks2.bin";
  ASSERT_TRUE(index.Save(path).ok());
  EXPECT_FALSE(WalkIndex::Load(path, w.graph.num_nodes() + 1).ok());
  EXPECT_FALSE(WalkIndex::Load("/nonexistent/walks.bin", 8).ok());
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage";
  }
  EXPECT_FALSE(WalkIndex::Load(path, w.graph.num_nodes()).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace semsim
