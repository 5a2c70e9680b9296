#include "core/pair_graph.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "core/iterative.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeJehWidomWorld;
using testutil::MakeSmallWorld;
using testutil::Unwrap;

TEST(PairGraph, TransitionProbabilitiesSumToOne) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  PairGraph pg(&w.graph, &lin);
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
      double total = 0;
      size_t count = 0;
      pg.ForEachTransition(u, v, [&](NodeId, NodeId, double p) {
        EXPECT_GT(p, 0.0);
        total += p;
        ++count;
      });
      if (count > 0) {
        EXPECT_NEAR(total, 1.0, 1e-9) << "pair (" << u << "," << v << ")";
        EXPECT_EQ(count, w.graph.InDegree(u) * w.graph.InDegree(v));
      }
    }
  }
}

TEST(PairGraph, SemanticsSkewsTransitions) {
  // Def. 3.1 / Example 3.2: semantically similar successor pairs get
  // higher probability than dissimilar ones with equal weights.
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  PairGraph pg(&w.graph, &lin);
  // Successors of (a0, a1): a0's in-neighbors include a1, a2, CatA; a1's
  // include a0, a2, CatA. The pair (a2,a2) is a singleton with sem=1;
  // compare transition to (a2, CatA) which crosses levels.
  double p_same = -1, p_cross = -1;
  pg.ForEachTransition(w.a0, w.a1, [&](NodeId x, NodeId y, double p) {
    if (x == w.a2 && y == w.a2) p_same = p;
    if (x == w.a2 && y == w.cat_a) p_cross = p;
  });
  ASSERT_GT(p_same, 0);
  ASSERT_GT(p_cross, 0);
  EXPECT_GT(p_same, p_cross);
}

TEST(PairGraph, Example32TransitionProbabilities) {
  // Example 3.2 verbatim: authors A and B with in-neighbors
  // {Canada, Author} and {USA, Author}; with Lin(Canada,USA)=0.8,
  // Lin(Author,USA)=Lin(Canada,Author)=0.2, the surfer at (A,B) moves to
  // (Canada,USA) with probability 0.8/(0.8+0.2+0.2+1.0)=0.36 and to
  // (Author,USA) with probability 0.09.
  HinBuilder b;
  NodeId a = b.AddNode("A", "author");
  NodeId bb = b.AddNode("B", "author");
  NodeId canada = b.AddNode("Canada", "country");
  NodeId usa = b.AddNode("USA", "country");
  NodeId author = b.AddNode("Author", "concept");
  ASSERT_TRUE(b.AddEdge(canada, a, "current_country", 1).ok());
  ASSERT_TRUE(b.AddEdge(author, a, "is_a", 1).ok());
  ASSERT_TRUE(b.AddEdge(usa, bb, "origin_country", 1).ok());
  ASSERT_TRUE(b.AddEdge(author, bb, "is_a", 1).ok());
  Hin g = Unwrap(std::move(b).Build());

  // Fixed semantic table matching the example's Lin values.
  class Example32Measure : public SemanticMeasure {
   public:
    Example32Measure(NodeId canada, NodeId usa, NodeId author)
        : canada_(canada), usa_(usa), author_(author) {}
    double Sim(NodeId u, NodeId v) const override {
      if (u == v) return 1.0;
      if (u > v) std::swap(u, v);
      if (u == canada_ && v == usa_) return 0.8;
      if ((u == canada_ && v == author_) || (u == usa_ && v == author_)) {
        return 0.2;
      }
      return 0.1;
    }
    std::string_view name() const override { return "Example32"; }

   private:
    NodeId canada_, usa_, author_;
  };
  Example32Measure sem(canada, usa, author);
  PairGraph pg(&g, &sem);

  double p_countries = -1, p_author_usa = -1, p_canada_author = -1,
         p_singleton = -1;
  pg.ForEachTransition(a, bb, [&](NodeId x, NodeId y, double p) {
    if (x == canada && y == usa) p_countries = p;
    if (x == author && y == usa) p_author_usa = p;
    if (x == canada && y == author) p_canada_author = p;
    if (x == author && y == author) p_singleton = p;
  });
  EXPECT_NEAR(p_countries, 0.8 / 2.2, 1e-12);     // ≈ 0.36
  EXPECT_NEAR(p_author_usa, 0.2 / 2.2, 1e-12);    // ≈ 0.09
  EXPECT_NEAR(p_canada_author, 0.2 / 2.2, 1e-12); // ≈ 0.09
  EXPECT_NEAR(p_singleton, 1.0 / 2.2, 1e-12);     // the meeting option
}

TEST(PairGraph, EdgeCountIsSquareOfGraphEdges) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  PairGraph pg(&w.graph, &lin);
  EXPECT_EQ(pg.num_pair_edges(),
            static_cast<uint64_t>(w.graph.num_edges()) * w.graph.num_edges());
  EXPECT_EQ(pg.num_pair_nodes(),
            w.graph.num_nodes() * w.graph.num_nodes());
}

TEST(PairGraph, ExactScoresMatchIterativeSimRank) {
  // Thm. 3.3 in the degenerate setting: the surfer evaluation over G²
  // with uniform transitions equals Jeh-Widom SimRank.
  auto w = MakeJehWidomWorld();
  PairGraph pg(&w.graph, /*semantic=*/nullptr, /*use_weights=*/false);
  ScoreMatrix surfer = pg.ExactScores(0.8, 60);
  ScoreMatrix iterative = Unwrap(ComputeSimRank(w.graph, 0.8, 60, nullptr));
  EXPECT_LT(surfer.MaxAbsDifference(iterative), 1e-9);
}

TEST(PairGraph, ExactScoresMatchIterativeSemSim) {
  // Thm. 3.3 proper: SARW evaluation equals the SemSim fixed point.
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  PairGraph pg(&w.graph, &lin);
  ScoreMatrix surfer = pg.ExactScores(0.6, 60);
  ScoreMatrix iterative = Unwrap(ComputeSemSim(w.graph, lin, 0.6, 60, nullptr));
  EXPECT_LT(surfer.MaxAbsDifference(iterative), 1e-9);
}

TEST(PairGraph, PathStatsAreFiniteAndBounded) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  PairGraph pg(&w.graph, &lin);
  Rng rng(3);
  auto stats = pg.EstimatePathStats(/*max_depth=*/4, /*sample_pairs=*/20,
                                    /*max_paths_per_pair=*/500, rng);
  EXPECT_GE(stats.avg_paths_to_singleton, 0);
  EXPECT_GE(stats.avg_path_length, 0);
  EXPECT_LE(stats.avg_path_length, 4);
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

}  // namespace
}  // namespace semsim
