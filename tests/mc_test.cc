#include "core/mc_semsim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine_snapshot.h"
#include "core/iterative.h"
#include "core/mc_simrank.h"
#include "core/pair_graph.h"
#include "core/single_source.h"
#include "core/walk_index.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeJehWidomWorld;
using testutil::MakeSmallWorld;
using testutil::Unwrap;

WalkIndexOptions BigIndex(uint64_t seed) {
  WalkIndexOptions opt;
  opt.num_walks = 3000;  // large n_w so MC error is small in tests
  opt.walk_length = 15;
  opt.seed = seed;
  return opt;
}

TEST(McSimRank, ApproximatesIterativeScores) {
  auto w = MakeJehWidomWorld();
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(11));
  ScoreMatrix exact = Unwrap(ComputeSimRank(w.graph, 0.8, 40, nullptr));
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      EXPECT_NEAR(McSimRankQuery(index, u, v, 0.8), exact.at(u, v), 0.03)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(McSimRank, SelfPairIsOne) {
  auto w = MakeJehWidomWorld();
  WalkIndexOptions opt;
  opt.num_walks = 10;
  opt.walk_length = 5;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  EXPECT_DOUBLE_EQ(McSimRankQuery(index, w.univ, w.univ, 0.8), 1.0);
}

TEST(FirstMeetingStep, HandlesDeadWalks) {
  // x has no in-neighbors, so every walk from it dies immediately and the
  // coupled walks never meet.
  HinBuilder b;
  NodeId x = b.AddNode("x", "t");
  NodeId y = b.AddNode("y", "t");
  ASSERT_TRUE(b.AddEdge(x, y, "e", 1).ok());
  Hin g = Unwrap(std::move(b).Build());
  WalkIndexOptions opt;
  opt.num_walks = 4;
  opt.walk_length = 6;
  WalkIndex index = WalkIndex::Build(g, opt);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(FirstMeetingStep(index, x, y, w), -1);
  }
}

TEST(SemSimMcIs, UnbiasedAgainstIterativeGroundTruth) {
  // The IS estimator with θ=0 approximates the exact SemSim fixed point
  // (Prop. 4.4 + Prop. 4.2).
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(13));
  SemSimMcEstimator estimator(&w.graph, &lin, &index);
  ScoreMatrix exact = Unwrap(ComputeSemSim(w.graph, lin, 0.6, 40, nullptr));
  SemSimMcOptions opt;
  opt.decay = 0.6;
  opt.theta = 0.0;
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      EXPECT_NEAR(estimator.Query(u, v, opt), exact.at(u, v), 0.05)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(SemSimMcIs, WeightedProposalAlsoUnbiased) {
  // Eq. 4 holds for any proposal Q; the ablation swaps uniform for
  // weight-proportional sampling.
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndexOptions wopt = BigIndex(17);
  wopt.weighted = true;
  WalkIndex index = WalkIndex::Build(w.graph, wopt);
  SemSimMcEstimator estimator(&w.graph, &lin, &index);
  ScoreMatrix exact = Unwrap(ComputeSemSim(w.graph, lin, 0.6, 40, nullptr));
  SemSimMcOptions opt;
  opt.decay = 0.6;
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      EXPECT_NEAR(estimator.Query(u, v, opt), exact.at(u, v), 0.05);
    }
  }
}

TEST(SemSimMcIs, PruningAddsBoundedOneSidedError) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(19));
  SemSimMcEstimator estimator(&w.graph, &lin, &index);
  SemSimMcOptions unpruned{0.6, 0.0};
  SemSimMcOptions pruned{0.6, 0.05};
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      double full = estimator.Query(u, v, unpruned);
      double cut = estimator.Query(u, v, pruned);
      // Prop. 4.6: the pruning error is bounded by θ. Pruned walk scores
      // are *kept at their bound*, so the estimate may move either way,
      // but never by more than θ per Prop. 4.6.
      EXPECT_NEAR(cut, full, 0.05 + 1e-9) << "(" << u << "," << v << ")";
    }
  }
}

TEST(SemSimMcIs, SemanticPruningShortCircuits) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndexOptions wopt;
  wopt.num_walks = 50;
  wopt.walk_length = 10;
  WalkIndex index = WalkIndex::Build(w.graph, wopt);
  SemSimMcEstimator estimator(&w.graph, &lin, &index);
  // a0 and b0 live under different categories: sem is small.
  double sem = lin.Sim(w.a0, w.b0);
  SemSimMcOptions opt;
  opt.decay = 0.6;
  opt.theta = sem + 0.01;  // force the sem-prune branch
  McQueryStats stats;
  EXPECT_DOUBLE_EQ(estimator.Query(w.a0, w.b0, opt, &stats), 0.0);
  EXPECT_TRUE(stats.sem_pruned);
  EXPECT_EQ(stats.normalizers_computed, 0);
}

TEST(SemSimMcIs, CacheGivesIdenticalScores) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(23));
  // Pre-fill a shared cache with every pair's normalizer, the way the
  // SLING experiment does. Neither estimator attaches groups, so
  // both sum the d² loop in PairGraph::Normalizer's order: bit-exact.
  PairGraph pg(&w.graph, &lin);
  const NodeId n = static_cast<NodeId>(w.graph.num_nodes());
  ConcurrentPairCache cache(4 * static_cast<size_t>(n) * n);
  for (NodeId lo = 0; lo < n; ++lo) {
    for (NodeId hi = lo; hi < n; ++hi) {
      const double norm = pg.Normalizer(lo, hi);
      if (norm > 0) cache.Insert(lo, hi, norm);
    }
  }
  SemSimMcEstimator plain(&w.graph, &lin, &index);
  SemSimMcEstimator cached(&w.graph, &lin, &index);
  cached.set_shared_cache(&cache);
  SemSimMcOptions opt;
  opt.decay = 0.6;
  McQueryStats stats;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < u; ++v) {
      EXPECT_EQ(plain.Query(u, v, opt), cached.Query(u, v, opt, &stats))
          << u << "," << v;
    }
  }
  EXPECT_GT(stats.shared_cache_hits, 0);
  EXPECT_EQ(stats.normalizers_computed, 0);
}

// Pairs (u_i, v_i) whose in-neighbourhoods share one heavy node x among
// nine light private ones that no walk continues from. Under a uniform
// proposal a walk pair meets at x with probability 1/100, but P/Q there
// is ~100, so with 100 walks any pair that meets twice scores above
// sem(u_i, v_i) = 0.5 before the Prop. 2.5 projection.
TEST(SemSimMcIs, EstimatesProjectOntoSemBound) {
  TaxonomyBuilder tb;
  ConceptId root = tb.AddConcept("R");
  ConceptId p = tb.AddConcept("P", root);
  ConceptId a1 = tb.AddConcept("A1", p);
  ConceptId a2 = tb.AddConcept("A2", p);
  Taxonomy taxonomy = Unwrap(std::move(tb).Build());
  std::vector<double> ic(taxonomy.num_concepts(), 0.1);
  ic[p] = 0.4;
  ic[a1] = 0.8;
  ic[a2] = 0.8;

  constexpr int kPairs = 40;
  HinBuilder b;
  std::vector<ConceptId> node_concept;
  auto add = [&](const std::string& name, ConceptId c) {
    node_concept.push_back(c);
    return b.AddNode(name, "t");
  };
  NodeId x = add("x", p);
  std::vector<NodePair> pairs;
  for (int i = 0; i < kPairs; ++i) {
    NodeId u = add("u" + std::to_string(i), a1);
    NodeId v = add("v" + std::to_string(i), a2);
    for (NodeId target : {u, v}) {
      ASSERT_TRUE(b.AddEdge(x, target, "e", 100.0).ok());
      for (int j = 0; j < 9; ++j) {
        NodeId leaf = add("l" + std::to_string(target) + "_" +
                              std::to_string(j),
                          p);
        ASSERT_TRUE(b.AddEdge(leaf, target, "e", 0.01).ok());
      }
    }
    pairs.push_back({u, v});
  }
  Hin g = Unwrap(std::move(b).Build());
  SemanticContext ctx = Unwrap(SemanticContext::FromTaxonomyWithIc(
      std::move(taxonomy), std::move(node_concept), std::move(ic)));
  LinMeasure lin(&ctx);
  WalkIndexOptions wopt;
  wopt.num_walks = 100;
  wopt.walk_length = 4;
  wopt.seed = 3;
  wopt.weighted = false;
  WalkIndex index = WalkIndex::Build(g, wopt);

  EngineSnapshotPtr snap = Unwrap(EngineSnapshot::Create(
      Unowned(&g), Unowned(&lin), Unowned(&index), EngineSnapshotOptions{},
      /*version=*/0));
  SemSimMcEstimator virt(&g, &lin, &index);
  SemSimMcOptions mc{0.6, 0.0};
  QueryScratch scratch;
  std::vector<double> row;
  int at_bound = 0;
  for (const NodePair& pair : pairs) {
    const double sem = lin.Sim(pair.first, pair.second);
    ASSERT_EQ(sem, 0.5);
    for (const SemSimMcEstimator* est :
         {static_cast<const SemSimMcEstimator*>(&virt), &snap->estimator()}) {
      const double score = est->Query(pair.first, pair.second, mc);
      EXPECT_GE(score, 0.0);
      EXPECT_LE(score, sem) << "pair (" << pair.first << "," << pair.second
                            << ") " << est->sem_kernel_name();
      if (score == sem) ++at_bound;
      snap->InvertedIndex().SemSimFromInto(pair.first, *est, mc, scratch,
                                           row);
      EXPECT_LE(row[pair.second], sem) << "single-source from "
                                       << pair.first;
    }
  }
  // The projection was exercised, not just vacuously satisfied.
  EXPECT_GT(at_bound, 0);
}

TEST(NaiveSemSimMc, MatchesIterativeGroundTruth) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  ScoreMatrix exact = Unwrap(ComputeSemSim(w.graph, lin, 0.6, 40, nullptr));
  Rng rng(31);
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < u; ++v) {
      double est = NaiveSemSimMcQuery(w.graph, lin, u, v, /*num_walks=*/3000,
                                      /*walk_length=*/15, 0.6, rng);
      EXPECT_NEAR(est, exact.at(u, v), 0.05) << "(" << u << "," << v << ")";
    }
  }
}

TEST(SemSimMcIs, AgreesWithNaiveSampler) {
  // The two estimators target the same quantity from different samplers.
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(37));
  SemSimMcEstimator is_estimator(&w.graph, &lin, &index);
  SemSimMcOptions opt;
  opt.decay = 0.6;
  Rng rng(41);
  double is_score = is_estimator.Query(w.a0, w.a1, opt);
  double naive = NaiveSemSimMcQuery(w.graph, lin, w.a0, w.a1, 3000, 15, 0.6,
                                    rng);
  EXPECT_NEAR(is_score, naive, 0.06);
}

TEST(SemSimMcIs, ReplayedWalkScoresMatchQuery) {
  // Replaying Query() through Normalizer and CoupledWalkScore gives the
  // same bits and stage counts as Query() itself.
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex index = WalkIndex::Build(w.graph, BigIndex(43));
  SemSimMcEstimator estimator(&w.graph, &lin, &index);
  SemSimMcOptions opt{0.6, 0.0};
  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
      if (u == v) continue;
      McQueryStats want;
      double expected = estimator.Query(u, v, opt, &want);
      McQueryStats got;
      double so_uv = 0;
      double total = 0;
      for (int walk = 0; walk < index.num_walks(); ++walk) {
        int meet = FirstMeetingStep(index, u, v, walk);
        if (meet < 0) continue;
        if (got.met_walks++ == 0) so_uv = estimator.Normalizer(u, v, &got);
        total += estimator.CoupledWalkScore(u, v, so_uv, walk, meet, opt,
                                            &got);
      }
      double replayed =
          estimator.SemValue(u, v) * total / index.num_walks();
      ASSERT_EQ(replayed, expected) << u << "," << v;
      EXPECT_EQ(got.met_walks, want.met_walks);
      EXPECT_EQ(got.normalizers_computed, want.normalizers_computed);
      EXPECT_EQ(got.normalizer_work, want.normalizer_work);
    }
  }
}

// u and v share one in-neighbour x; their other in-neighbours y_u, y_v
// have none, so a walk pair either meets at x on step 1 or dies. Every
// met walk then needs SO(u,v) and nothing else, and an estimator
// without a shared cache must compute it once per pair, not once per
// met walk.
TEST(SemSimMcIs, CachelessEstimatorComputesFirstStepNormalizerOncePerPair) {
  TaxonomyBuilder tb;
  ConceptId root = tb.AddConcept("R");
  ConceptId p = tb.AddConcept("P", root);
  ConceptId a1 = tb.AddConcept("A1", p);
  ConceptId a2 = tb.AddConcept("A2", p);
  Taxonomy taxonomy = Unwrap(std::move(tb).Build());
  std::vector<double> ic(taxonomy.num_concepts(), 0.1);
  ic[p] = 0.4;
  ic[a1] = 0.8;
  ic[a2] = 0.8;
  HinBuilder b;
  NodeId x = b.AddNode("x", "t");
  NodeId u = b.AddNode("u", "t");
  NodeId v = b.AddNode("v", "t");
  NodeId yu = b.AddNode("yu", "t");
  NodeId yv = b.AddNode("yv", "t");
  ASSERT_TRUE(b.AddEdge(x, u, "e", 1.0).ok());
  ASSERT_TRUE(b.AddEdge(x, v, "e", 1.0).ok());
  ASSERT_TRUE(b.AddEdge(yu, u, "e", 1.0).ok());
  ASSERT_TRUE(b.AddEdge(yv, v, "e", 1.0).ok());
  Hin g = Unwrap(std::move(b).Build());
  SemanticContext ctx = Unwrap(SemanticContext::FromTaxonomyWithIc(
      std::move(taxonomy), {p, a1, a2, a1, a2}, std::move(ic)));
  LinMeasure lin(&ctx);
  WalkIndexOptions wopt;
  wopt.num_walks = 64;
  wopt.walk_length = 4;
  wopt.seed = 5;
  WalkIndex index = WalkIndex::Build(g, wopt);
  SemSimMcEstimator virt(&g, &lin, &index);
  SemSimMcEstimator flat(&g, &lin, &index);
  ASSERT_TRUE(flat.AttachGroups());
  SingleSourceIndex inverted = SingleSourceIndex::Build(index);
  SemSimMcOptions mc{0.6, 0.0};
  for (const SemSimMcEstimator* est : {&virt, &flat}) {
    McQueryStats stats;
    EXPECT_GT(est->Query(u, v, mc, &stats), 0.0);
    EXPECT_GE(stats.met_walks, 2) << est->sem_kernel_name();
    EXPECT_EQ(stats.normalizers_computed, 1) << est->sem_kernel_name();

    // The single-source sweep from u meets only v.
    McQueryStats sweep;
    QueryScratch scratch;
    std::vector<double> row;
    inverted.SemSimFromInto(u, *est, mc, scratch, row, &sweep);
    EXPECT_EQ(sweep.met_walks, stats.met_walks) << est->sem_kernel_name();
    EXPECT_EQ(sweep.normalizers_computed, 1) << est->sem_kernel_name();
    EXPECT_EQ(row[v], est->Query(u, v, mc));
  }
}

}  // namespace
}  // namespace semsim
