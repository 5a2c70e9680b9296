// End-to-end pipeline tests: generated dataset → engine → evaluation
// harness, checking the qualitative relationships the paper's evaluation
// depends on (these are the invariants behind Tables 4-5 and Figure 5).
#include <gtest/gtest.h>

#include "baselines/similarity_fn.h"
#include "common/stats.h"
#include "core/iterative.h"
#include "core/engine_snapshot.h"
#include "core/topk.h"
#include "datasets/aminer_gen.h"
#include "datasets/amazon_gen.h"
#include "datasets/wikipedia_gen.h"
#include "eval/tasks.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;

TEST(Integration, McEstimatorTracksIterativeOnGeneratedGraph) {
  AminerOptions opt;
  opt.num_authors = 120;
  opt.seed = 21;
  Dataset d = Unwrap(GenerateAminer(opt));
  LinMeasure lin(&d.context);

  ScoreMatrix exact = Unwrap(ComputeSemSim(d.graph, lin, 0.6, 12, nullptr));
  WalkIndexOptions wopt;
  wopt.num_walks = 400;
  wopt.walk_length = 15;
  wopt.seed = 77;
  WalkIndex index = WalkIndex::Build(d.graph, wopt);
  SemSimMcEstimator est(&d.graph, &lin, &index);
  SemSimMcOptions mc;
  mc.decay = 0.6;

  Rng rng(5);
  std::vector<double> approx, truth;
  for (int i = 0; i < 150; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(d.graph.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextIndex(d.graph.num_nodes()));
    if (u == v) continue;
    approx.push_back(est.Query(u, v, mc));
    truth.push_back(exact.at(u, v));
  }
  // Table 4's headline: approximated scores correlate strongly with the
  // iterative ground truth.
  EXPECT_GT(PearsonR(approx, truth), 0.85);
}

TEST(Integration, SemSimBeatsPureStructureOnRelatedness) {
  WikipediaOptions opt;
  opt.num_articles = 250;
  opt.relatedness_pairs = 120;
  opt.seed = 31;
  Dataset d = Unwrap(GenerateWikipedia(opt));
  LinMeasure lin(&d.context);

  ScoreMatrix semsim = Unwrap(ComputeSemSim(d.graph, lin, 0.6, 8, nullptr));
  ScoreMatrix simrank = Unwrap(ComputeSimRank(d.graph, 0.6, 8, nullptr));

  NamedSimilarity semsim_fn{
      "SemSim", [&](NodeId a, NodeId b) { return semsim.at(a, b); }};
  NamedSimilarity simrank_fn{
      "SimRank", [&](NodeId a, NodeId b) { return simrank.at(a, b); }};

  double r_semsim = EvaluateRelatedness(d.relatedness, semsim_fn).pearson_r;
  double r_simrank = EvaluateRelatedness(d.relatedness, simrank_fn).pearson_r;
  // Table 5's qualitative shape: the combined measure beats the purely
  // structural one on a semantics-heavy task.
  EXPECT_GT(r_semsim, r_simrank);
  EXPECT_GT(r_semsim, 0.3);
}

TEST(Integration, DuplicateAuthorsRankHighlyUnderSemSim) {
  AminerOptions opt;
  opt.num_authors = 150;
  opt.num_duplicates = 12;
  opt.seed = 41;
  Dataset d = Unwrap(GenerateAminer(opt));
  LinMeasure lin(&d.context);
  ScoreMatrix semsim = Unwrap(ComputeSemSim(d.graph, lin, 0.6, 8, nullptr));

  std::vector<NodeId> authors;
  for (NodeId v = 0; v < d.graph.num_nodes(); ++v) {
    if (d.graph.label_name(d.graph.node_label(v)) == "author") {
      authors.push_back(v);
    }
  }
  NamedSimilarity fn{"SemSim",
                     [&](NodeId a, NodeId b) { return semsim.at(a, b); }};
  double precision =
      EntityResolutionPrecision(fn, d.duplicate_pairs, authors, 20);
  // Clones share half the original's edges: they must be retrievable far
  // better than chance (20/150 ≈ 0.13).
  EXPECT_GT(precision, 0.4);
}

TEST(Integration, HeldOutCopurchasesPredictedAboveChance) {
  AmazonOptions opt;
  opt.num_items = 250;
  opt.heldout_fraction = 0.08;
  opt.seed = 51;
  Dataset d = Unwrap(GenerateAmazon(opt));
  LinMeasure lin(&d.context);
  ScoreMatrix semsim = Unwrap(ComputeSemSim(d.graph, lin, 0.6, 8, nullptr));

  std::vector<NodeId> items;
  for (NodeId v = 0; v < d.graph.num_nodes(); ++v) {
    if (d.graph.label_name(d.graph.node_label(v)) == "item") {
      items.push_back(v);
    }
  }
  NamedSimilarity fn{"SemSim",
                     [&](NodeId a, NodeId b) { return semsim.at(a, b); }};
  Rng rng(1);
  double hit20 = LinkPredictionHitRate(fn, d.heldout_edges, items, 20, 60, rng);
  double chance = 20.0 / static_cast<double>(items.size());
  EXPECT_GT(hit20, 2 * chance);
}

TEST(Integration, EngineTopKReturnsSemanticallyRelevantNodes) {
  AmazonOptions opt;
  opt.num_items = 200;
  opt.seed = 61;
  Dataset d = Unwrap(GenerateAmazon(opt));
  LinMeasure lin(&d.context);
  EngineSnapshotOptions eopt;
  eopt.query.mc = {0.6, 0.05};
  eopt.normalizer_cache_capacity = 0;
  EngineSnapshotPtr snap = Unwrap(EngineSnapshot::Build(
      Unowned(&d.graph), Unowned(&lin), WalkIndexOptions{150, 15, 42, false},
      eopt, 0));

  // Query a random item; its top-10 must contain same-category items
  // (category proximity drives both structure and semantics here).
  NodeId query = kInvalidNode;
  for (NodeId v = 0; v < d.graph.num_nodes(); ++v) {
    if (d.graph.label_name(d.graph.node_label(v)) == "item" &&
        d.graph.InDegree(v) > 3) {
      query = v;
      break;
    }
  }
  ASSERT_NE(query, kInvalidNode);
  auto top = McTopK(snap->estimator(), query, 10, eopt.query.mc);
  ASSERT_FALSE(top.empty());
  EXPECT_GT(top[0].score, 0.0);
  const Taxonomy& tax = d.context.taxonomy();
  int same_parent = 0;
  for (const Scored& s : top) {
    if (tax.parent(d.context.concept_of(s.node)) ==
        tax.parent(d.context.concept_of(query))) {
      ++same_parent;
    }
  }
  EXPECT_GT(same_parent, 0);
}

}  // namespace
}  // namespace semsim
