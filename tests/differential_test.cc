// Unit coverage for the differential verification harness itself: the
// random generators, the statistical assertion utilities, the dump
// formats, and — via the self-test perturbation hook — proof that a real
// deviation actually produces a violation with a usable repro line.
#include "testing/differential.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/mc_semsim.h"
#include "graph/graph_io.h"
#include "taxonomy/semantic_measure.h"
#include "taxonomy/taxonomy_io.h"
#include "testing/random_hin.h"
#include "testing/random_taxonomy.h"
#include "testing/stat_check.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;

// ---- random HIN generator -------------------------------------------------

TEST(RandomHin, SameOptionsProduceIdenticalGraphs) {
  testing::RandomHinOptions opt;
  opt.seed = 17;
  opt.num_nodes = 24;
  opt.avg_out_degree = 2.5;
  opt.degree_skew = 1.0;
  opt.self_loop_fraction = 0.1;
  opt.parallel_edge_fraction = 0.1;
  Hin a = Unwrap(testing::GenerateRandomHin(opt));
  Hin b = Unwrap(testing::GenerateRandomHin(opt));
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.node_name(v), b.node_name(v));
    auto na = a.OutNeighbors(v);
    auto nb = b.OutNeighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].node, nb[i].node);
      EXPECT_EQ(na[i].weight, nb[i].weight);  // bit-equal, not just close
      EXPECT_EQ(na[i].edge_label, nb[i].edge_label);
    }
  }
}

TEST(RandomHin, DifferentSeedsProduceDifferentGraphs) {
  testing::RandomHinOptions opt;
  opt.seed = 1;
  opt.num_nodes = 24;
  Hin a = Unwrap(testing::GenerateRandomHin(opt));
  opt.seed = 2;
  Hin b = Unwrap(testing::GenerateRandomHin(opt));
  bool differ = a.num_edges() != b.num_edges();
  for (NodeId v = 0; !differ && v < a.num_nodes(); ++v) {
    auto na = a.OutNeighbors(v);
    auto nb = b.OutNeighbors(v);
    if (na.size() != nb.size()) {
      differ = true;
      break;
    }
    for (size_t i = 0; i < na.size(); ++i) {
      if (na[i].node != nb[i].node || na[i].weight != nb[i].weight) {
        differ = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differ);
}

TEST(RandomHin, RejectsOutOfDomainOptions) {
  testing::RandomHinOptions opt;
  opt.num_nodes = 0;
  EXPECT_FALSE(testing::GenerateRandomHin(opt).ok());
  opt = {};
  opt.node_label_alphabet = 0;
  EXPECT_FALSE(testing::GenerateRandomHin(opt).ok());
  opt = {};
  opt.avg_out_degree = -1;
  EXPECT_FALSE(testing::GenerateRandomHin(opt).ok());
  opt = {};
  opt.dangling_fraction = 1.5;
  EXPECT_FALSE(testing::GenerateRandomHin(opt).ok());
  opt = {};
  opt.num_components = 0;
  EXPECT_FALSE(testing::GenerateRandomHin(opt).ok());
  opt = {};
  opt.min_weight = -0.5;
  EXPECT_FALSE(testing::GenerateRandomHin(opt).ok());
}

TEST(RandomHin, DanglingFractionProducesInIsolatedNodes) {
  testing::RandomHinOptions opt;
  opt.seed = 5;
  opt.num_nodes = 40;
  opt.avg_out_degree = 3.0;
  opt.dangling_fraction = 0.25;
  Hin g = Unwrap(testing::GenerateRandomHin(opt));
  int dangling = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InDegree(v) == 0) ++dangling;
  }
  // Selection is Bernoulli(0.25) per node, so the count is binomial, not
  // exact — but the generator is seed-deterministic, so this bound is
  // stable (seed 5 marks 9 of 40).
  EXPECT_GE(dangling, 5);
}

TEST(RandomHin, ComponentsNeverShareEdges) {
  testing::RandomHinOptions opt;
  opt.seed = 9;
  opt.num_nodes = 30;
  opt.num_components = 3;
  opt.avg_out_degree = 3.0;
  Hin g = Unwrap(testing::GenerateRandomHin(opt));
  EXPECT_GT(g.num_edges(), 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Neighbor& nb : g.OutNeighbors(v)) {
      EXPECT_EQ(v % 3, nb.node % 3)
          << "edge " << v << " -> " << nb.node << " crosses components";
    }
  }
}

TEST(RandomHin, UndirectedEdgesAreSymmetric) {
  testing::RandomHinOptions opt;
  opt.seed = 3;
  opt.num_nodes = 20;
  opt.undirected_edges = true;
  Hin g = Unwrap(testing::GenerateRandomHin(opt));
  EXPECT_GT(g.num_edges(), 0u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Neighbor& nb : g.OutNeighbors(v)) {
      Hin::EdgeInfo back = g.InEdgeInfo(v, nb.node);
      EXPECT_GT(back.multiplicity, 0u)
          << "no reverse edge for " << v << " -> " << nb.node;
    }
  }
}

// ---- random taxonomy generator --------------------------------------------

TEST(RandomTaxonomy, SameOptionsProduceIdenticalTrees) {
  testing::RandomTaxonomyOptions opt;
  opt.seed = 11;
  opt.num_concepts = 15;
  opt.shape = testing::TaxonomyShape::kRandomAttach;
  Taxonomy a = Unwrap(testing::GenerateRandomTaxonomy(opt));
  Taxonomy b = Unwrap(testing::GenerateRandomTaxonomy(opt));
  ASSERT_EQ(a.num_concepts(), b.num_concepts());
  for (ConceptId c = 0; c < a.num_concepts(); ++c) {
    EXPECT_EQ(a.name(c), b.name(c));
    EXPECT_EQ(a.parent(c), b.parent(c));
  }
}

TEST(RandomTaxonomy, ChainShapeReachesMaximumDepth) {
  testing::RandomTaxonomyOptions opt;
  opt.num_concepts = 10;
  opt.shape = testing::TaxonomyShape::kChain;
  Taxonomy t = Unwrap(testing::GenerateRandomTaxonomy(opt));
  uint32_t max_depth = 0;
  for (ConceptId c = 0; c < t.num_concepts(); ++c) {
    max_depth = std::max(max_depth, t.depth(c));
  }
  EXPECT_EQ(max_depth, 9u);
}

TEST(RandomTaxonomy, StarShapeStaysFlat) {
  testing::RandomTaxonomyOptions opt;
  opt.num_concepts = 10;
  opt.shape = testing::TaxonomyShape::kStar;
  Taxonomy t = Unwrap(testing::GenerateRandomTaxonomy(opt));
  for (ConceptId c = 0; c < t.num_concepts(); ++c) {
    EXPECT_LE(t.depth(c), 1u);
  }
}

TEST(RandomTaxonomy, MultiRootForestGetsSyntheticRoot) {
  testing::RandomTaxonomyOptions opt;
  opt.num_concepts = 8;
  opt.num_roots = 3;
  Taxonomy t = Unwrap(testing::GenerateRandomTaxonomy(opt));
  // 8 generated concepts + the synthetic "<ROOT>" above the forest.
  EXPECT_EQ(t.num_concepts(), 9u);
}

TEST(RandomTaxonomy, RejectsOutOfDomainOptions) {
  testing::RandomTaxonomyOptions opt;
  opt.num_concepts = 0;
  EXPECT_FALSE(testing::GenerateRandomTaxonomy(opt).ok());
  opt = {};
  opt.max_fanout = 0;
  EXPECT_FALSE(testing::GenerateRandomTaxonomy(opt).ok());
}

// ---- statistical assertion utilities --------------------------------------

TEST(StatCheck, HoeffdingEpsilonMatchesClosedForm) {
  double eps = testing::HoeffdingEpsilon(400, 1.0, 0.05);
  EXPECT_NEAR(eps, std::sqrt(std::log(2.0 / 0.05) / 800.0), 1e-12);
  // Epsilon shrinks with n and grows with range.
  EXPECT_LT(testing::HoeffdingEpsilon(1600, 1.0, 0.05), eps);
  EXPECT_NEAR(testing::HoeffdingEpsilon(400, 2.0, 0.05), 2 * eps, 1e-12);
}

TEST(StatCheck, NormalQuantileHitsTextbookValues) {
  EXPECT_NEAR(testing::NormalQuantile(0.05), 1.9599639845, 1e-6);
  EXPECT_NEAR(testing::NormalQuantile(0.01), 2.5758293035, 1e-6);
  EXPECT_NEAR(testing::NormalQuantile(0.3173), 1.0, 1e-3);
}

TEST(StatCheck, CltEpsilonScalesWithStdAndSamples) {
  double eps = testing::CltEpsilon(100, 0.5, 0.05);
  EXPECT_NEAR(eps, testing::NormalQuantile(0.05) * 0.5 / 10.0, 1e-12);
}

TEST(StatCheck, MomentsOfConstantSamplesHaveZeroStd) {
  std::vector<double> samples(50, 0.25);
  testing::SampleMoments m = testing::ComputeMoments(samples);
  EXPECT_DOUBLE_EQ(m.mean, 0.25);
  EXPECT_DOUBLE_EQ(m.std_dev, 0.0);
}

TEST(StatCheck, WithinStatBandAcceptsSmallDeviations) {
  std::vector<double> samples(200, 0.5);
  for (size_t i = 0; i < samples.size(); i += 2) samples[i] = 0.6;
  testing::SampleMoments m = testing::ComputeMoments(samples);
  EXPECT_EQ(testing::CheckWithinStatBand(m.mean, m.mean + 1e-4, samples, 1.0,
                                         0.01, 0.0, "unit"),
            "");
}

TEST(StatCheck, WithinStatBandRejectsLargeDeviations) {
  std::vector<double> samples(200, 0.5);
  std::string msg = testing::CheckWithinStatBand(0.5, 0.9, samples, 1.0, 0.01,
                                                 0.0, "unit");
  EXPECT_NE(msg, "");
  EXPECT_NE(msg.find("unit"), std::string::npos);
}

TEST(StatCheck, BiasSlackWidensTheBand) {
  // Constant samples: the CLT term is zero and the Hoeffding band at
  // n=200, delta=0.01, range 1 is ~0.115 — a 0.2 deviation fails
  // without slack and passes once the slack absorbs it.
  std::vector<double> samples(200, 0.5);
  EXPECT_NE(testing::CheckWithinStatBand(0.5, 0.7, samples, 1.0, 0.01, 0.0,
                                         "unit"),
            "");
  EXPECT_EQ(testing::CheckWithinStatBand(0.5, 0.7, samples, 1.0, 0.01, 0.15,
                                         "unit"),
            "");
}

TEST(StatCheck, TopKMatchesScoresCatchesWrongNodeAndWrongScore) {
  std::vector<double> scores = {0.1, 0.9, 0.4, 0.8, 0.2};
  std::vector<Scored> good = {{3, 0.8}, {2, 0.4}};  // query 1 excluded
  EXPECT_EQ(testing::CheckTopKMatchesScores(good, scores, 1, 2, "unit"), "");
  std::vector<Scored> wrong_node = {{3, 0.8}, {4, 0.2}};
  EXPECT_NE(testing::CheckTopKMatchesScores(wrong_node, scores, 1, 2, "unit"),
            "");
  std::vector<Scored> wrong_score = {{3, 0.8}, {2, 0.41}};
  EXPECT_NE(testing::CheckTopKMatchesScores(wrong_score, scores, 1, 2, "unit"),
            "");
}

TEST(StatCheck, TopKRankAgreementAllowsNearTiesOnly) {
  std::vector<double> oracle = {0.0, 0.9, 0.50, 0.49, 0.1};
  // Selecting node 3 (0.49) over node 2 (0.50) is a near-tie: fine at
  // tolerance 0.05, a violation at tolerance 0.001.
  std::vector<Scored> topk = {{1, 0.9}, {3, 0.52}};
  EXPECT_EQ(testing::CheckTopKRankAgreement(topk, oracle, 0, 0.05, "unit"),
            "");
  std::vector<Scored> bad = {{1, 0.9}, {4, 0.52}};  // 0.1 is far from 0.50
  EXPECT_NE(testing::CheckTopKRankAgreement(bad, oracle, 0, 0.05, "unit"), "");
}

// ---- taxonomy / concept-map persistence -----------------------------------

class TaxonomyIoTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    return ::testing::TempDir() + "semsim_taxio_" + name;
  }
};

TEST_F(TaxonomyIoTest, RandomTaxonomyRoundTrips) {
  testing::RandomTaxonomyOptions opt;
  opt.seed = 21;
  opt.num_concepts = 14;
  opt.num_roots = 2;  // exercises the synthetic "<ROOT>"
  Taxonomy t = Unwrap(testing::GenerateRandomTaxonomy(opt));
  std::string path = Path("roundtrip.tax");
  ASSERT_TRUE(SaveTaxonomy(t, path).ok());
  Taxonomy loaded = Unwrap(LoadTaxonomy(path));
  ASSERT_EQ(loaded.num_concepts(), t.num_concepts());
  for (ConceptId c = 0; c < t.num_concepts(); ++c) {
    EXPECT_EQ(loaded.name(c), t.name(c));
    EXPECT_EQ(loaded.parent(c), t.parent(c));
    EXPECT_EQ(loaded.depth(c), t.depth(c));
  }
  std::remove(path.c_str());
}

TEST_F(TaxonomyIoTest, LoadRejectsUnknownDirectiveAndUnknownParent) {
  std::string bad_dir = Path("baddir.tax");
  {
    std::ofstream out(bad_dir);
    out << "c Root -\nx what\n";
  }
  EXPECT_FALSE(LoadTaxonomy(bad_dir).ok());
  std::remove(bad_dir.c_str());

  std::string bad_parent = Path("badparent.tax");
  {
    std::ofstream out(bad_parent);
    out << "c Root -\nc Child Nowhere\n";
  }
  EXPECT_FALSE(LoadTaxonomy(bad_parent).ok());
  std::remove(bad_parent.c_str());
}

TEST_F(TaxonomyIoTest, ConceptMapRoundTripsAndRejectsCorruption) {
  TaxonomyBuilder tb;
  ConceptId root = tb.AddConcept("Root");
  ConceptId a = tb.AddConcept("A", root);
  ConceptId b = tb.AddConcept("B", root);
  Taxonomy t = Unwrap(std::move(tb).Build());

  std::vector<ConceptId> map = {a, b, a, root};
  std::string path = Path("map.map");
  ASSERT_TRUE(SaveConceptMap(t, map, path).ok());
  std::vector<ConceptId> loaded = Unwrap(LoadConceptMap(t, path));
  EXPECT_EQ(loaded, map);
  std::remove(path.c_str());

  auto write_and_reject = [&](const std::string& name,
                              const std::string& body) {
    std::string p = Path(name);
    {
      std::ofstream out(p);
      out << body;
    }
    EXPECT_FALSE(LoadConceptMap(t, p).ok()) << name;
    std::remove(p.c_str());
  };
  write_and_reject("unknown.map", "m 0 Nowhere\n");
  write_and_reject("dupe.map", "m 0 A\nm 0 B\n");
  write_and_reject("gap.map", "m 0 A\nm 2 B\n");
}

// ---- estimator option validation ------------------------------------------

TEST(ValidateMcOptions, EnforcesDecayDomainAndLemmaBound) {
  EXPECT_TRUE(ValidateMcOptions(SemSimMcOptions{0.6, 0.0}).ok());
  EXPECT_TRUE(ValidateMcOptions(SemSimMcOptions{0.6, 0.4}).ok());  // boundary
  for (double decay : {0.0, 1.0, -0.2, 1.5}) {
    EXPECT_FALSE(ValidateMcOptions(SemSimMcOptions{decay, 0.0}).ok())
        << "decay=" << decay;
  }
  Status over = ValidateMcOptions(SemSimMcOptions{0.6, 0.41});
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.ToString().find("Lemma 4.7"), std::string::npos);
}

// ---- the harness itself ---------------------------------------------------

TEST(Differential, ConfigDerivationIsDeterministicAndValid) {
  for (uint64_t seed : {1ull, 7ull, 123ull, 4096ull}) {
    testing::DifferentialConfig a = testing::MakeDifferentialConfig(seed);
    testing::DifferentialConfig b = testing::MakeDifferentialConfig(seed);
    EXPECT_EQ(a.Describe(), b.Describe());
    EXPECT_GT(a.mc.decay, 0.0);
    EXPECT_LT(a.mc.decay, 1.0);
    EXPECT_LE(a.mc.theta, 1.0 - a.mc.decay);
    EXPECT_GE(a.threads, 2);
  }
}

TEST(StatCheck, StatBandIsTheBoundaryOfTheCheck) {
  std::vector<double> samples(200, 0.5);
  for (size_t i = 0; i < samples.size(); i += 3) samples[i] = 0.8;
  testing::StatBand band = testing::ComputeStatBand(samples, 1.0, 0.01, 0.02);
  EXPECT_DOUBLE_EQ(band.epsilon, std::max(band.clt, band.hoeffding) + 0.02);
  EXPECT_EQ(testing::CheckWithinStatBand(0.5, 0.5 + 0.999 * band.epsilon,
                                         samples, 1.0, 0.01, 0.02, "unit"),
            "");
  EXPECT_NE(testing::CheckWithinStatBand(0.5, 0.5 + 1.001 * band.epsilon,
                                         samples, 1.0, 0.01, 0.02, "unit"),
            "");
}

TEST(Differential, CountsVacuousCheckFBandsAndMergesThem) {
  testing::DifferentialOptions opt;
  testing::DifferentialReport a = testing::RunDifferentialSweep(1, 2, opt);
  testing::DifferentialReport b = testing::RunDifferentialSweep(3, 2, opt);
  EXPECT_GT(a.f_checks, 0);
  EXPECT_LE(a.f_vacuous_checks, a.f_checks);
  EXPECT_LE(a.f_checks, a.stat_checks);
  testing::DifferentialReport merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.f_checks, a.f_checks + b.f_checks);
  EXPECT_EQ(merged.f_vacuous_checks, a.f_vacuous_checks + b.f_vacuous_checks);
}

TEST(Differential, SmallSweepPassesCleanly) {
  testing::DifferentialOptions opt;
  testing::DifferentialReport report =
      testing::RunDifferentialSweep(1, 10, opt);
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
  EXPECT_EQ(report.instances, 10);
  EXPECT_GT(report.bit_checks, 0);
  EXPECT_GT(report.stat_checks, 0);
}

// sem = 1 on the diagonal and `off` elsewhere.
class ConstantMeasure : public SemanticMeasure {
 public:
  explicit ConstantMeasure(double off) : off_(off) {}
  double Sim(NodeId a, NodeId b) const override { return a == b ? 1 : off_; }
  std::string_view name() const override { return "constant"; }

 private:
  double off_;
};

TEST(Differential, MaxWalkWeightsOfAOneStepMeeting) {
  // a -> u (2), b -> u (1), a -> v (3); a and b have no in-edges, so the
  // only meeting from (u, v) is the step to (a, a).
  HinBuilder hb;
  NodeId a = hb.AddNode("a", "x");
  NodeId b = hb.AddNode("b", "x");
  NodeId u = hb.AddNode("u", "x");
  NodeId v = hb.AddNode("v", "x");
  ASSERT_TRUE(hb.AddEdge(a, u, "r", 2.0).ok());
  ASSERT_TRUE(hb.AddEdge(b, u, "r", 1.0).ok());
  ASSERT_TRUE(hb.AddEdge(a, v, "r", 3.0).ok());
  Hin g = Unwrap(std::move(hb).Build());
  ConstantMeasure sem(0.5);
  // SO(u,v) = 2·3·1 + 1·3·0.5 = 7.5; the step to (a,a) has P = 6/7.5.
  const size_t n = g.num_nodes();
  std::vector<double> weighted =
      testing::MaxWalkWeights(g, sem, 0.6, 5, /*weighted_q=*/true);
  std::vector<double> uniform =
      testing::MaxWalkWeights(g, sem, 0.6, 5, /*weighted_q=*/false);
  // Weighted Q = (2/3)·(3/3); uniform Q = (1/2)·(1/1).
  EXPECT_NEAR(weighted[u * n + v], 0.6 * 0.8 / (2.0 / 3.0), 1e-12);
  EXPECT_NEAR(uniform[u * n + v], 0.6 * 0.8 / 0.5, 1e-12);
  EXPECT_EQ(weighted[v * n + u], weighted[u * n + v]);
  EXPECT_EQ(weighted[u * n + u], 0.0);
  EXPECT_EQ(weighted[a * n + b], 0.0);  // no in-edges, no meeting
}

// Seed 1274: heavy-tailed log weights under a weighted proposal. Pair
// (0, 2) meets mostly through an in-edge of weight 0.06 next to ones of
// 11 and 3.8, which Q picks 0.4% of the time but P ~80%: its 216 walks
// expect 0.85 such steps, and the estimate reads 0.005 against the
// oracle's 0.31. The estimator is unbiased there (it converges as n_w
// grows), so check F must size its Hoeffding band from the a priori
// sample range (78 here), not from the largest sample it happened to
// observe.
TEST(Differential, HeavyTailWeightedProposalSeedPasses) {
  testing::DifferentialConfig cfg = testing::MakeDifferentialConfig(1274);
  ASSERT_TRUE(cfg.walks.weighted);
  ASSERT_TRUE(cfg.hin.heavy_tail_weights);
  testing::DifferentialReport report =
      testing::RunDifferentialInstance(cfg, testing::DifferentialOptions{});
  EXPECT_TRUE(report.ok()) << (report.violations.empty()
                                   ? ""
                                   : report.violations.front());
  EXPECT_GT(report.stat_checks, 0);

  Hin g = Unwrap(testing::GenerateRandomHin(cfg.hin));
  SemanticContext ctx = Unwrap(testing::GenerateRandomContext(g, cfg.taxonomy));
  ASSERT_EQ(cfg.measure, testing::MeasureKind::kWuPalmer);
  WuPalmerMeasure sem(&ctx);
  std::vector<double> bound = testing::MaxWalkWeights(
      g, sem, cfg.mc.decay, cfg.walks.walk_length, cfg.walks.weighted);
  EXPECT_GT(sem.Sim(0, 2) * bound[0 * g.num_nodes() + 2], 10.0);
}

TEST(Differential, SelfTestPerturbationProducesActionableViolation) {
  // "Testing the tester": a 1e-6 nudge on one engine result must trip
  // the bit-identity net and the violation must carry the replay command.
  testing::DifferentialConfig cfg = testing::MakeDifferentialConfig(42);
  testing::DifferentialOptions opt;
  opt.self_test_perturbation = 1e-6;
  testing::DifferentialReport report =
      testing::RunDifferentialInstance(cfg, opt);
  ASSERT_FALSE(report.ok());
  const std::string& v = report.violations.front();
  EXPECT_NE(v.find("engine-equivalence"), std::string::npos) << v;
  EXPECT_NE(v.find("--seed=42"), std::string::npos) << v;
  EXPECT_NE(v.find(testing::ReproCommand(42)), std::string::npos) << v;
}

TEST(Differential, FailingInstanceDumpsReplayableFiles) {
  std::string dir = ::testing::TempDir() + "semsim_diff_dump";
  std::filesystem::remove_all(dir);
  testing::DifferentialConfig cfg = testing::MakeDifferentialConfig(42);
  testing::DifferentialOptions opt;
  opt.self_test_perturbation = 1e-6;
  opt.dump_dir = dir;
  testing::DifferentialReport report =
      testing::RunDifferentialInstance(cfg, opt);
  ASSERT_FALSE(report.ok());
  ASSERT_FALSE(report.dumped_files.empty());

  // Every dumped artifact must exist and the graph/taxonomy/concept-map
  // triple must round-trip through the public loaders.
  Hin original = Unwrap(testing::GenerateRandomHin(cfg.hin));
  bool saw_hin = false, saw_tax = false, saw_map = false;
  Taxonomy loaded_tax;
  std::string map_path;
  for (const std::string& f : report.dumped_files) {
    EXPECT_TRUE(std::filesystem::exists(f)) << f;
    if (f.ends_with(".hin")) {
      saw_hin = true;
      Hin g = Unwrap(LoadHin(f));
      EXPECT_EQ(g.num_nodes(), original.num_nodes());
      EXPECT_EQ(g.num_edges(), original.num_edges());
    } else if (f.ends_with(".tax")) {
      saw_tax = true;
      loaded_tax = Unwrap(LoadTaxonomy(f));
      EXPECT_GT(loaded_tax.num_concepts(), 0u);
    } else if (f.ends_with(".map")) {
      saw_map = true;
      map_path = f;
    }
  }
  EXPECT_TRUE(saw_hin);
  EXPECT_TRUE(saw_tax);
  ASSERT_TRUE(saw_map);
  std::vector<ConceptId> map = Unwrap(LoadConceptMap(loaded_tax, map_path));
  EXPECT_EQ(map.size(), original.num_nodes());
  std::filesystem::remove_all(dir);
}

TEST(Differential, BiasBoundIsMonotoneInHorizon) {
  // c^min(t,k) + θ: longer horizons shrink the deterministic gap, theta
  // adds linearly.
  EXPECT_GT(testing::DifferentialBias(0.6, 5, 24, 0.0),
            testing::DifferentialBias(0.6, 15, 24, 0.0));
  EXPECT_DOUBLE_EQ(
      testing::DifferentialBias(0.6, 15, 10, 0.0),
      std::pow(0.6, 10));
  EXPECT_NEAR(testing::DifferentialBias(0.6, 15, 24, 0.1) -
                  testing::DifferentialBias(0.6, 15, 24, 0.0),
              0.1, 1e-12);
}

}  // namespace
}  // namespace semsim
