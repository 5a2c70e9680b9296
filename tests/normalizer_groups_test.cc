#include "core/normalizer_groups.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/mc_semsim.h"
#include "datasets/amazon_gen.h"
#include "datasets/aminer_gen.h"
#include "taxonomy/semantic_measure.h"
#include "testing/random_hin.h"
#include "testing/random_taxonomy.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;

// The definition: Σ_{a∈In(lo), b∈In(hi)} w_a·w_b·sem(a,b) through the
// virtual measure, one term per in-edge pair.
double D2Normalizer(const Hin& g, const SemanticMeasure& m, NodeId lo,
                    NodeId hi) {
  double norm = 0;
  for (const Neighbor& a : g.InNeighbors(lo)) {
    for (const Neighbor& b : g.InNeighbors(hi)) {
      norm += a.weight * b.weight * m.Sim(a.node, b.node);
    }
  }
  return norm;
}

// Grouped sum vs the d² sum for the ordered pairs (lo, hi), lo <= hi, of
// `nodes` (all nodes when empty).
template <typename Measure>
void ExpectGroupedMatchesD2(const Hin& g, const SemanticContext& ctx,
                            const std::string& tag,
                            std::vector<NodeId> nodes = {}) {
  Measure measure(&ctx);
  NormalizerGroups groups = NormalizerGroups::Build(g, ctx, measure);
  if (nodes.empty()) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) nodes.push_back(v);
  }
  std::sort(nodes.begin(), nodes.end());
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i; j < nodes.size(); ++j) {
      const NodeId lo = nodes[i];
      const NodeId hi = nodes[j];
      const double want = D2Normalizer(g, measure, lo, hi);
      const double got = groups.Sum(lo, hi);
      EXPECT_NEAR(got, want, 1e-12 + 1e-10 * want)
          << tag << " " << measure.name() << " pair (" << lo << "," << hi
          << ")";
      const uint64_t d_lo = g.InDegree(lo);
      const uint64_t d_hi = g.InDegree(hi);
      EXPECT_LE(groups.Work(lo, hi), d_lo * d_hi + d_lo + d_hi);
    }
  }
}

void ExpectAllMeasures(const Hin& g, const SemanticContext& ctx,
                       const std::string& tag) {
  ExpectGroupedMatchesD2<LinMeasure>(g, ctx, tag);
  ExpectGroupedMatchesD2<ResnikMeasure>(g, ctx, tag);
  ExpectGroupedMatchesD2<WuPalmerMeasure>(g, ctx, tag);
  ExpectGroupedMatchesD2<PathMeasure>(g, ctx, tag);
}

// Random HINs (parallel edges, self-loops, dangling nodes, skewed
// degrees) over random taxonomies with several nodes per concept. The IC
// of every concept is drawn from three values, so some sibling leaves
// share their IC (one group) and some do not (separate groups).
TEST(NormalizerGroups, RandomInstancesMatchD2Sum) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng r(seed * 0x9E3779B97F4A7C15ULL);
    testing::RandomHinOptions hin;
    hin.seed = r.Next();
    hin.num_nodes = 20 + static_cast<int>(r.NextIndex(30));
    hin.edge_label_alphabet = 1 + static_cast<int>(r.NextIndex(3));
    hin.avg_out_degree = 2.0 + 4.0 * r.NextDouble();
    hin.degree_skew = r.NextIndex(2) == 0 ? 0.0 : 1.5;
    hin.dangling_fraction = r.NextIndex(2) == 0 ? 0.2 : 0.0;
    hin.self_loop_fraction = 0.1;
    hin.parallel_edge_fraction = 0.2;
    hin.heavy_tail_weights = r.NextIndex(2) == 0;
    if (hin.heavy_tail_weights) {
      hin.min_weight = 0.05;
      hin.max_weight = 20.0;
    }
    Hin g = Unwrap(testing::GenerateRandomHin(hin));

    testing::RandomTaxonomyOptions tax;
    tax.seed = r.Next();
    tax.num_concepts = 3 + static_cast<int>(r.NextIndex(12));
    tax.shape = static_cast<testing::TaxonomyShape>(seed % 4);
    tax.num_roots = 1 + static_cast<int>(r.NextIndex(2));
    Taxonomy taxonomy = Unwrap(testing::GenerateRandomTaxonomy(tax));
    std::vector<double> ic(taxonomy.num_concepts());
    for (double& x : ic) x = std::array{0.35, 0.6, 0.9}[r.NextIndex(3)];
    std::vector<ConceptId> node_concept(g.num_nodes());
    for (ConceptId& c : node_concept) {
      c = static_cast<ConceptId>(r.NextIndex(taxonomy.num_concepts()));
    }
    SemanticContext ctx = Unwrap(SemanticContext::FromTaxonomyWithIc(
        std::move(taxonomy), std::move(node_concept), std::move(ic)));
    ExpectAllMeasures(g, ctx, "seed " + std::to_string(seed));

    // The same graph under Seco IC, where every leaf has the same IC and
    // sibling leaves always merge.
    SemanticContext seco = Unwrap(testing::GenerateRandomContext(g, tax));
    ExpectAllMeasures(g, seco, "seco seed " + std::to_string(seed));
  }
}

// A hand-built instance with every case named:
//
//   R ─┬─ P ─┬─ L1 (IC .9)   L1, L2: one group (same parent and IC)
//      │     ├─ L2 (IC .9)
//      │     └─ L3 (IC .6)   same parent, other IC: its own group
//      ├─ S (leaf, IC .8)    a leaf group of one concept
//      └─ Q ── Q1 (IC .9)    other parent: its own group
//
// Nodes a1, a2 both map to L1; a1 reaches u over two edge labels; z has
// no in-neighbours; u and v share concept L1 among their in-neighbours,
// so only the same-concept correction makes their normalizer exact.
struct Handmade {
  Hin graph;
  SemanticContext context;
  NodeId a1, a2, b1, c1, s1, p1, q1, u, v, z;
};

Handmade MakeHandmade() {
  TaxonomyBuilder tb;
  ConceptId root = tb.AddConcept("R");
  ConceptId p = tb.AddConcept("P", root);
  ConceptId l1 = tb.AddConcept("L1", p);
  ConceptId l2 = tb.AddConcept("L2", p);
  ConceptId l3 = tb.AddConcept("L3", p);
  ConceptId s = tb.AddConcept("S", root);
  ConceptId q = tb.AddConcept("Q", root);
  ConceptId q1 = tb.AddConcept("Q1", q);
  Taxonomy taxonomy = Unwrap(std::move(tb).Build());
  std::vector<double> ic(taxonomy.num_concepts());
  ic[root] = 0.05;
  ic[p] = 0.3;
  ic[l1] = 0.9;
  ic[l2] = 0.9;
  ic[l3] = 0.6;
  ic[s] = 0.8;
  ic[q] = 0.4;
  ic[q1] = 0.9;

  HinBuilder hb;
  Handmade h;
  std::vector<ConceptId> node_concept;
  auto add = [&](const char* name, ConceptId c) {
    node_concept.push_back(c);
    return hb.AddNode(name, "x");
  };
  h.a1 = add("a1", l1);
  h.a2 = add("a2", l1);
  h.b1 = add("b1", l2);
  h.c1 = add("c1", l3);
  h.s1 = add("s1", s);
  h.p1 = add("p1", p);
  h.q1 = add("q1", q1);
  h.u = add("u", s);
  h.v = add("v", q1);
  h.z = add("z", l2);
  EXPECT_TRUE(hb.AddEdge(h.a1, h.u, "r0", 2.0).ok());
  EXPECT_TRUE(hb.AddEdge(h.a1, h.u, "r1", 0.5).ok());
  EXPECT_TRUE(hb.AddEdge(h.a2, h.u, "r0", 1.0).ok());
  EXPECT_TRUE(hb.AddEdge(h.b1, h.u, "r0", 1.5).ok());
  EXPECT_TRUE(hb.AddEdge(h.c1, h.u, "r0", 0.7).ok());
  EXPECT_TRUE(hb.AddEdge(h.s1, h.u, "r0", 1.2).ok());
  EXPECT_TRUE(hb.AddEdge(h.p1, h.u, "r0", 0.3).ok());
  EXPECT_TRUE(hb.AddEdge(h.a1, h.v, "r0", 1.1).ok());
  EXPECT_TRUE(hb.AddEdge(h.b1, h.v, "r1", 0.4).ok());
  EXPECT_TRUE(hb.AddEdge(h.c1, h.v, "r0", 2.0).ok());
  EXPECT_TRUE(hb.AddEdge(h.q1, h.v, "r0", 0.9).ok());
  EXPECT_TRUE(hb.AddEdge(h.s1, h.v, "r0", 1.0).ok());
  // Edges into the sources too, so a1..q1 have in-neighbourhoods.
  EXPECT_TRUE(hb.AddEdge(h.u, h.a1, "r0", 1.0).ok());
  EXPECT_TRUE(hb.AddEdge(h.v, h.a2, "r0", 1.0).ok());
  EXPECT_TRUE(hb.AddEdge(h.u, h.b1, "r0", 3.0).ok());
  EXPECT_TRUE(hb.AddEdge(h.v, h.b1, "r0", 0.2).ok());
  h.graph = Unwrap(std::move(hb).Build());
  h.context = Unwrap(SemanticContext::FromTaxonomyWithIc(
      std::move(taxonomy), std::move(node_concept), std::move(ic)));
  return h;
}

TEST(NormalizerGroups, HandmadeCasesMatchD2Sum) {
  Handmade h = MakeHandmade();
  ExpectAllMeasures(h.graph, h.context, "handmade");
}

TEST(NormalizerGroups, HandmadeGroupStructure) {
  Handmade h = MakeHandmade();
  LinMeasure lin(&h.context);
  NormalizerGroups groups = NormalizerGroups::Build(h.graph, h.context, lin);
  // The entry of In(u) holding `node`'s group.
  auto group_of = [&](NodeId node) {
    const uint32_t g = groups.group_of(h.context.concept_of(node));
    for (const NormalizerGroups::GroupWeight& gw : groups.Groups(h.u)) {
      if (gw.group == g) return gw;
    }
    ADD_FAILURE() << "no group of node " << node << " in In(u)";
    return NormalizerGroups::GroupWeight{g, 0};
  };

  // In(u): {L1, L2} (a1 twice, a2, b1), L3 (c1), S (s1), P (p1).
  ASSERT_EQ(groups.Groups(h.u).size(), 4u);
  const NormalizerGroups::GroupWeight l12 = group_of(h.a1);
  EXPECT_EQ(l12.weight, 2.0 + 0.5 + 1.0 + 1.5);
  EXPECT_EQ(group_of(h.b1).group, l12.group);
  // S(g,g) of the L1/L2 group is sem of two of its concepts.
  EXPECT_EQ(groups.self_sim(l12.group), lin.Sim(h.a1, h.b1));
  EXPECT_LT(groups.self_sim(l12.group), 1.0);
  // L3 shares L1's parent but not its IC: a group of its own, of one
  // concept. So is the leaf S.
  const NormalizerGroups::GroupWeight l3 = group_of(h.c1);
  EXPECT_NE(l3.group, l12.group);
  EXPECT_EQ(l3.weight, 0.7);
  EXPECT_EQ(groups.self_sim(l3.group), 1.0);
  EXPECT_EQ(groups.self_sim(group_of(h.s1).group), 1.0);

  // Corrections of u: L1 (a1 over both labels, a2) and L2 (b1), in
  // concept order.
  auto corr = groups.Corrections(h.u);
  ASSERT_EQ(corr.size(), 2u);
  EXPECT_EQ(corr[0].concept_id, h.context.concept_of(h.a1));
  EXPECT_EQ(corr[0].weight, 2.0 + 0.5 + 1.0);
  EXPECT_EQ(corr[1].concept_id, h.context.concept_of(h.b1));
  EXPECT_EQ(corr[1].weight, 1.5);

  // A node without in-neighbours has no groups and a zero normalizer.
  EXPECT_TRUE(groups.Groups(h.z).empty());
  EXPECT_TRUE(groups.Corrections(h.z).empty());
  EXPECT_EQ(groups.Sum(h.u, h.z), 0.0);
  EXPECT_EQ(groups.Sum(h.z, h.z), 0.0);
  // z has no correction entries, so the merge reads none of u's.
  EXPECT_EQ(groups.Work(h.u, h.z), 0u);
}

// Hub pairs and random pairs of a generated AMiner graph, where hubs
// have in-degrees in the hundreds yet fall into a handful of groups.
TEST(NormalizerGroups, GeneratedAminerHubsMatchD2Sum) {
  AminerOptions opt;
  opt.num_authors = 600;
  opt.seed = 1;
  Dataset d = Unwrap(GenerateAminer(opt));
  std::vector<NodeId> by_degree(d.graph.num_nodes());
  for (NodeId v = 0; v < d.graph.num_nodes(); ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(), [&](NodeId a, NodeId b) {
    return d.graph.InDegree(a) != d.graph.InDegree(b)
               ? d.graph.InDegree(a) > d.graph.InDegree(b)
               : a < b;
  });
  std::vector<NodeId> nodes(by_degree.begin(), by_degree.begin() + 6);
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.NextIndex(d.graph.num_nodes())));
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  ASSERT_GT(d.graph.InDegree(by_degree[0]), 100u);

  ExpectGroupedMatchesD2<LinMeasure>(d.graph, d.context, "aminer", nodes);
  ExpectGroupedMatchesD2<ResnikMeasure>(d.graph, d.context, "aminer", nodes);
  ExpectGroupedMatchesD2<WuPalmerMeasure>(d.graph, d.context, "aminer",
                                          nodes);
  ExpectGroupedMatchesD2<PathMeasure>(d.graph, d.context, "aminer", nodes);

  LinMeasure lin(&d.context);
  NormalizerGroups groups = NormalizerGroups::Build(d.graph, d.context, lin);
  const NodeId hub = by_degree[0];
  EXPECT_LT(groups.Groups(hub).size() * 10, d.graph.InDegree(hub));
}

// Reference for Sum(): the group double loop, then a linear merge of
// both correction lists in full.
double LinearMergeSum(const NormalizerGroups& groups,
                      const SemanticMeasure& measure, NodeId lo, NodeId hi) {
  double norm = 0;
  for (const NormalizerGroups::GroupWeight& a : groups.Groups(lo)) {
    for (const NormalizerGroups::GroupWeight& b : groups.Groups(hi)) {
      const double s = a.group == b.group
                           ? groups.self_sim(a.group)
                           : measure.Sim(groups.representative(a.group),
                                         groups.representative(b.group));
      norm += a.weight * b.weight * s;
    }
  }
  auto x = groups.Corrections(lo);
  auto y = groups.Corrections(hi);
  size_t i = 0;
  size_t j = 0;
  while (i < x.size() && j < y.size()) {
    if (x[i].concept_id < y[j].concept_id) {
      ++i;
    } else if (y[j].concept_id < x[i].concept_id) {
      ++j;
    } else {
      norm += x[i].weight * y[j].weight * (1.0 - groups.self_sim(x[i].group));
      ++i;
      ++j;
    }
  }
  return norm;
}

// Galloping the short correction list through a hub's long one adds the
// same matches in the same order as the linear merge, so every
// normalizer is bit-identical; hub×hub pairs keep the linear merge.
TEST(NormalizerGroups, GallopingMergeIsBitIdenticalToLinearMerge) {
  AminerOptions opt;
  opt.num_authors = 600;
  opt.seed = 1;
  Dataset d = Unwrap(GenerateAminer(opt));
  LinMeasure lin(&d.context);
  NormalizerGroups groups = NormalizerGroups::Build(d.graph, d.context, lin);
  std::vector<NodeId> by_corrections(d.graph.num_nodes());
  for (NodeId v = 0; v < d.graph.num_nodes(); ++v) by_corrections[v] = v;
  std::sort(by_corrections.begin(), by_corrections.end(),
            [&](NodeId a, NodeId b) {
              const size_t ca = groups.Corrections(a).size();
              const size_t cb = groups.Corrections(b).size();
              return ca != cb ? ca > cb : a < b;
            });
  const std::vector<NodeId> hubs(by_corrections.begin(),
                                 by_corrections.begin() + 4);
  ASSERT_GT(groups.Corrections(hubs[3]).size(), 16u);
  // Leaves with one to three correction entries: the galloping side.
  std::vector<NodeId> leaves;
  for (auto it = by_corrections.rbegin();
       it != by_corrections.rend() && leaves.size() < 40; ++it) {
    const size_t c = groups.Corrections(*it).size();
    if (c >= 1 && c <= 3) leaves.push_back(*it);
  }
  ASSERT_FALSE(leaves.empty());

  // Hub×leaf pairs that share a correction concept, so the galloping
  // merge's match branch runs.
  size_t shared = 0;
  for (NodeId hub : hubs) {
    const uint64_t hub_len = groups.Corrections(hub).size();
    for (NodeId leaf : leaves) {
      const NodeId lo = std::min(hub, leaf);
      const NodeId hi = std::max(hub, leaf);
      uint64_t work = 0;
      const double got = groups.Sum(lo, hi, &work);
      EXPECT_EQ(got, LinearMergeSum(groups, lin, lo, hi))
          << "hub " << hub << " leaf " << leaf;
      EXPECT_EQ(work, groups.Work(lo, hi));
      // Galloping reads far fewer entries than the hub's list.
      const uint64_t group_pairs = static_cast<uint64_t>(
          groups.Groups(lo).size() * groups.Groups(hi).size());
      EXPECT_LT(work - group_pairs, hub_len) << "hub " << hub;
      for (const auto& e : groups.Corrections(leaf)) {
        for (const auto& f : groups.Corrections(hub)) {
          shared += e.concept_id == f.concept_id;
        }
      }
    }
    for (NodeId other : hubs) {
      const NodeId lo = std::min(hub, other);
      const NodeId hi = std::max(hub, other);
      EXPECT_EQ(groups.Sum(lo, hi), LinearMergeSum(groups, lin, lo, hi))
          << "hubs " << lo << "," << hi;
    }
  }
  EXPECT_GT(shared, 0u);
}

// ---- The S table: NodeSim and Sum read it instead of LCA queries ----

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// With the table: NodeSim equals the measure bit for bit on every pair
// of `sim_nodes` (all nodes when empty), and Sum with the table equals
// Sum evaluating S through the measure on every pair (lo, hi), lo <= hi,
// of `sum_nodes` (`sim_nodes` when empty), in bits and work.
template <typename Measure>
void ExpectTableMatchesMeasure(const Hin& g, const SemanticContext& ctx,
                               const std::string& tag,
                               std::vector<NodeId> sim_nodes = {},
                               std::vector<NodeId> sum_nodes = {}) {
  Measure measure(&ctx);
  NormalizerGroups tabled = NormalizerGroups::Build(g, ctx, measure);
  NormalizerGroups untabled = NormalizerGroups::BuildForTesting(
      g, ctx, measure, /*max_table_groups=*/0);
  ASSERT_TRUE(tabled.has_table()) << tag;
  ASSERT_FALSE(untabled.has_table()) << tag;
  ASSERT_EQ(tabled.num_groups(), untabled.num_groups()) << tag;
  if (sim_nodes.empty()) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) sim_nodes.push_back(v);
  }
  if (sum_nodes.empty()) sum_nodes = sim_nodes;
  for (NodeId a : sim_nodes) {
    for (NodeId b : sim_nodes) {
      ASSERT_EQ(Bits(tabled.NodeSim(a, b)), Bits(measure.Sim(a, b)))
          << tag << " pair (" << a << "," << b << ")";
    }
  }
  for (uint32_t x = 0; x < tabled.num_groups(); ++x) {
    ASSERT_EQ(Bits(tabled.self_sim(x)), Bits(untabled.self_sim(x))) << tag;
  }
  std::sort(sum_nodes.begin(), sum_nodes.end());
  for (size_t i = 0; i < sum_nodes.size(); ++i) {
    for (size_t j = i; j < sum_nodes.size(); ++j) {
      const NodeId lo = sum_nodes[i];
      const NodeId hi = sum_nodes[j];
      uint64_t work_tabled = 0;
      uint64_t work_untabled = 0;
      const double with = tabled.Sum(lo, hi, &work_tabled);
      const double without = untabled.Sum(lo, hi, &work_untabled);
      ASSERT_EQ(Bits(with), Bits(without))
          << tag << " pair (" << lo << "," << hi << ")";
      ASSERT_EQ(work_tabled, work_untabled) << tag;
    }
  }
  EXPECT_GT(tabled.MemoryBytes(), untabled.MemoryBytes());
}

void ExpectTableMatchesAllMeasures(const Hin& g, const SemanticContext& ctx,
                                   const std::string& tag,
                                   const std::vector<NodeId>& sim_nodes = {},
                                   const std::vector<NodeId>& sum_nodes = {}) {
  ExpectTableMatchesMeasure<LinMeasure>(g, ctx, tag + " lin", sim_nodes,
                                        sum_nodes);
  ExpectTableMatchesMeasure<ResnikMeasure>(g, ctx, tag + " resnik", sim_nodes,
                                           sum_nodes);
  ExpectTableMatchesMeasure<WuPalmerMeasure>(g, ctx, tag + " wupalmer",
                                             sim_nodes, sum_nodes);
  ExpectTableMatchesMeasure<PathMeasure>(g, ctx, tag + " path", sim_nodes,
                                         sum_nodes);
}

TEST(NormalizerGroupsTable, RandomInstancesMatchMeasureBits) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    Rng r(seed * 0xD1B54A32D192ED03ULL);
    testing::RandomHinOptions hin;
    hin.seed = r.Next();
    hin.num_nodes = 20 + static_cast<int>(r.NextIndex(40));
    hin.avg_out_degree = 2.0 + 4.0 * r.NextDouble();
    hin.degree_skew = r.NextIndex(2) == 0 ? 0.0 : 1.5;
    hin.dangling_fraction = 0.1;
    hin.self_loop_fraction = 0.1;
    hin.parallel_edge_fraction = 0.2;
    Hin g = Unwrap(testing::GenerateRandomHin(hin));

    testing::RandomTaxonomyOptions tax;
    tax.seed = r.Next();
    tax.num_concepts = 3 + static_cast<int>(r.NextIndex(20));
    tax.shape = static_cast<testing::TaxonomyShape>(seed % 4);
    tax.num_roots = 1 + static_cast<int>(r.NextIndex(2));
    Taxonomy taxonomy = Unwrap(testing::GenerateRandomTaxonomy(tax));
    std::vector<double> ic(taxonomy.num_concepts());
    for (double& x : ic) x = std::array{0.35, 0.6, 0.9}[r.NextIndex(3)];
    std::vector<ConceptId> node_concept(g.num_nodes());
    for (ConceptId& c : node_concept) {
      c = static_cast<ConceptId>(r.NextIndex(taxonomy.num_concepts()));
    }
    SemanticContext ctx = Unwrap(SemanticContext::FromTaxonomyWithIc(
        std::move(taxonomy), std::move(node_concept), std::move(ic)));
    ExpectTableMatchesAllMeasures(g, ctx, "seed " + std::to_string(seed));
    SemanticContext seco = Unwrap(testing::GenerateRandomContext(g, tax));
    ExpectTableMatchesAllMeasures(g, seco, "seco seed " + std::to_string(seed));
  }
}

TEST(NormalizerGroupsTable, HandmadeTableEntries) {
  Handmade h = MakeHandmade();
  LinMeasure lin(&h.context);
  NormalizerGroups groups = NormalizerGroups::Build(h.graph, h.context, lin);
  ASSERT_TRUE(groups.has_table());
  // One concept: 1. Two concepts of the L1/L2 group: S(g,g) < 1.
  EXPECT_EQ(groups.NodeSim(h.a1, h.a2), 1.0);
  EXPECT_EQ(groups.NodeSim(h.a1, h.a1), 1.0);
  EXPECT_EQ(groups.NodeSim(h.a1, h.b1), lin.Sim(h.a1, h.b1));
  EXPECT_LT(groups.NodeSim(h.a1, h.b1), 1.0);
  // Across groups, in both orders.
  EXPECT_EQ(groups.NodeSim(h.c1, h.q1), lin.Sim(h.c1, h.q1));
  EXPECT_EQ(groups.NodeSim(h.q1, h.a2), lin.Sim(h.q1, h.a2));
  ExpectTableMatchesAllMeasures(h.graph, h.context, "handmade");
}

std::vector<NodeId> SampleNodes(size_t num_nodes, size_t count,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < count; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.NextIndex(num_nodes)));
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

// Every pair of a generated graph for NodeSim; sampled pairs for Sum.
TEST(NormalizerGroupsTable, GeneratedAminerAndAmazonMatchMeasureBits) {
  AminerOptions aminer;
  aminer.num_authors = 600;
  aminer.seed = 1;
  Dataset a = Unwrap(GenerateAminer(aminer));
  ExpectTableMatchesAllMeasures(a.graph, a.context, "aminer", {},
                               SampleNodes(a.graph.num_nodes(), 120, 3));

  AmazonOptions amazon;
  amazon.num_items = 800;
  Dataset z = Unwrap(GenerateAmazon(amazon));
  ExpectTableMatchesAllMeasures(z.graph, z.context, "amazon", {},
                               SampleNodes(z.graph.num_nodes(), 120, 4));
}

// The above-cap chain (testutil::MakeAboveCapChain): 2200 singleton
// groups. Build keeps no table, and the per-call evaluation gives the
// bits a table built past the cap gives.
TEST(NormalizerGroupsTable, AboveTheCapFallsBackToTheSameBits) {
  Dataset d = testutil::MakeAboveCapChain();
  const Hin& g = d.graph;
  const std::vector<NodeId> nodes = SampleNodes(g.num_nodes(), 150, 12);

  auto check = [&](const SemanticMeasure& measure) {
    NormalizerGroups capped = NormalizerGroups::Build(g, d.context, measure);
    ASSERT_FALSE(capped.has_table()) << measure.name();
    ASSERT_GT(capped.num_groups(), NormalizerGroups::kMaxTableGroups);
    NormalizerGroups tabled = NormalizerGroups::BuildForTesting(
        g, d.context, measure, std::numeric_limits<size_t>::max());
    ASSERT_TRUE(tabled.has_table()) << measure.name();
    for (NodeId a : nodes) {
      for (NodeId b : nodes) {
        ASSERT_EQ(Bits(tabled.NodeSim(a, b)), Bits(measure.Sim(a, b)))
            << measure.name() << " (" << a << "," << b << ")";
        if (a > b) continue;
        ASSERT_EQ(Bits(capped.Sum(a, b)), Bits(tabled.Sum(a, b)))
            << measure.name() << " (" << a << "," << b << ")";
      }
    }
  };
  LinMeasure lin(&d.context);
  check(lin);
  check(ResnikMeasure(&d.context));
  check(WuPalmerMeasure(&d.context));
  check(PathMeasure(&d.context));

  // An estimator over this taxonomy keeps grouped normalizers but calls
  // the measure for sem(u,v), which stays the measure's bits.
  WalkIndexOptions wopt;
  wopt.num_walks = 8;
  wopt.walk_length = 4;
  WalkIndex index = WalkIndex::Build(g, wopt);
  SemSimMcEstimator estimator(&g, &lin, &index);
  ASSERT_TRUE(estimator.AttachGroups());
  EXPECT_TRUE(estimator.normalizer_groups().has_groups());
  EXPECT_FALSE(estimator.normalizer_groups().has_table());
  EXPECT_EQ(estimator.sem_kernel_name(), "virtual-grouped");
  for (NodeId a : nodes) {
    for (NodeId b : nodes) {
      ASSERT_EQ(Bits(estimator.SemValue(a, b)), Bits(lin.Sim(a, b)));
    }
  }
}

}  // namespace
}  // namespace semsim
