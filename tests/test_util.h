#ifndef SEMSIM_TESTS_TEST_UTIL_H_
#define SEMSIM_TESTS_TEST_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "datasets/dataset.h"
#include "graph/hin.h"
#include "taxonomy/semantic_context.h"

namespace semsim {
namespace testutil {

/// Unwraps a Result in tests, aborting with the status on error.
template <typename T>
T Unwrap(Result<T> result) {
  SEMSIM_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A small weighted HIN with an embedded 2-level taxonomy, handy for
/// exact-value tests. Layout:
///
///   taxonomy:  Root -> {CatA, CatB};  CatA -> {a0,a1,a2};  CatB -> {b0,b1}
///   entities:  a0,a1,a2,b0,b1 (each its own leaf concept)
///   structure: a0-a1 (w2), a1-a2 (w1), a0-a2 (w1), b0-b1 (w3),
///              a2-b0 (w1)   -- all undirected, label "rel"
///   is_a:      entity->category and category->Root, undirected.
struct SmallWorld {
  Hin graph;
  SemanticContext context;
  NodeId a0, a1, a2, b0, b1, cat_a, cat_b, root;
};

inline SmallWorld MakeSmallWorld() {
  TaxonomyBuilder tax;
  ConceptId root_c = tax.AddConcept("Root");
  ConceptId cat_a_c = tax.AddConcept("CatA", root_c);
  ConceptId cat_b_c = tax.AddConcept("CatB", root_c);
  ConceptId a_c[3] = {tax.AddConcept("a0", cat_a_c),
                      tax.AddConcept("a1", cat_a_c),
                      tax.AddConcept("a2", cat_a_c)};
  ConceptId b_c[2] = {tax.AddConcept("b0", cat_b_c),
                      tax.AddConcept("b1", cat_b_c)};
  Taxonomy taxonomy = Unwrap(std::move(tax).Build());

  HinBuilder hin;
  SmallWorld w;
  std::vector<ConceptId> node_concept;
  auto add = [&](const std::string& name, std::string_view label,
                 ConceptId c) {
    NodeId v = hin.AddNode(name, label);
    node_concept.push_back(c);
    return v;
  };
  w.root = add("Root", "concept", root_c);
  w.cat_a = add("CatA", "concept", cat_a_c);
  w.cat_b = add("CatB", "concept", cat_b_c);
  w.a0 = add("a0", "entity", a_c[0]);
  w.a1 = add("a1", "entity", a_c[1]);
  w.a2 = add("a2", "entity", a_c[2]);
  w.b0 = add("b0", "entity", b_c[0]);
  w.b1 = add("b1", "entity", b_c[1]);

  auto ue = [&](NodeId x, NodeId y, std::string_view label, double weight) {
    SEMSIM_CHECK(hin.AddUndirectedEdge(x, y, label, weight).ok());
  };
  ue(w.cat_a, w.root, "is_a", 1);
  ue(w.cat_b, w.root, "is_a", 1);
  ue(w.a0, w.cat_a, "is_a", 1);
  ue(w.a1, w.cat_a, "is_a", 1);
  ue(w.a2, w.cat_a, "is_a", 1);
  ue(w.b0, w.cat_b, "is_a", 1);
  ue(w.b1, w.cat_b, "is_a", 1);
  ue(w.a0, w.a1, "rel", 2);
  ue(w.a1, w.a2, "rel", 1);
  ue(w.a0, w.a2, "rel", 1);
  ue(w.b0, w.b1, "rel", 3);
  ue(w.a2, w.b0, "rel", 1);

  w.graph = Unwrap(std::move(hin).Build());
  w.context = Unwrap(SemanticContext::FromTaxonomy(std::move(taxonomy),
                                                   std::move(node_concept)));
  return w;
}

/// The canonical SimRank toy graph from Jeh & Widom's paper: University,
/// ProfA, ProfB, StudentA, StudentB with directed edges
///   Univ -> ProfA, Univ -> ProfB, ProfA -> StudentA, ProfB -> StudentB,
///   StudentA -> Univ, StudentB -> ProfB.
struct JehWidomWorld {
  Hin graph;
  NodeId univ, prof_a, prof_b, student_a, student_b;
};

inline JehWidomWorld MakeJehWidomWorld() {
  HinBuilder hin;
  JehWidomWorld w;
  w.univ = hin.AddNode("Univ", "org");
  w.prof_a = hin.AddNode("ProfA", "person");
  w.prof_b = hin.AddNode("ProfB", "person");
  w.student_a = hin.AddNode("StudentA", "person");
  w.student_b = hin.AddNode("StudentB", "person");
  auto e = [&](NodeId s, NodeId d) {
    SEMSIM_CHECK(hin.AddEdge(s, d, "edge", 1.0).ok());
  };
  e(w.univ, w.prof_a);
  e(w.univ, w.prof_b);
  e(w.prof_a, w.student_a);
  e(w.prof_b, w.student_b);
  e(w.student_a, w.univ);
  e(w.student_b, w.prof_b);
  w.graph = Unwrap(std::move(hin).Build());
  return w;
}

/// A taxonomy with more groups than NormalizerGroups' table cap: a chain
/// of 1100 internal concepts, each with a leaf child, one node per
/// concept (2200 singleton groups, since each leaf has its own parent),
/// and 4 random weighted edges per node.
inline Dataset MakeAboveCapChain() {
  constexpr int kDepth = 1100;
  TaxonomyBuilder tb;
  std::vector<ConceptId> chain = {tb.AddConcept("c0")};
  std::vector<ConceptId> concepts = {chain[0]};
  for (int i = 1; i < kDepth; ++i) {
    chain.push_back(tb.AddConcept("c" + std::to_string(i), chain.back()));
    concepts.push_back(chain.back());
  }
  for (int i = 0; i < kDepth; ++i) {
    concepts.push_back(tb.AddConcept("l" + std::to_string(i), chain[i]));
  }
  Taxonomy taxonomy = Unwrap(std::move(tb).Build());
  std::vector<double> ic(taxonomy.num_concepts());
  for (int i = 0; i < kDepth; ++i) {
    ic[chain[i]] = 0.05 + 0.9 * i / kDepth;
    ic[concepts[kDepth + i]] = 0.96;
  }
  HinBuilder hb;
  for (size_t i = 0; i < concepts.size(); ++i) {
    hb.AddNode("n" + std::to_string(i), "t");
  }
  Rng rng(11);
  const size_t n = concepts.size();
  for (size_t e = 0; e < 4 * n; ++e) {
    const NodeId from = static_cast<NodeId>(rng.NextIndex(n));
    const NodeId to = static_cast<NodeId>(rng.NextIndex(n));
    SEMSIM_CHECK(hb.AddEdge(from, to, "e", 0.5 + rng.NextDouble()).ok());
  }
  Dataset d;
  d.name = "above-cap chain";
  d.graph = Unwrap(std::move(hb).Build());
  d.context = Unwrap(SemanticContext::FromTaxonomyWithIc(
      std::move(taxonomy), concepts, std::move(ic)));
  return d;
}

}  // namespace testutil
}  // namespace semsim

#endif  // SEMSIM_TESTS_TEST_UTIL_H_
