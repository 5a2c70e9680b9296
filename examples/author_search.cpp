// Author similarity search on a bibliographic network (the paper's AMiner
// scenario, Sec. 5.3): generate a synthetic co-authorship HIN with an
// embedded CS + geography taxonomy, build the SemSim engine, and run
// top-k "find similar authors" queries — including retrieving injected
// duplicate author entries, the entity-resolution task of Fig. 5(b).
//
// Run: ./build/examples/author_search [num_authors] [seed]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine_snapshot.h"
#include "core/topk.h"
#include "datasets/aminer_gen.h"
#include "taxonomy/semantic_measure.h"

int main(int argc, char** argv) {
  using namespace semsim;

  AminerOptions gen;
  gen.num_authors = argc > 1 ? std::atoi(argv[1]) : 400;
  gen.num_duplicates = 5;
  gen.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  Result<Dataset> dataset_result = GenerateAminer(gen);
  if (!dataset_result.ok()) {
    std::fprintf(stderr, "%s\n", dataset_result.status().ToString().c_str());
    return 1;
  }
  Dataset dataset = std::move(dataset_result).value();
  const Hin& g = dataset.graph;
  std::printf("bibliographic HIN: %zu nodes, %zu edges (seed %llu)\n\n",
              g.num_nodes(), g.num_edges(),
              static_cast<unsigned long long>(gen.seed));

  LinMeasure lin(&dataset.context);
  EngineSnapshotOptions options;  // paper defaults: c=0.6
  options.query.mc.theta = 0.05;
  options.normalizer_cache_capacity = 0;
  // WalkIndexOptions{}: the paper's n_w=150, t=15.
  EngineSnapshotPtr snap = EngineSnapshot::Build(Unowned(&g), Unowned(&lin),
                                                 WalkIndexOptions{}, options, 0)
                               .value();
  auto top_k = [&](NodeId query, size_t k, const std::vector<NodeId>& pool) {
    return McTopK(snap->estimator(), query, k, options.query.mc, &pool);
  };

  // Candidate pool: author nodes only.
  std::vector<NodeId> authors;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.label_name(g.node_label(v)) == "author") authors.push_back(v);
  }

  // A couple of ordinary similarity searches.
  for (NodeId query : {authors[3], authors[42 % authors.size()]}) {
    std::printf("authors most similar to %s:\n",
                std::string(g.node_name(query)).c_str());
    for (const Scored& s : top_k(query, 5, authors)) {
      std::printf("  %-14s %.5f\n", std::string(g.node_name(s.node)).c_str(),
                  s.score);
    }
    std::printf("\n");
  }

  // Entity resolution: can the engine surface the injected duplicates?
  std::printf("duplicate-entry retrieval (rank of the clone in the top-10 "
              "of its original):\n");
  int found = 0;
  for (const auto& [original, clone] : dataset.duplicate_pairs) {
    auto top = top_k(original, 10, authors);
    int rank = -1;
    for (size_t i = 0; i < top.size(); ++i) {
      if (top[i].node == clone) {
        rank = static_cast<int>(i) + 1;
        break;
      }
    }
    if (rank > 0) ++found;
    std::string verdict =
        rank > 0 ? "rank " + std::to_string(rank) : "not in top-10";
    std::printf("  %-14s -> %-16s %s\n",
                std::string(g.node_name(original)).c_str(),
                std::string(g.node_name(clone)).c_str(), verdict.c_str());
  }
  std::printf("retrieved %d / %zu duplicates in the top-10\n", found,
              dataset.duplicate_pairs.size());
  return 0;
}
