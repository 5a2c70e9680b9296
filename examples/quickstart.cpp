// Quickstart: the paper's running example (Figure 1 / Example 2.2).
//
// Builds the small bibliographic HIN, computes SimRank and SemSim exactly
// (iterative form, c = 0.8, k = 3 like the paper), shows that SimRank —
// seeing only structure — considers Bo more similar to Aditi while SemSim
// recovers the intended answer (John), and then answers the same query
// through an EngineSnapshot (walk index + Importance-Sampling estimator
// with pruning).
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cstdio>
#include <iostream>

#include "common/table_printer.h"
#include "core/iterative.h"
#include "core/engine_snapshot.h"
#include "core/topk.h"
#include "datasets/figure1.h"
#include "taxonomy/semantic_measure.h"

int main() {
  using namespace semsim;

  Result<Dataset> dataset_result = MakeFigure1Dataset();
  if (!dataset_result.ok()) {
    std::cerr << dataset_result.status() << "\n";
    return 1;
  }
  Dataset dataset = std::move(dataset_result).value();
  const Hin& g = dataset.graph;
  std::printf("Figure 1 network: %zu nodes, %zu edges\n\n", g.num_nodes(),
              g.num_edges());

  NodeId aditi = g.FindNode("Aditi").value();
  NodeId bo = g.FindNode("Bo").value();
  NodeId john = g.FindNode("John").value();

  // --- The semantic layer: Lin over the embedded taxonomy (Table 1). ---
  LinMeasure lin(&dataset.context);
  std::printf("Lin(Bo, Aditi)   = %.4f   (authors share only the Author "
              "category)\n",
              lin.Sim(bo, aditi));
  NodeId crowd = g.FindNode("Crowd_Mining").value();
  NodeId spatial = g.FindNode("Spatial_Crowdsourcing").value();
  NodeId web = g.FindNode("Web_Data_Mining").value();
  std::printf("Lin(Spatial_Crowdsourcing, Crowd_Mining) = %.3f\n",
              lin.Sim(spatial, crowd));
  std::printf("Lin(Web_Data_Mining,      Crowd_Mining) = %.3f\n\n",
              lin.Sim(web, crowd));

  // --- Exact computation (Example 2.2: c = 0.8, k = 3). ---
  ScoreMatrix simrank = ComputeSimRank(g, 0.8, 3, nullptr).value();
  ScoreMatrix semsim = ComputeSemSim(g, lin, 0.8, 3, nullptr).value();

  TablePrinter table({"pair", "SimRank", "SemSim"});
  table.AddRow({"(John, Aditi)", TablePrinter::Num(simrank.at(john, aditi), 4),
                TablePrinter::Num(semsim.at(john, aditi), 4)});
  table.AddRow({"(Bo,   Aditi)", TablePrinter::Num(simrank.at(bo, aditi), 4),
                TablePrinter::Num(semsim.at(bo, aditi), 4)});
  table.Print(std::cout);

  std::printf("\nSimRank (structure only): %s is more similar to Aditi\n",
              simrank.at(bo, aditi) > simrank.at(john, aditi) ? "Bo" : "John");
  std::printf("SemSim  (with semantics): %s is more similar to Aditi\n\n",
              semsim.at(john, aditi) > semsim.at(bo, aditi) ? "John" : "Bo");

  // --- The same query through the scalable MC engine. ---
  WalkIndexOptions walks;
  walks.num_walks = 2000;  // tiny graph: cheap, low-variance
  walks.walk_length = 15;
  EngineSnapshotOptions options;
  options.query.mc.decay = 0.8;
  options.query.mc.theta = 0.0;
  options.normalizer_cache_capacity = 0;  // one caller: no shared cache
  EngineSnapshotPtr snap =
      EngineSnapshot::Build(Unowned(&g), Unowned(&lin), walks, options, 0)
          .value();
  const SemSimMcEstimator& estimator = snap->estimator();
  const SemSimMcOptions& mc = options.query.mc;
  std::printf("MC engine estimates: sim(John, Aditi) = %.4f, "
              "sim(Bo, Aditi) = %.4f\n",
              estimator.Query(john, aditi, mc), estimator.Query(bo, aditi, mc));

  std::printf("\nTop-3 nodes most similar to Aditi (SemSim engine):\n");
  for (const Scored& s : McTopK(estimator, aditi, 3, mc)) {
    std::printf("  %-24s %.4f\n",
                std::string(g.node_name(s.node)).c_str(), s.score);
  }
  return 0;
}
