// semsim_cli — command-line front end for the library, so the system can
// be driven without writing C++:
//
//   semsim_cli generate <aminer|amazon|wikipedia|wordnet|figure1> <dir> [seed]
//       Generate a dataset bundle (graph.hin / semantics.txt / tasks.txt),
//       creating <dir> and any missing parents.
//
//   semsim_cli query <dir> <node-a> <node-b> [--exact]
//       Single-pair SemSim (and SimRank for contrast). MC engine with the
//       paper's defaults, or the exact iterative solver with --exact.
//
//   semsim_cli topk <dir> <node> <k>
//       Top-k similar nodes via the inverted single-source index.
//
//   semsim_cli stats <dir>
//       Dataset summary: sizes, labels, taxonomy, ground-truth counts.
//
//   semsim_cli evaluate <dir>
//       Run every applicable evaluation task (term relatedness, link
//       prediction, entity resolution) on the bundle's ground truth with
//       the full competitor suite — a Table-5-style report for your own
//       data.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>

#include "core/iterative.h"
#include "core/engine_snapshot.h"
#include "core/query_scratch.h"
#include "common/table_printer.h"
#include "eval/baseline_suite.h"
#include "eval/tasks.h"
#include "datasets/aminer_gen.h"
#include "datasets/amazon_gen.h"
#include "datasets/dataset_io.h"
#include "datasets/figure1.h"
#include "datasets/wikipedia_gen.h"
#include "datasets/wordnet_gen.h"
#include "taxonomy/semantic_measure.h"

namespace {

using namespace semsim;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  semsim_cli generate <kind> <dir> [seed]\n"
               "  semsim_cli query <dir> <node-a> <node-b> [--exact]\n"
               "  semsim_cli topk <dir> <node> <k>\n"
               "  semsim_cli stats <dir>\n"
               "  semsim_cli evaluate <dir>\n");
  return 2;
}

Result<Dataset> Generate(const std::string& kind, uint64_t seed) {
  if (kind == "aminer") {
    AminerOptions opt;
    opt.num_authors = 500;
    opt.num_duplicates = 20;
    opt.seed = seed;
    return GenerateAminer(opt);
  }
  if (kind == "amazon") {
    AmazonOptions opt;
    opt.num_items = 500;
    opt.seed = seed;
    return GenerateAmazon(opt);
  }
  if (kind == "wikipedia") {
    WikipediaOptions opt;
    opt.seed = seed;
    return GenerateWikipedia(opt);
  }
  if (kind == "wordnet") {
    WordnetOptions opt;
    opt.seed = seed;
    return GenerateWordnet(opt);
  }
  if (kind == "figure1") return MakeFigure1Dataset();
  return Status::InvalidArgument("unknown dataset kind '" + kind + "'");
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 4) return Usage();
  uint64_t seed = argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
  Result<Dataset> dataset = Generate(argv[2], seed);
  if (!dataset.ok()) return Fail(dataset.status());
  Status s = SaveDataset(*dataset, argv[3]);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s bundle to %s: %zu nodes, %zu edges\n",
              dataset->name.c_str(), argv[3], dataset->graph.num_nodes(),
              dataset->graph.num_edges());
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 5) return Usage();
  Result<Dataset> dataset = LoadDataset(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());
  Result<NodeId> a = dataset->graph.FindNode(argv[3]);
  if (!a.ok()) return Fail(a.status());
  Result<NodeId> b = dataset->graph.FindNode(argv[4]);
  if (!b.ok()) return Fail(b.status());
  LinMeasure lin(&dataset->context);
  bool exact = argc > 5 && std::strcmp(argv[5], "--exact") == 0;
  std::printf("sem (Lin)        = %.6f\n", lin.Sim(*a, *b));
  if (exact) {
    Result<ScoreMatrix> semsim =
        ComputeSemSim(dataset->graph, lin, 0.6, 10, nullptr);
    if (!semsim.ok()) return Fail(semsim.status());
    Result<ScoreMatrix> simrank =
        ComputeSimRank(dataset->graph, 0.6, 10, nullptr);
    if (!simrank.ok()) return Fail(simrank.status());
    std::printf("SemSim (exact)   = %.6f\nSimRank (exact)  = %.6f\n",
                semsim->at(*a, *b), simrank->at(*a, *b));
  } else {
    WalkIndexOptions walks;
    EngineSnapshotOptions opt;
    opt.normalizer_cache_capacity = 0;
    Result<EngineSnapshotPtr> snap = EngineSnapshot::Build(
        Unowned(&dataset->graph), Unowned(&lin), walks, opt, 0);
    if (!snap.ok()) return Fail(snap.status());
    std::printf("SemSim (MC, n_w=%d, t=%d, theta=%.2f) = %.6f\n",
                walks.num_walks, walks.walk_length, opt.query.mc.theta,
                (*snap)->estimator().Query(*a, *b, opt.query.mc));
  }
  return 0;
}

int CmdTopK(int argc, char** argv) {
  if (argc < 5) return Usage();
  Result<Dataset> dataset = LoadDataset(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());
  Result<NodeId> query = dataset->graph.FindNode(argv[3]);
  if (!query.ok()) return Fail(query.status());
  size_t k = static_cast<size_t>(std::atoi(argv[4]));
  LinMeasure lin(&dataset->context);
  EngineSnapshotOptions opt;
  opt.normalizer_cache_capacity = 0;
  // No pruning for interactive top-k: on taxonomies with low absolute Lin
  // scores the default θ would zero out every candidate.
  opt.query.mc.theta = 0.0;
  Result<EngineSnapshotPtr> snap = EngineSnapshot::Build(
      Unowned(&dataset->graph), Unowned(&lin), WalkIndexOptions{}, opt, 0);
  if (!snap.ok()) return Fail(snap.status());
  const EngineSnapshot& engine = **snap;
  QueryScratch scratch;
  for (const Scored& s : engine.InvertedIndex().TopKFrom(
           *query, k, engine.estimator(), opt.query.mc, scratch)) {
    if (s.score <= 0) break;
    std::printf("%-30s %.6f\n",
                std::string(dataset->graph.node_name(s.node)).c_str(),
                s.score);
  }
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  Result<Dataset> dataset = LoadDataset(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());
  const Hin& g = dataset->graph;
  std::printf("name: %s\nnodes: %zu\nedges: %zu\navg in-degree: %.2f\n",
              dataset->name.c_str(), g.num_nodes(), g.num_edges(),
              g.AverageInDegree());
  std::map<std::string, size_t> node_labels, edge_labels;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ++node_labels[std::string(g.label_name(g.node_label(v)))];
    for (const Neighbor& nb : g.OutNeighbors(v)) {
      ++edge_labels[std::string(g.label_name(nb.edge_label))];
    }
  }
  std::printf("node labels:");
  for (const auto& [label, count] : node_labels) {
    std::printf(" %s=%zu", label.c_str(), count);
  }
  std::printf("\nedge labels:");
  for (const auto& [label, count] : edge_labels) {
    std::printf(" %s=%zu", label.c_str(), count);
  }
  const Taxonomy& tax = dataset->context.taxonomy();
  uint32_t depth = 0;
  for (ConceptId c = 0; c < tax.num_concepts(); ++c) {
    depth = std::max(depth, tax.depth(c));
  }
  std::printf("\ntaxonomy: %zu concepts, depth %u\n", tax.num_concepts(),
              depth);
  std::printf("ground truth: %zu held-out edges, %zu duplicate pairs, %zu "
              "relatedness judgments\n",
              dataset->heldout_edges.size(), dataset->duplicate_pairs.size(),
              dataset->relatedness.size());
  return 0;
}

int CmdEvaluate(int argc, char** argv) {
  if (argc < 3) return Usage();
  Result<Dataset> dataset_result = LoadDataset(argv[2]);
  if (!dataset_result.ok()) return Fail(dataset_result.status());
  const Dataset& dataset = *dataset_result;
  if (dataset.relatedness.empty() && dataset.heldout_edges.empty() &&
      dataset.duplicate_pairs.empty()) {
    std::fprintf(stderr, "bundle carries no task ground truth\n");
    return 1;
  }

  // Pick a meta-path from the most frequent non-is_a edge label.
  std::map<std::string, size_t> edge_labels;
  for (NodeId v = 0; v < dataset.graph.num_nodes(); ++v) {
    for (const Neighbor& nb : dataset.graph.OutNeighbors(v)) {
      std::string label(dataset.graph.label_name(nb.edge_label));
      if (label != "is_a") ++edge_labels[label];
    }
  }
  std::string top_label = "is_a";
  size_t top_count = 0;
  for (const auto& [label, count] : edge_labels) {
    if (count > top_count) {
      top_count = count;
      top_label = label;
    }
  }

  BaselineSuiteOptions opt;
  opt.pathsim_meta_path = {top_label, top_label};
  opt.line.samples = 500000;
  opt.line.dimensions = 32;
  Result<BaselineSuite> suite_result = BaselineSuite::Build(&dataset, opt);
  if (!suite_result.ok()) return Fail(suite_result.status());
  const BaselineSuite& suite = *suite_result;
  std::printf("meta-path for PathSim: %s/%s\n\n", top_label.c_str(),
              top_label.c_str());

  if (!dataset.relatedness.empty()) {
    std::printf("term relatedness (%zu judged pairs):\n",
                dataset.relatedness.size());
    TablePrinter table({"measure", "Pearson r", "p-value"});
    for (const NamedSimilarity& m : suite.measures()) {
      RelatednessResult r = EvaluateRelatedness(dataset.relatedness, m);
      table.AddRow({m.name, TablePrinter::Num(r.pearson_r, 3),
                    TablePrinter::Sci(r.p_value, 1)});
    }
    table.Print(std::cout);
    std::printf("\n");
  }

  // Candidate pool for the retrieval tasks: every non-concept node of the
  // most common node label.
  std::map<std::string, std::vector<NodeId>> by_label;
  for (NodeId v = 0; v < dataset.graph.num_nodes(); ++v) {
    by_label[std::string(dataset.graph.label_name(dataset.graph.node_label(v)))]
        .push_back(v);
  }
  const std::vector<NodeId>* candidates = nullptr;
  size_t best = 0;
  for (const auto& [label, nodes] : by_label) {
    if (label != "concept" && label != "category" && nodes.size() > best) {
      best = nodes.size();
      candidates = &nodes;
    }
  }

  if (!dataset.heldout_edges.empty() && candidates != nullptr) {
    std::printf("link prediction (%zu held-out edges, hit@k over %zu "
                "candidates):\n",
                dataset.heldout_edges.size(), candidates->size());
    TablePrinter table({"measure", "hit@5", "hit@10", "hit@20"});
    for (const NamedSimilarity& m : suite.measures()) {
      std::vector<std::string> row = {m.name};
      for (size_t k : {5u, 10u, 20u}) {
        Rng rng(11);
        row.push_back(TablePrinter::Num(
            LinkPredictionHitRate(m, dataset.heldout_edges, *candidates, k,
                                  100, rng),
            3));
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
    std::printf("\n");
  }

  if (!dataset.duplicate_pairs.empty() && candidates != nullptr) {
    std::printf("entity resolution (%zu duplicate pairs, precision@k):\n",
                dataset.duplicate_pairs.size());
    TablePrinter table({"measure", "prec@5", "prec@10", "prec@20"});
    for (const NamedSimilarity& m : suite.measures()) {
      std::vector<std::string> row = {m.name};
      for (size_t k : {5u, 10u, 20u}) {
        row.push_back(TablePrinter::Num(
            EntityResolutionPrecision(m, dataset.duplicate_pairs, *candidates,
                                      k),
            3));
      }
      table.AddRow(std::move(row));
    }
    table.Print(std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "query") return CmdQuery(argc, argv);
  if (cmd == "topk") return CmdTopK(argc, argv);
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "evaluate") return CmdEvaluate(argc, argv);
  return Usage();
}
