// Experiment E3 — Figure 4(a,b): average running time of a single-pair
// similarity query as a function of the number of walks n_w (t fixed at
// 15) and of the truncation point t (n_w fixed at 150), for three
// methods: SimRank's MC framework, SemSim's IS-based framework without
// pruning, and with pruning (θ=0.05). The paper's shape: SemSim without
// pruning is ~1-2 orders of magnitude slower (the d² normalizer loop);
// pruning brings it to within a small factor of SimRank.
//
// Extensions:
//   --threads=N        drive the batch workload at 1 and N threads (at
//                      least 2, so the thread-count identity check
//                      always runs).
//   --dataset=medium|small
//                      "small" is the CI smoke configuration: skips the
//                      (a)/(b) single-pair sweeps and uses a smaller
//                      graph and batch.
//   --metrics-out=P    write the engine's metrics-registry snapshot to
//                      P (JSON) and the .prom sibling (Prometheus text)
//                      after the run (DESIGN.md §8).
//
// The batch section writes BENCH_queries.json: per-pass wall time and
// cache hit rates, cold/warm single-thread throughput, and
// results_identical_across_thread_counts (gated by ci/compare_bench.py).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/batch_engine.h"
#include "core/mc_semsim.h"
#include "core/mc_simrank.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {
namespace {

constexpr int kQueryPairs = 300;

struct QueryTimes {
  double simrank_us;
  double semsim_us;
  double semsim_pruned_us;
};

QueryTimes Measure(const Dataset& dataset, const LinMeasure& lin, int num_walks,
                   int walk_length) {
  WalkIndexOptions wopt;
  wopt.num_walks = num_walks;
  wopt.walk_length = walk_length;
  wopt.seed = 7;
  WalkIndex index = WalkIndex::Build(dataset.graph, wopt);
  SemSimMcEstimator estimator(&dataset.graph, &lin, &index);

  Rng rng(17);
  std::vector<NodePair> pairs;
  size_t n = dataset.graph.num_nodes();
  for (int i = 0; i < kQueryPairs; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(n));
    NodeId v = static_cast<NodeId>(rng.NextIndex(n));
    if (u == v) v = static_cast<NodeId>((v + 1) % n);
    pairs.push_back({u, v});
  }

  QueryTimes times{};
  double sink = 0;
  {
    Timer t;
    for (const NodePair& p : pairs) {
      sink += McSimRankQuery(index, p.first, p.second, 0.6);
    }
    times.simrank_us = t.ElapsedMicros() / kQueryPairs;
  }
  {
    SemSimMcOptions opt{0.6, 0.0};
    Timer t;
    for (const NodePair& p : pairs) {
      sink += estimator.Query(p.first, p.second, opt);
    }
    times.semsim_us = t.ElapsedMicros() / kQueryPairs;
  }
  {
    SemSimMcOptions opt{0.6, 0.05};
    Timer t;
    for (const NodePair& p : pairs) {
      sink += estimator.Query(p.first, p.second, opt);
    }
    times.semsim_pruned_us = t.ElapsedMicros() / kQueryPairs;
  }
  // One volatile write keeps the pure queries from being elided.
  static volatile double g_sink;
  g_sink = sink;
  (void)g_sink;
  return times;
}

// Batch-engine section: the paper-default workload (n_w=150, t=15) as a
// query batch, at 1 thread and at the requested count.
void RunBatch(const Dataset& dataset, const LinMeasure& lin,
              int requested_threads, int batch_pairs) {
  WalkIndexOptions wopt;
  wopt.num_walks = 150;
  wopt.walk_length = 15;
  wopt.seed = 7;
  WalkIndex index = WalkIndex::Build(dataset.graph, wopt);

  Rng rng(23);
  std::vector<NodePair> pairs;
  size_t n = dataset.graph.num_nodes();
  for (int i = 0; i < batch_pairs; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(n));
    NodeId v = static_cast<NodeId>(rng.NextIndex(n));
    if (u == v) v = static_cast<NodeId>((v + 1) % n);
    pairs.push_back({u, v});
  }

  int resolved = ThreadPool::ResolveThreadCount(requested_threads);
  std::vector<int> counts = {1, std::max(resolved, 2)};

  bench::JsonBenchDoc doc("fig4_query_times");
  doc.Add("dataset", dataset.name)
      .Add("num_nodes", dataset.graph.num_nodes())
      .Add("num_pairs", pairs.size())
      .Add("num_walks", index.num_walks())
      .Add("walk_length", index.walk_length())
      .Add("theta", 0.05)
      .Add("requested_threads", requested_threads)
      .Add("resolved_threads", resolved);

  std::printf("\nbatch engine (n_w=%d, t=%d, theta=0.05, %zu pairs), "
              "requested --threads=%d -> resolved %d\n",
              index.num_walks(), index.walk_length(), pairs.size(),
              requested_threads, resolved);
  TablePrinter table(
      {"threads", "pass", "wall ms", "queries/s", "norm cache hit%"});
  std::vector<double> reference;
  double base_ms = 0;
  for (int threads : counts) {
    EngineSnapshotOptions opt;
    opt.query.mc = SemSimMcOptions{0.6, 0.05};
    BatchQueryEngine engine = bench::Unwrap(BatchQueryEngine::CreateFromSnapshot(
        bench::Unwrap(EngineSnapshot::Create(Unowned(&dataset.graph),
                                             Unowned(&lin), Unowned(&index),
                                             opt, 0)),
        threads));
    if (threads == counts.front()) {
      doc.Add("engine_kernel_name",
              std::string(engine.snapshot()->estimator().sem_kernel_name()))
          .Add("engine_memory_bytes", engine.MemoryBytes());
    }
    for (const char* pass : {"cold", "warm"}) {
      Timer t;
      BatchResult<double> results = engine.QueryBatch(pairs);
      double wall_ms = t.ElapsedMillis();
      McQueryStats& stats = results.stats;
      double qps = static_cast<double>(pairs.size()) / (wall_ms / 1e3);
      double norm_rate = engine.snapshot()->normalizer_cache()->hit_rate();
      table.AddRow({std::to_string(threads), pass,
                    TablePrinter::Num(wall_ms, 2), TablePrinter::Num(qps, 0),
                    TablePrinter::Num(100 * norm_rate, 1)});
      doc.BeginRecord()
          .Field("threads", threads)
          .Field("pass", pass)
          .Field("wall_ms", wall_ms)
          .Field("queries_per_sec", qps)
          .Field("normalizer_cache_hit_rate", norm_rate)
          .Field("shared_cache_hits", stats.shared_cache_hits)
          .Field("normalizers_computed", stats.normalizers_computed)
          .Field("met_walks", static_cast<int64_t>(stats.met_walks))
          .Field("pruned_walks", static_cast<int64_t>(stats.pruned_walks));
      if (threads == 1) {
        if (std::string(pass) == "cold") {
          doc.Add("cold_queries_per_sec_1thread", qps);
        } else {
          doc.Add("warm_queries_per_sec_1thread", qps);
          base_ms = wall_ms;
          reference = std::move(results.values);
        }
      } else if (std::string(pass) == "warm") {
        bool identical = results.values == reference;
        std::printf("batch results identical across 1 and %d threads: %s\n",
                    threads, identical ? "yes" : "NO — DETERMINISM BUG");
        std::printf("warm throughput speedup at %d threads: %.2fx\n",
                    threads, base_ms / wall_ms);
        doc.Add("results_identical_across_thread_counts", identical ? 1 : 0)
            .Add("warm_speedup", base_ms / wall_ms);
      }
    }
  }
  table.Print(std::cout);
  doc.WriteFile("BENCH_queries.json");
}

void Run(const std::string& dataset_flag, int requested_threads) {
  bool small = dataset_flag == "small";
  Dataset dataset = small ? bench::AmazonSmall() : bench::AmazonMedium();
  bench::Banner("Fig4 / Amazon", dataset, 2);
  LinMeasure lin(&dataset.context);

  if (!small) {
    std::printf(
        "average single-pair query time over %d random pairs (us)\n\n",
        kQueryPairs);

    std::printf("(a) varying n_w, t = 15\n");
    TablePrinter ta({"n_w", "SimRank us", "SemSim us", "SemSim+prune us"});
    for (int nw : {50, 100, 150, 200, 250}) {
      QueryTimes t = Measure(dataset, lin, nw, 15);
      ta.AddRow({std::to_string(nw), TablePrinter::Num(t.simrank_us, 2),
                 TablePrinter::Num(t.semsim_us, 2),
                 TablePrinter::Num(t.semsim_pruned_us, 2)});
    }
    ta.Print(std::cout);

    std::printf("\n(b) varying t, n_w = 150\n");
    TablePrinter tb({"t", "SimRank us", "SemSim us", "SemSim+prune us"});
    for (int t : {5, 10, 15, 20, 25}) {
      QueryTimes q = Measure(dataset, lin, 150, t);
      tb.AddRow({std::to_string(t), TablePrinter::Num(q.simrank_us, 2),
                 TablePrinter::Num(q.semsim_us, 2),
                 TablePrinter::Num(q.semsim_pruned_us, 2)});
    }
    tb.Print(std::cout);

    QueryTimes def = Measure(dataset, lin, 150, 15);
    std::printf(
        "\npaper setting (n_w=150, t=15): SimRank %.2f us, SemSim %.2f us "
        "(%.1fx), SemSim+pruning %.2f us (%.1fx)\n",
        def.simrank_us, def.semsim_us, def.semsim_us / def.simrank_us,
        def.semsim_pruned_us, def.semsim_pruned_us / def.simrank_us);
  }

  RunBatch(dataset, lin, requested_threads, small ? 600 : 2000);
}

}  // namespace
}  // namespace semsim

int main(int argc, char** argv) {
  int threads = semsim::bench::ParseIntFlag(argc, argv, "--threads", 0);
  std::string dataset =
      semsim::bench::ParseStringFlag(argc, argv, "--dataset", "medium");
  std::string metrics_out =
      semsim::bench::ParseStringFlag(argc, argv, "--metrics-out", "");
  semsim::Run(dataset, threads);
  semsim::bench::MaybeWriteMetrics(metrics_out);
  return 0;
}
