// Extension bench — single-source similarity queries (the paper's Sec. 7
// future-work direction, inspired by [17, 46]): one inverted-index sweep
// answers sim(u, ·) for every node. Compares the naive loop of n pair
// queries against SingleSourceIndex for SimRank and SemSim, and verifies
// both produce identical scores.
// Extension: --threads=N additionally partitions the single-source
// sweeps across the batch engine's persistent pool (one source per work
// item, cross-query normalizer cache shared by all sweeps), verifies
// batch output equals the serial sweeps, and writes
// BENCH_single_source.json. Exits 1 when the batch and serial sweeps
// differ in any bit.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/batch_engine.h"
#include "core/mc_simrank.h"
#include "core/single_source.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {
namespace {

constexpr int kQueries = 20;

// Returns false when the batch sweeps differ from the serial ones.
bool Run(int requested_threads) {
  Dataset dataset = bench::AmazonMedium();
  bench::Banner("Single-source queries / Amazon", dataset, 2);
  LinMeasure lin(&dataset.context);

  WalkIndexOptions wopt;
  wopt.num_walks = 150;
  wopt.walk_length = 15;
  WalkIndex index = WalkIndex::Build(dataset.graph, wopt);
  Timer build_timer;
  SingleSourceIndex inverted = SingleSourceIndex::Build(index);
  double build_s = build_timer.ElapsedSeconds();
  // Cacheless, with the groups an engine snapshot attaches.
  SemSimMcEstimator estimator(&dataset.graph, &lin, &index);
  estimator.AttachGroups();
  SemSimMcOptions mc{0.6, 0.05};

  Rng rng(13);
  std::vector<NodeId> queries;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(
        static_cast<NodeId>(rng.NextIndex(dataset.graph.num_nodes())));
  }

  double sink = 0;
  double pairwise_simrank_ms, inverted_simrank_ms;
  {
    Timer t;
    for (NodeId u : queries) {
      for (NodeId v = 0; v < dataset.graph.num_nodes(); ++v) {
        sink += McSimRankQuery(index, u, v, 0.6);
      }
    }
    pairwise_simrank_ms = t.ElapsedMillis() / kQueries;
  }
  {
    Timer t;
    for (NodeId u : queries) {
      sink += inverted.SimRankFrom(u, 0.6)[0];
    }
    inverted_simrank_ms = t.ElapsedMillis() / kQueries;
  }
  double pairwise_semsim_ms, inverted_semsim_ms;
  {
    Timer t;
    for (NodeId u : queries) {
      for (NodeId v = 0; v < dataset.graph.num_nodes(); ++v) {
        sink += estimator.Query(u, v, mc);
      }
    }
    pairwise_semsim_ms = t.ElapsedMillis() / kQueries;
  }
  // One scratch arena and output row reused across every sweep below.
  QueryScratch scratch;
  std::vector<double> row;
  {
    Timer t;
    for (NodeId u : queries) {
      inverted.SemSimFromInto(u, estimator, mc, scratch, row);
      sink += row[0];
    }
    inverted_semsim_ms = t.ElapsedMillis() / kQueries;
  }
  static volatile double g_sink;
  g_sink = sink;
  (void)g_sink;

  TablePrinter table(
      {"measure", "n pair queries ms", "single-source ms", "speedup"});
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx",
                pairwise_simrank_ms / inverted_simrank_ms);
  table.AddRow({"SimRank", TablePrinter::Num(pairwise_simrank_ms, 2),
                TablePrinter::Num(inverted_simrank_ms, 2), buf});
  std::snprintf(buf, sizeof(buf), "%.1fx",
                pairwise_semsim_ms / inverted_semsim_ms);
  table.AddRow({"SemSim (theta=0.05)", TablePrinter::Num(pairwise_semsim_ms, 2),
                TablePrinter::Num(inverted_semsim_ms, 2), buf});
  table.Print(std::cout);
  std::printf("\ninverted index: built in %.2f s, %.1f MB (walk index: "
              "%.1f MB = %.1f MB owned + %.1f MB mapped)\n",
              build_s, inverted.MemoryBytes() / 1e6,
              index.MemoryBytes() / 1e6, index.OwnedBytes() / 1e6,
              index.MappedBytes() / 1e6);

  // Consistency spot check.
  NodeId u = queries[0];
  inverted.SemSimFromInto(u, estimator, mc, scratch, row);
  double max_diff = 0;
  for (NodeId v = 0; v < dataset.graph.num_nodes(); ++v) {
    max_diff =
        std::max(max_diff, std::fabs(row[v] - estimator.Query(u, v, mc)));
  }
  std::printf("consistency: max |single-source - pairwise| = %.2e\n",
              max_diff);

  // Parallel batch section: the same sweeps through the batch engine.
  int resolved = ThreadPool::ResolveThreadCount(requested_threads);
  std::printf("\nbatch engine, requested --threads=%d -> resolved %d\n",
              requested_threads, resolved);
  bench::JsonBenchDoc doc("single_source");
  doc.Add("dataset", dataset.name)
      .Add("num_nodes", dataset.graph.num_nodes())
      .Add("num_sources", kQueries)
      .Add("requested_threads", requested_threads)
      .Add("resolved_threads", resolved)
      .Add("serial_inverted_ms_per_source", inverted_semsim_ms);
  doc.Add("walk_index_owned_bytes", index.OwnedBytes())
      .Add("walk_index_mapped_bytes", index.MappedBytes());
  TablePrinter batch_table({"threads", "pass", "ms/source", "sources/s",
                            "norm cache hit%", "shared hits",
                            "arena reuse%"});
  bool all_identical = true;
  for (int threads : resolved == 1 ? std::vector<int>{1}
                                   : std::vector<int>{1, resolved}) {
    EngineSnapshotOptions opt;
    opt.query.mc = mc;
    BatchQueryEngine engine = bench::Unwrap(BatchQueryEngine::CreateFromSnapshot(
        bench::Unwrap(EngineSnapshot::Create(Unowned(&dataset.graph),
                                             Unowned(&lin), Unowned(&index),
                                             opt, 0)),
        threads));
    const ConcurrentPairCache& norm_cache =
        *engine.snapshot()->normalizer_cache();
    for (const char* pass : {"cold", "warm"}) {
      Timer t;
      auto result = engine.SingleSourceBatch(queries);
      double wall_ms = t.ElapsedMillis();
      auto& batch = result.values;
      McQueryStats& stats = result.stats;
      // Serial reference: the snapshot's own estimator, so both sides
      // run the same semantic kernel and normalizer path.
      for (size_t q = 0; q < queries.size(); ++q) {
        inverted.SemSimFromInto(queries[q], engine.snapshot()->estimator(),
                                mc, scratch, row);
        if (batch[q] != row) all_identical = false;
      }
      double per_source = wall_ms / kQueries;
      batch_table.AddRow(
          {std::to_string(threads), pass, TablePrinter::Num(per_source, 2),
           TablePrinter::Num(kQueries / (wall_ms / 1e3), 1),
           TablePrinter::Num(100 * norm_cache.hit_rate(), 1),
           TablePrinter::Int(static_cast<long long>(stats.shared_cache_hits)),
           TablePrinter::Num(100 * engine.scratch_pool().reuse_rate(), 1)});
      doc.BeginRecord()
          .Field("threads", threads)
          .Field("pass", pass)
          .Field("wall_ms", wall_ms)
          .Field("ms_per_source", per_source)
          .Field("sources_per_sec", kQueries / (wall_ms / 1e3))
          .Field("normalizer_cache_hit_rate", norm_cache.hit_rate())
          .Field("shared_cache_hits", stats.shared_cache_hits)
          .Field("normalizers_computed", stats.normalizers_computed)
          // Per-worker arena recycling across SingleSourceBatch chunks;
          // first pass pays the allocations, later passes re-lease them.
          .Field("scratch_arenas_acquired", engine.scratch_pool().acquired())
          .Field("scratch_reuse_rate", engine.scratch_pool().reuse_rate());
    }
  }
  batch_table.Print(std::cout);
  std::printf("batch sweeps identical to serial sweeps: %s\n",
              all_identical ? "yes" : "NO — DETERMINISM BUG");
  doc.Add("results_identical", all_identical ? 1 : 0);
  doc.WriteFile("BENCH_single_source.json");
  return all_identical;
}

}  // namespace
}  // namespace semsim

int main(int argc, char** argv) {
  int threads = semsim::bench::ParseIntFlag(argc, argv, "--threads", 0);
  std::string metrics_out =
      semsim::bench::ParseStringFlag(argc, argv, "--metrics-out", "");
  const bool identical = semsim::Run(threads);
  semsim::bench::MaybeWriteMetrics(metrics_out);
  return identical ? 0 : 1;
}
