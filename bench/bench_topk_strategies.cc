// Extension bench — top-k query strategies: the naive per-candidate scan,
// the Prop. 2.5 bound-driven scan (candidates in descending sem order,
// early termination), and the inverted single-source sweep, all returning
// the same answer. The future-work direction of Sec. 7 quantified.
// Extension: --threads=N adds a parallel batch strategy (TopKBatch over
// the persistent pool + cross-query caches), checks it returns exactly
// the inverted single-source answer, and writes BENCH_topk.json.
#include <cstdio>
#include <iostream>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/batch_engine.h"
#include "core/single_source.h"
#include "core/topk.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {
namespace {

constexpr int kQueries = 15;
constexpr size_t kK = 10;

void Run(int requested_threads) {
  Dataset dataset = bench::AmazonMedium();
  bench::Banner("Top-k strategies / Amazon", dataset, 2);
  LinMeasure lin(&dataset.context);

  WalkIndexOptions wopt;
  wopt.num_walks = 150;
  wopt.walk_length = 15;
  WalkIndex index = WalkIndex::Build(dataset.graph, wopt);
  SingleSourceIndex inverted = SingleSourceIndex::Build(index);
  SemSimMcEstimator estimator(&dataset.graph, &lin, &index);
  SemSimMcOptions mc{0.6, 0.05};

  Rng rng(29);
  std::vector<NodeId> queries;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(
        static_cast<NodeId>(rng.NextIndex(dataset.graph.num_nodes())));
  }

  double naive_ms, bounded_ms, inverted_ms;
  size_t scanned_total = 0;
  std::vector<std::vector<Scored>> naive_results;
  {
    Timer t;
    for (NodeId u : queries) {
      naive_results.push_back(McTopK(estimator, u, kK, mc));
    }
    naive_ms = t.ElapsedMillis() / kQueries;
  }
  std::vector<std::vector<Scored>> bounded_results;
  {
    Timer t;
    for (NodeId u : queries) {
      size_t scanned = 0;
      bounded_results.push_back(
          BoundedSemanticTopK(estimator, u, kK, mc, nullptr, 0.9, &scanned));
      scanned_total += scanned;
    }
    bounded_ms = t.ElapsedMillis() / kQueries;
  }
  // One scratch arena reused across every inverted top-k below.
  QueryScratch scratch;
  {
    Timer t;
    for (NodeId u : queries) {
      auto r = inverted.TopKFrom(u, kK, estimator, mc, scratch);
      (void)r;
    }
    inverted_ms = t.ElapsedMillis() / kQueries;
  }

  TablePrinter table({"strategy", "avg top-k ms", "speedup",
                      "candidates scanned"});
  char buf[32];
  table.AddRow({"naive scan", TablePrinter::Num(naive_ms, 2), "1.0x",
                TablePrinter::Int(static_cast<long long>(
                    dataset.graph.num_nodes() - 1))});
  std::snprintf(buf, sizeof(buf), "%.1fx", naive_ms / bounded_ms);
  table.AddRow({"sem-bound early stop (Prop 2.5)",
                TablePrinter::Num(bounded_ms, 2), buf,
                TablePrinter::Int(static_cast<long long>(
                    scanned_total / kQueries))});
  std::snprintf(buf, sizeof(buf), "%.1fx", naive_ms / inverted_ms);
  table.AddRow({"inverted single-source", TablePrinter::Num(inverted_ms, 2),
                buf, "all (one sweep)"});
  table.Print(std::cout);

  // Agreement check between the strategies (estimates are deterministic
  // given the shared index, so rankings must coincide for the bounded
  // scan; it may only diverge if an estimate exceeded its sem bound).
  size_t agree = 0, total = 0;
  for (int q = 0; q < kQueries; ++q) {
    for (size_t i = 0; i < naive_results[q].size(); ++i) {
      ++total;
      if (i < bounded_results[q].size() &&
          bounded_results[q][i].node == naive_results[q][i].node) {
        ++agree;
      }
    }
  }
  std::printf("\nbounded scan agreement with naive scan: %zu / %zu top-%zu "
              "entries\n",
              agree, total, kK);

  // Parallel batch strategy through the engine.
  int resolved = ThreadPool::ResolveThreadCount(requested_threads);
  std::printf("\nbatch engine, requested --threads=%d -> resolved %d\n",
              requested_threads, resolved);
  bench::JsonBenchDoc doc("topk_strategies");
  doc.Add("dataset", dataset.name)
      .Add("num_nodes", dataset.graph.num_nodes())
      .Add("num_sources", kQueries)
      .Add("k", kK)
      .Add("requested_threads", requested_threads)
      .Add("resolved_threads", resolved)
      .Add("serial_naive_ms", naive_ms)
      .Add("serial_bounded_ms", bounded_ms)
      .Add("serial_inverted_ms", inverted_ms);
  bool batch_matches = true;
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
      auto result = engine.TopKBatch(queries, kK);
      double wall_ms = t.ElapsedMillis();
      auto& batch = result.values;
      McQueryStats& stats = result.stats;
      // Serial reference: the snapshot's own estimator, so both sides
      // run the same semantic kernel and normalizer path.
      for (size_t q = 0; q < queries.size(); ++q) {
        auto serial = inverted.TopKFrom(
            queries[q], kK, engine.snapshot()->estimator(), mc, scratch);
        if (batch[q].size() != serial.size()) batch_matches = false;
        for (size_t i = 0; i < serial.size() && batch_matches; ++i) {
          if (batch[q][i].node != serial[i].node ||
              batch[q][i].score != serial[i].score) {
            batch_matches = false;
          }
        }
      }
      doc.BeginRecord()
          .Field("threads", threads)
          .Field("pass", pass)
          .Field("wall_ms", wall_ms)
          .Field("ms_per_query", wall_ms / kQueries)
          .Field("normalizer_cache_hit_rate", norm_cache.hit_rate())
          .Field("shared_cache_hits", stats.shared_cache_hits);
      std::printf("threads=%d %s: %.2f ms/query (norm cache hit %.1f%%)\n",
                  threads, pass, wall_ms / kQueries,
                  100 * norm_cache.hit_rate());
    }
  }
  std::printf("batch top-k identical to inverted single-source: %s\n",
              batch_matches ? "yes" : "NO — DETERMINISM BUG");
  doc.Add("results_identical", batch_matches ? 1 : 0);
  doc.WriteFile("BENCH_topk.json");
}

}  // namespace
}  // namespace semsim

int main(int argc, char** argv) {
  int threads = semsim::bench::ParseIntFlag(argc, argv, "--threads", 0);
  std::string metrics_out =
      semsim::bench::ParseStringFlag(argc, argv, "--metrics-out", "");
  semsim::Run(threads);
  semsim::bench::MaybeWriteMetrics(metrics_out);
  return 0;
}
