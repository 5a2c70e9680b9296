// Experiment E8 — Sec. 5.2 "Execution Times", SLING paragraph: applying a
// SLING-style probability index to both measures, storing normalizers
// only for node pairs with semantic similarity >= 0.1. We report query
// times with and without the index plus its size and build cost. The
// index is the shared normalizer cache, pre-filled with those pairs
// (bench::PrefilledNormalizerCache). The paper's shape: a large further
// speed-up for both measures, at a memory cost that is larger for SemSim
// than for SimRank (more pairs qualify).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/mc_semsim.h"
#include "core/mc_simrank.h"
#include "core/pair_graph.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {
namespace {

constexpr int kQueryPairs = 300;

void Run() {
  AmazonOptions gen;
  gen.num_items = 800;
  gen.seed = 2;
  Dataset dataset = bench::Unwrap(GenerateAmazon(gen));
  bench::Banner("SLING-style index / Amazon", dataset, 2);
  LinMeasure lin(&dataset.context);

  WalkIndexOptions wopt;
  wopt.num_walks = 150;
  wopt.walk_length = 15;
  WalkIndex index = WalkIndex::Build(dataset.graph, wopt);

  PairGraph pg(&dataset.graph, &lin);
  Timer build_timer;
  size_t qualifying = 0;
  std::unique_ptr<ConcurrentPairCache> cache =
      bench::PrefilledNormalizerCache(pg, /*min_sem=*/0.1, &qualifying);
  double build_s = build_timer.ElapsedSeconds();
  const size_t resident = cache->size();

  // Both estimators stay virtual (no groups): the pre-filled values
  // are bit-exact only for the d² loop.
  SemSimMcEstimator plain(&dataset.graph, &lin, &index);
  SemSimMcEstimator cached(&dataset.graph, &lin, &index);
  cached.set_shared_cache(cache.get());

  Rng rng(23);
  std::vector<NodePair> pairs;
  size_t n = dataset.graph.num_nodes();
  for (int i = 0; i < kQueryPairs; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(n));
    NodeId v = static_cast<NodeId>(rng.NextIndex(n));
    if (u == v) v = static_cast<NodeId>((v + 1) % n);
    pairs.push_back({u, v});
  }

  auto time_queries = [&](auto&& fn) {
    double sink = 0;
    Timer t;
    for (const NodePair& p : pairs) sink += fn(p);
    static volatile double g_sink;
    g_sink = sink;  // keep the pure queries from being elided
    (void)g_sink;
    return t.ElapsedMicros() / kQueryPairs;
  };

  SemSimMcOptions mc{0.6, 0.05};
  double semsim_us =
      time_queries([&](NodePair p) { return plain.Query(p.first, p.second, mc); });
  double semsim_sling_us = time_queries(
      [&](NodePair p) { return cached.Query(p.first, p.second, mc); });
  double simrank_us = time_queries(
      [&](NodePair p) { return McSimRankQuery(index, p.first, p.second, 0.6); });

  TablePrinter table({"Configuration", "avg query us", "index MB"});
  table.AddRow({"SimRank MC", TablePrinter::Num(simrank_us, 2),
                TablePrinter::Num(index.MemoryBytes() / 1e6, 2)});
  table.AddRow({"SemSim (pruning)", TablePrinter::Num(semsim_us, 2),
                TablePrinter::Num(index.MemoryBytes() / 1e6, 2)});
  table.AddRow(
      {"SemSim + SLING-style cache", TablePrinter::Num(semsim_sling_us, 2),
       TablePrinter::Num((index.MemoryBytes() + cache->MemoryBytes()) / 1e6,
                         2)});
  table.Print(std::cout);
  std::printf(
      "\ncache: %zu pairs (sem >= 0.1), %zu resident in %zu slots, filled "
      "in %.2f s; speed-up over uncached SemSim: %.1fx\n",
      qualifying, resident, cache->capacity(), build_s,
      semsim_us / semsim_sling_us);

  // Sanity: cached and uncached answers agree bit for bit on every pair.
  McQueryStats stats;
  double max_diff = 0;
  for (const NodePair& p : pairs) {
    double a = plain.Query(p.first, p.second, mc);
    double b = cached.Query(p.first, p.second, mc, &stats);
    max_diff = std::max(max_diff, std::fabs(a - b));
  }
  std::printf(
      "consistency check: max |cached - plain| = %.2e over %d pairs "
      "(shared cache hits=%lld)\n",
      max_diff, kQueryPairs, static_cast<long long>(stats.shared_cache_hits));
}

}  // namespace
}  // namespace semsim

int main() {
  semsim::Run();
  return 0;
}
