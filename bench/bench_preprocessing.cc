// Experiment E9 — Sec. 5.2 "Preprocessing": offline costs of the
// framework — walk-index sampling time and size, and the taxonomy
// preprocessing (IC table + constant-time LCA index, after Harel &
// Tarjan [11]) that makes Lin an O(1) query. The paper reports ~2.5 min
// of walk sampling, <10 min of taxonomy processing and a 5-9 MB
// footprint at its scales; at bench scale everything is proportionally
// smaller — the point is the breakdown, not the absolute numbers.
// Extension: the cold-start section times opening a saved serving
// artifact the two supported ways — WalkIndex::Load (heap copy +
// checksum verify) vs WalkIndex::Map (zero-copy mmap) — verifies the
// two replicas are bit-identical, reports the owned/mapped memory
// split, sweeps the parallel SingleSourceIndex build across thread
// counts with fingerprint identity checks, and writes
// BENCH_coldstart.json for ci/compare_bench.py --coldstart.
// --coldstart-only skips the preprocessing tables (the CI lane).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/single_source.h"
#include "core/walk_index.h"
#include "graph/node_sampler.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {
namespace {

void RunDataset(const Dataset& dataset, TablePrinter* table) {
  WalkIndexOptions wopt;
  wopt.num_walks = 150;
  wopt.walk_length = 15;
  WalkIndex index = WalkIndex::Build(dataset.graph, wopt);

  // Taxonomy preprocessing is already folded into the generated dataset;
  // redo it here to time it: rebuild the context from the same taxonomy.
  Timer taxonomy_timer;
  LcaIndex lca(dataset.context.taxonomy());
  std::vector<double> ic = ComputeSecoIc(dataset.context.taxonomy());
  double taxonomy_s = taxonomy_timer.ElapsedSeconds();
  (void)ic;

  // A million Lin queries to demonstrate constant-time evaluation.
  LinMeasure lin(&dataset.context);
  Rng rng(3);
  double sink = 0;
  Timer lin_timer;
  constexpr int kLinQueries = 1000000;
  size_t n = dataset.graph.num_nodes();
  for (int i = 0; i < kLinQueries; ++i) {
    sink += lin.Sim(static_cast<NodeId>(rng.NextIndex(n)),
                    static_cast<NodeId>(rng.NextIndex(n)));
  }
  double lin_ns = lin_timer.ElapsedSeconds() / kLinQueries * 1e9;
  static volatile double g_sink;
  g_sink = sink;  // keep the pure queries from being elided
  (void)g_sink;

  table->AddRow({dataset.name,
                 TablePrinter::Int(static_cast<long long>(dataset.graph.num_nodes())),
                 TablePrinter::Num(index.build_seconds(), 3),
                 TablePrinter::Num(index.MemoryBytes() / 1e6, 2),
                 TablePrinter::Num(taxonomy_s * 1e3, 2),
                 TablePrinter::Num(dataset.context.MemoryBytes() / 1e6, 3),
                 TablePrinter::Num(lin_ns, 0)});
}

// Walk payloads of two open paths must agree byte for byte.
bool BitIdentical(const WalkIndex& a, const WalkIndex& b, size_t num_nodes) {
  size_t step_bytes =
      static_cast<size_t>(a.walk_length()) * sizeof(NodeId);
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (int w = 0; w < a.num_walks(); ++w) {
      if (std::memcmp(a.WalkData(v, w), b.WalkData(v, w), step_bytes) != 0 ||
          a.WalkLiveLength(v, w) != b.WalkLiveLength(v, w)) {
        return false;
      }
    }
  }
  return true;
}

void RunColdstart() {
  Dataset dataset = bench::AmazonMedium();
  std::printf("\n=== Cold start: Load (heap) vs Map (zero-copy mmap) ===\n");
  std::printf("dataset=%s |V|=%zu\n", dataset.name.c_str(),
              dataset.graph.num_nodes());
  size_t n = dataset.graph.num_nodes();

  WalkIndexOptions wopt;
  wopt.num_walks = 150;
  wopt.walk_length = 15;
  WalkIndex built = WalkIndex::Build(dataset.graph, wopt);
  const std::string path = "BENCH_coldstart.widx";
  Status saved = built.Save(path);
  SEMSIM_CHECK(saved.ok()) << saved.ToString();

  // Open latency, best of kReps: Load streams + checksums + copies the
  // whole artifact; Map validates the header/directory and hands out
  // views into the page cache.
  constexpr int kReps = 7;
  double load_ms = 1e30, map_ms = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    Timer t;
    WalkIndex loaded = bench::Unwrap(WalkIndex::Load(path, n));
    load_ms = std::min(load_ms, t.ElapsedMillis());
  }
  for (int rep = 0; rep < kReps; ++rep) {
    Timer t;
    WalkIndex mapped = bench::Unwrap(WalkIndex::Map(path, n));
    map_ms = std::min(map_ms, t.ElapsedMillis());
  }
  double map_speedup = load_ms / map_ms;

  WalkIndex loaded = bench::Unwrap(WalkIndex::Load(path, n));
  WalkIndex mapped = bench::Unwrap(WalkIndex::Map(path, n));
  bool identical = BitIdentical(loaded, mapped, n) &&
                   BitIdentical(built, mapped, n);

  // First query work straight off the mapping: the inverted index build
  // is the first full scan, i.e. the page-fault-paying pass.
  Timer first_sweep_timer;
  SingleSourceIndex inv_mapped = SingleSourceIndex::Build(mapped);
  double map_first_sweep_ms = first_sweep_timer.ElapsedMillis();
  SingleSourceIndex inv_loaded = SingleSourceIndex::Build(loaded);
  bool sweep_identical =
      inv_mapped.Fingerprint() == inv_loaded.Fingerprint();

  const size_t artifact_bytes = std::filesystem::file_size(path);
  TablePrinter open_table({"open path", "best-of-7 ms", "owned MB",
                           "mapped MB"});
  open_table.AddRow({"Load (heap copy)", TablePrinter::Num(load_ms, 3),
                     TablePrinter::Num(loaded.OwnedBytes() / 1e6, 2),
                     TablePrinter::Num(loaded.MappedBytes() / 1e6, 2)});
  open_table.AddRow({"Map (zero-copy)", TablePrinter::Num(map_ms, 3),
                     TablePrinter::Num(mapped.OwnedBytes() / 1e6, 2),
                     TablePrinter::Num(mapped.MappedBytes() / 1e6, 2)});
  open_table.Print(std::cout);
  std::printf(
      "map speedup: %.1fx  |  replicas bit-identical: %s  |  "
      "single-source fingerprints match: %s\n",
      map_speedup, identical ? "yes" : "NO — BUG",
      sweep_identical ? "yes" : "NO — BUG");
  std::printf("first inverted-index sweep over the mapping: %.2f ms\n",
              map_first_sweep_ms);

  // Parallel single-source build: same structure at every thread count.
  uint64_t serial_fp = inv_loaded.Fingerprint();
  Timer serial_timer;
  SingleSourceIndex serial = SingleSourceIndex::Build(loaded);
  double serial_build_ms = serial_timer.ElapsedMillis();
  SEMSIM_CHECK(serial.Fingerprint() == serial_fp);

  bench::JsonBenchDoc doc("coldstart");
  doc.Add("dataset", dataset.name)
      .Add("num_nodes", n)
      .Add("num_walks", wopt.num_walks)
      .Add("walk_length", wopt.walk_length)
      .Add("artifact_bytes", artifact_bytes)
      .Add("load_ms", load_ms)
      .Add("map_ms", map_ms)
      .Add("map_speedup", map_speedup)
      .Add("bit_identical", identical ? 1 : 0)
      .Add("single_source_fingerprints_match", sweep_identical ? 1 : 0)
      .Add("loaded_owned_bytes", loaded.OwnedBytes())
      .Add("mapped_owned_bytes", mapped.OwnedBytes())
      .Add("mapped_mapped_bytes", mapped.MappedBytes())
      .Add("map_first_sweep_ms", map_first_sweep_ms)
      .Add("serial_build_ms", serial_build_ms);

  TablePrinter build_table(
      {"build threads", "ms", "speedup", "fingerprint"});
  build_table.AddRow({"serial", TablePrinter::Num(serial_build_ms, 2), "1.0x",
                      "baseline"});
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    Timer t;
    SingleSourceIndex parallel = SingleSourceIndex::Build(loaded, &pool);
    double build_ms = t.ElapsedMillis();
    bool match = parallel.Fingerprint() == serial_fp;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  serial_build_ms / build_ms);
    build_table.AddRow({TablePrinter::Int(threads),
                        TablePrinter::Num(build_ms, 2), speedup,
                        match ? "matches serial" : "DIFFERS — BUG"});
    doc.BeginRecord()
        .Field("threads", threads)
        .Field("build_ms", build_ms)
        .Field("build_speedup", serial_build_ms / build_ms)
        .Field("fingerprint_matches", match ? 1 : 0);
  }
  std::printf("\nparallel SingleSourceIndex::Build (|V|=%zu)\n", n);
  build_table.Print(std::cout);

  doc.WriteFile("BENCH_coldstart.json");
  std::remove(path.c_str());
}

// Dense weighted graph for the walk-build gate: every in-neighborhood
// carries log-uniform (heavy-tail) weights, so no node takes the
// uniform fast path and the scan baseline pays its full O(in-degree)
// weight rebuild per step.
Hin MakeDenseWeightedGraph(size_t n, int avg_in_degree, uint64_t seed) {
  HinBuilder b;
  for (size_t v = 0; v < n; ++v) {
    b.AddNode("v" + std::to_string(v), "T");
  }
  Rng rng(seed);
  size_t edges = n * static_cast<size_t>(avg_in_degree);
  for (size_t e = 0; e < edges; ++e) {
    NodeId src = static_cast<NodeId>(rng.NextIndex(n));
    NodeId dst = static_cast<NodeId>(rng.NextIndex(n));
    // log-uniform in [0.05, 20]: the differential harness's heavy-tail
    // weight regime.
    double w = 0.05 * std::exp(std::log(400.0) * rng.NextDouble());
    Status added = b.AddEdge(src, dst, "r", w);
    SEMSIM_CHECK(added.ok()) << added.ToString();
  }
  return bench::Unwrap(std::move(b).Build());
}

// Weighted walk-build throughput on the dense weighted graph. Emits
// BENCH_walkbuild.json for ci/compare_bench.py --walkbuild, which gates
// thread-count bit-identity and a materialized sampler table.
void RunWalkBuild() {
  constexpr size_t kNodes = 3000;
  constexpr int kAvgInDegree = 192;
  std::printf("\n=== Weighted walk build (alias sampler) ===\n");
  Hin graph = MakeDenseWeightedGraph(kNodes, kAvgInDegree, 17);
  std::printf("synthetic dense graph: |V|=%zu avg in-degree=%d (heavy-tail "
              "weights)\n",
              graph.num_nodes(), kAvgInDegree);

  WalkIndexOptions wopt;
  wopt.num_walks = 20;
  wopt.walk_length = 10;
  wopt.seed = 5;
  wopt.weighted = true;
  wopt.num_threads = 1;
  double total_walks =
      static_cast<double>(kNodes) * static_cast<double>(wopt.num_walks);

  constexpr int kReps = 3;
  double alias_s = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    WalkIndex index = WalkIndex::Build(graph, wopt);
    alias_s = std::min(alias_s, index.build_seconds());
  }
  double alias_wps = total_walks / alias_s;

  // Determinism: the build must be bit-identical at any thread count
  // (per-node RNG streams + thread-invariant sampler tables).
  WalkIndex alias_one = WalkIndex::Build(graph, wopt);
  wopt.num_threads = 4;
  WalkIndex alias_four = WalkIndex::Build(graph, wopt);
  bool threads_identical = BitIdentical(alias_one, alias_four, kNodes);

  NodeSamplerIndex sampler =
      NodeSamplerIndex::Build(graph, SampleDirection::kIn);

  std::printf(
      "build %.3f s (best of %d), %.0f walks/s  |  thread-count "
      "bit-identical: %s\n"
      "sampler: build %.3f s, tables %.2f MB, %zu uniform node(s) of %zu\n",
      alias_s, kReps, alias_wps, threads_identical ? "yes" : "NO — BUG",
      sampler.build_seconds(), sampler.TableBytes() / 1e6,
      sampler.uniform_nodes(), sampler.num_nodes());

  bench::JsonBenchDoc doc("walkbuild");
  doc.Add("num_nodes", kNodes)
      .Add("avg_in_degree", kAvgInDegree)
      .Add("num_walks", wopt.num_walks)
      .Add("walk_length", wopt.walk_length)
      .Add("alias_build_s", alias_s)
      .Add("alias_walks_per_sec", alias_wps)
      .Add("alias_threads_bit_identical", threads_identical ? 1 : 0)
      .Add("sampler_build_s", sampler.build_seconds())
      .Add("sampler_table_bytes", sampler.TableBytes())
      .Add("sampler_uniform_nodes", sampler.uniform_nodes());
  doc.WriteFile("BENCH_walkbuild.json");
}

void Run() {
  std::printf(
      "Preprocessing costs (n_w=150, t=15): walk sampling, taxonomy "
      "processing (LCA index + IC), and Lin query latency\n\n");
  TablePrinter table({"dataset", "|V|", "walk build s", "walk index MB",
                      "taxonomy prep ms", "semantic index MB",
                      "Lin query ns"});
  {
    Dataset d = bench::AminerMedium();
    RunDataset(d, &table);
  }
  {
    Dataset d = bench::AmazonMedium();
    RunDataset(d, &table);
  }
  {
    Dataset d = bench::WikipediaSmall();
    RunDataset(d, &table);
  }
  {
    Dataset d = bench::WordnetDefault();
    RunDataset(d, &table);
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace semsim

int main(int argc, char** argv) {
  bool coldstart_only = false;
  bool build_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--coldstart-only") == 0) coldstart_only = true;
    if (std::strcmp(argv[i], "--build-only") == 0) build_only = true;
  }
  if (build_only) {
    semsim::RunWalkBuild();
    return 0;
  }
  if (!coldstart_only) semsim::Run();
  semsim::RunColdstart();
  if (!coldstart_only) semsim::RunWalkBuild();
  return 0;
}
