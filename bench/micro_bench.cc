// Micro-benchmarks (google-benchmark) for the core primitives: LCA and
// Lin queries, sem(·,·) and the grouped SO normalizer over the
// taxonomy-group table, the grouped SO normalizer and the IS query on a
// taxonomy above the table's cap, walk-index sampling, the d²-cost SO
// normalizer, the IS single-pair estimator with/without pruning and
// cache, the
// SimRank MC query, one iteration of the exact fixed-point sweep, the
// shared normalizer cache's probe at one and three threads, and the
// inverted single-source index (build at one and four threads, meeting
// search).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/concurrent_cache.h"
#include "core/iterative.h"
#include "core/mc_semsim.h"
#include "core/mc_simrank.h"
#include "core/normalizer_groups.h"
#include "core/pair_graph.h"
#include "core/query_scratch.h"
#include "core/single_source.h"
#include "core/walk_index.h"
#include "datasets/wordnet_gen.h"
#include "graph/node_sampler.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {
namespace {

// Shared fixture state, built once (datasets are deterministic).
const Dataset& AmazonFixture() {
  static const Dataset* d = new Dataset(bench::AmazonMedium());
  return *d;
}

void BM_LcaQuery(benchmark::State& state) {
  const Dataset& d = AmazonFixture();
  Rng rng(1);
  size_t n = d.context.taxonomy().num_concepts();
  for (auto _ : state) {
    ConceptId a = static_cast<ConceptId>(rng.NextIndex(n));
    ConceptId b = static_cast<ConceptId>(rng.NextIndex(n));
    benchmark::DoNotOptimize(d.context.Lca(a, b));
  }
}
BENCHMARK(BM_LcaQuery);

void BM_LinQuery(benchmark::State& state) {
  const Dataset& d = AmazonFixture();
  LinMeasure lin(&d.context);
  Rng rng(2);
  size_t n = d.graph.num_nodes();
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.NextIndex(n));
    NodeId b = static_cast<NodeId>(rng.NextIndex(n));
    benchmark::DoNotOptimize(lin.Sim(a, b));
  }
}
BENCHMARK(BM_LinQuery);

// The Amazon fixture's taxonomy groups under Lin, with their S table
// (the fixture has far fewer groups than the cap).
struct GroupedFixture {
  LinMeasure lin;
  NormalizerGroups groups;

  GroupedFixture()
      : lin(&AmazonFixture().context),
        groups(NormalizerGroups::Build(AmazonFixture().graph,
                                       AmazonFixture().context, lin)) {
    SEMSIM_CHECK(groups.has_table());
  }
};

const GroupedFixture& Grouped() {
  static const GroupedFixture* f = new GroupedFixture();
  return *f;
}

// sem(a, b) as one table read, next to BM_LinQuery's LCA query.
void BM_NodeSim(benchmark::State& state) {
  const NormalizerGroups& groups = Grouped().groups;
  Rng rng(2);
  size_t n = AmazonFixture().graph.num_nodes();
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.NextIndex(n));
    NodeId b = static_cast<NodeId>(rng.NextIndex(n));
    benchmark::DoNotOptimize(groups.NodeSim(a, b));
  }
}
BENCHMARK(BM_NodeSim);

// SO(lo, hi) summed over taxonomy groups, for uniformly drawn pairs.
void RunGroupedNormalizer(benchmark::State& state,
                          const NormalizerGroups& groups, size_t n) {
  Rng rng(3);
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.NextIndex(n));
    NodeId b = static_cast<NodeId>(rng.NextIndex(n));
    benchmark::DoNotOptimize(groups.Sum(a < b ? a : b, a < b ? b : a));
  }
}

// With S from the table (compare BM_Normalizer's d² loop).
void BM_GroupedNormalizer(benchmark::State& state) {
  RunGroupedNormalizer(state, Grouped().groups,
                       AmazonFixture().graph.num_nodes());
}
BENCHMARK(BM_GroupedNormalizer);

// A WordNet-like graph whose taxonomy has more groups than the table's
// cap, under a cacheless Lin estimator with its groups attached: the
// IS steps and every off-diagonal S(g,h) call the measure.
Dataset AboveCapWordnet() {
  WordnetOptions opt;
  opt.num_concepts = 1400;
  return bench::Unwrap(GenerateWordnet(opt));
}

struct AboveCapState {
  Dataset dataset;
  LinMeasure lin;
  WalkIndex index;
  SemSimMcEstimator estimator;

  AboveCapState()
      : dataset(AboveCapWordnet()),
        lin(&dataset.context),
        index(WalkIndex::Build(dataset.graph,
                               WalkIndexOptions{150, 15, 42, false})),
        estimator(&dataset.graph, &lin, &index) {
    SEMSIM_CHECK(estimator.AttachGroups());
    SEMSIM_CHECK(estimator.normalizer_groups().num_groups() >
                 NormalizerGroups::kMaxTableGroups);
  }
};

AboveCapState& AboveCap() {
  static AboveCapState* s = new AboveCapState();
  return *s;
}

// SO(lo, hi) over groups with S(g,h) from the measure.
void BM_GroupedNormalizerAboveCap(benchmark::State& state) {
  AboveCapState& s = AboveCap();
  RunGroupedNormalizer(state, s.estimator.normalizer_groups(),
                       s.dataset.graph.num_nodes());
}
BENCHMARK(BM_GroupedNormalizerAboveCap);

void BM_SemSimIsQueryAboveCap(benchmark::State& state) {
  AboveCapState& s = AboveCap();
  SemSimMcOptions opt{0.6, static_cast<double>(state.range(0)) / 100.0};
  Rng rng(5);
  size_t n = s.dataset.graph.num_nodes();
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.NextIndex(n));
    NodeId b = static_cast<NodeId>(rng.NextIndex(n));
    benchmark::DoNotOptimize(s.estimator.Query(a, b, opt));
  }
}
BENCHMARK(BM_SemSimIsQueryAboveCap)->Arg(0)->Arg(5);  // θ=0 and θ=0.05

void BM_WalkIndexBuild(benchmark::State& state) {
  const Dataset& d = AmazonFixture();
  WalkIndexOptions opt;
  opt.num_walks = static_cast<int>(state.range(0));
  opt.walk_length = 15;
  for (auto _ : state) {
    WalkIndex index = WalkIndex::Build(d.graph, opt);
    benchmark::DoNotOptimize(index.MemoryBytes());
  }
}
BENCHMARK(BM_WalkIndexBuild)->Arg(10)->Arg(50);

// One weighted walk step, scan vs alias, at a controlled degree: a
// single-node star graph whose center has `degree` skewed-weight
// in-neighbors. Scan rebuilds the weight vector and walks the CDF
// (O(degree)); alias is one bounded draw + one table probe (O(1)).
Hin MakeStarGraph(int degree) {
  HinBuilder b;
  NodeId center = b.AddNode("center", "T");
  Rng rng(77);
  for (int i = 0; i < degree; ++i) {
    NodeId leaf = b.AddNode("leaf" + std::to_string(i), "T");
    double w = 0.1 + 10.0 * rng.NextDouble() * rng.NextDouble();
    SEMSIM_CHECK(b.AddEdge(leaf, center, "r", w).ok());
  }
  (void)center;
  return bench::Unwrap(std::move(b).Build());
}

void BM_WeightedStepScan(benchmark::State& state) {
  Hin graph = MakeStarGraph(static_cast<int>(state.range(0)));
  auto in = graph.InNeighbors(0);
  Rng rng(8);
  std::vector<double> weights;
  for (auto _ : state) {
    weights.clear();
    for (const Neighbor& nb : in) weights.push_back(nb.weight);
    benchmark::DoNotOptimize(rng.NextWeighted(weights));
  }
}
BENCHMARK(BM_WeightedStepScan)->Arg(8)->Arg(64)->Arg(512);

void BM_WeightedStepAlias(benchmark::State& state) {
  Hin graph = MakeStarGraph(static_cast<int>(state.range(0)));
  NodeSamplerIndex sampler =
      NodeSamplerIndex::Build(graph, SampleDirection::kIn);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(0, rng));
  }
}
BENCHMARK(BM_WeightedStepAlias)->Arg(8)->Arg(64)->Arg(512);

void BM_Normalizer(benchmark::State& state) {
  const Dataset& d = AmazonFixture();
  LinMeasure lin(&d.context);
  PairGraph pg(&d.graph, &lin);
  Rng rng(3);
  size_t n = d.graph.num_nodes();
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.NextIndex(n));
    NodeId b = static_cast<NodeId>(rng.NextIndex(n));
    benchmark::DoNotOptimize(pg.Normalizer(a, b));
  }
}
BENCHMARK(BM_Normalizer);

struct EstimatorState {
  const Dataset* dataset;
  LinMeasure lin;
  WalkIndex index;
  PairGraph pair_graph;
  std::unique_ptr<ConcurrentPairCache> cache;
  SemSimMcEstimator plain;
  SemSimMcEstimator cached;

  EstimatorState()
      : dataset(&AmazonFixture()),
        lin(&dataset->context),
        index(WalkIndex::Build(dataset->graph,
                               WalkIndexOptions{150, 15, 42, false})),
        pair_graph(&dataset->graph, &lin),
        // Pre-filled shared cache; both estimators stay virtual, which
        // keeps the pre-filled values bit-exact (bench_util.h).
        cache(bench::PrefilledNormalizerCache(pair_graph, 0.1)),
        plain(&dataset->graph, &lin, &index),
        cached(&dataset->graph, &lin, &index) {
    cached.set_shared_cache(cache.get());
  }
};

EstimatorState& Estimators() {
  static EstimatorState* s = new EstimatorState();
  return *s;
}

void BM_SimRankMcQuery(benchmark::State& state) {
  EstimatorState& s = Estimators();
  Rng rng(4);
  size_t n = s.dataset->graph.num_nodes();
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.NextIndex(n));
    NodeId b = static_cast<NodeId>(rng.NextIndex(n));
    benchmark::DoNotOptimize(McSimRankQuery(s.index, a, b, 0.6));
  }
}
BENCHMARK(BM_SimRankMcQuery);

void BM_SemSimIsQuery(benchmark::State& state) {
  EstimatorState& s = Estimators();
  double theta = static_cast<double>(state.range(0)) / 100.0;
  SemSimMcOptions opt{0.6, theta};
  Rng rng(5);
  size_t n = s.dataset->graph.num_nodes();
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.NextIndex(n));
    NodeId b = static_cast<NodeId>(rng.NextIndex(n));
    benchmark::DoNotOptimize(s.plain.Query(a, b, opt));
  }
}
BENCHMARK(BM_SemSimIsQuery)->Arg(0)->Arg(5);  // θ=0 and θ=0.05

void BM_SemSimIsQueryCached(benchmark::State& state) {
  EstimatorState& s = Estimators();
  SemSimMcOptions opt{0.6, 0.05};
  Rng rng(6);
  size_t n = s.dataset->graph.num_nodes();
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.NextIndex(n));
    NodeId b = static_cast<NodeId>(rng.NextIndex(n));
    benchmark::DoNotOptimize(s.cached.Query(a, b, opt));
  }
}
BENCHMARK(BM_SemSimIsQueryCached);

void BM_IterativeSweep(benchmark::State& state) {
  // One full fixed-point iteration on a small instance (O(n²·d²)).
  static const Dataset* d = new Dataset(bench::AminerSmall());
  LinMeasure lin(&d->context);
  for (auto _ : state) {
    ScoreMatrix m = bench::Unwrap(ComputeSemSim(d->graph, lin, 0.6, 1, nullptr));
    benchmark::DoNotOptimize(m.at(0, 1));
  }
}
BENCHMARK(BM_IterativeSweep);

void BM_PairGraphTransitions(benchmark::State& state) {
  EstimatorState& s = Estimators();
  Rng rng(7);
  size_t n = s.dataset->graph.num_nodes();
  for (auto _ : state) {
    NodeId a = static_cast<NodeId>(rng.NextIndex(n));
    NodeId b = static_cast<NodeId>(rng.NextIndex(n));
    double total = 0;
    s.pair_graph.ForEachTransition(
        a, b, [&](NodeId, NodeId, double p) { total += p; });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_PairGraphTransitions);

// ConcurrentPairCache::Lookup on one cache shared by every benchmark
// thread, sized like the serving snapshot's normalizer cache. Arg 0
// probes the 64k pairs that were inserted (hit-heavy), Arg 1 probes 64k
// pairs that never were (miss-heavy: each probe scans to an empty slot
// or the window's end). Per-probe time that grows from one thread to
// three is contention on the probe itself.
void BM_ConcurrentCacheLookup(benchmark::State& state) {
  constexpr NodeId kPairs = 1 << 16;
  static ConcurrentPairCache* cache = [] {
    auto* c = new ConcurrentPairCache(1 << 18);
    for (NodeId i = 0; i < kPairs; ++i) c->Insert(i, i + 1, i * 0.5);
    return c;
  }();
  const NodeId offset = state.range(0) == 0 ? 0 : 2 * kPairs;
  NodeId i = static_cast<NodeId>(state.thread_index()) * 7919u % kPairs;
  double value = 0;
  for (auto _ : state) {
    const NodeId u = offset + i;
    benchmark::DoNotOptimize(cache->Lookup(u, u + 1, &value));
    i = (i + 1) & (kPairs - 1);
  }
  state.SetLabel(state.range(0) == 0 ? "hit-heavy" : "miss-heavy");
}
BENCHMARK(BM_ConcurrentCacheLookup)->Arg(0)->Arg(1)->Threads(1)->Threads(3);

// Walks over the Amazon fixture in servebench's topk-amazon shape
// (n_w = 150, t = 15), for the inverted single-source index.
const WalkIndex& InvertedFixtureWalks() {
  static const WalkIndex* walks = new WalkIndex(WalkIndex::Build(
      AmazonFixture().graph, WalkIndexOptions{150, 15, 42, false}));
  return *walks;
}

void BM_InvertedIndexBuild(benchmark::State& state) {
  const WalkIndex& walks = InvertedFixtureWalks();
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SingleSourceIndex inverted = SingleSourceIndex::Build(walks, &pool);
    benchmark::DoNotOptimize(inverted.MemoryBytes());
  }
}
BENCHMARK(BM_InvertedIndexBuild)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Meeting search plus its grouping by node, for uniformly drawn sources.
void BM_FirstMeetings(benchmark::State& state) {
  static const SingleSourceIndex* inverted =
      new SingleSourceIndex(SingleSourceIndex::Build(InvertedFixtureWalks()));
  const size_t n = AmazonFixture().graph.num_nodes();
  QueryScratch scratch;
  Rng rng(6);
  size_t meetings = 0;
  for (auto _ : state) {
    inverted->FirstMeetingsInto(static_cast<NodeId>(rng.NextIndex(n)),
                                scratch);
    meetings += scratch.meetings.size();
    benchmark::DoNotOptimize(scratch.meetings.data());
  }
  state.counters["meetings"] = benchmark::Counter(
      static_cast<double>(meetings), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FirstMeetings)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semsim

// BENCHMARK_MAIN, except machine-readable output is on by default: unless
// the caller passed their own --benchmark_out, results also land in
// BENCH_micro.json (google-benchmark's JSON schema) so the perf
// trajectory of the core primitives is tracked across PRs.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  static std::string out_flag = "--benchmark_out=BENCH_micro.json";
  static std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) std::printf("wrote BENCH_micro.json\n");
  return 0;
}
