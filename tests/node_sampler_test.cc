#include "graph/node_sampler.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/walk_index.h"
#include "testing/random_hin.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;

// A directed graph with one skewed-weight node, one uniform-weight
// node, one degree-1 node, and one dangling node (no in-neighbors):
//   hub <- {s0 w1, s1 w3, s2 w6}   (skewed: alias table materialized)
//   flat <- {s0 w2, s1 w2}         (uniform: NextIndex fast path)
//   s2 <- {hub w5}                 (degree 1: fast path)
//   s0, s1, lone: no in-edges.
struct WeightedWorld {
  Hin graph;
  NodeId hub, flat, s0, s1, s2, lone;
};

WeightedWorld MakeWeightedWorld() {
  HinBuilder b;
  WeightedWorld w;
  w.hub = b.AddNode("hub", "T");
  w.flat = b.AddNode("flat", "T");
  w.s0 = b.AddNode("s0", "T");
  w.s1 = b.AddNode("s1", "T");
  w.s2 = b.AddNode("s2", "T");
  w.lone = b.AddNode("lone", "T");
  auto e = [&](NodeId s, NodeId d, double weight) {
    SEMSIM_CHECK(b.AddEdge(s, d, "r", weight).ok());
  };
  e(w.s0, w.hub, 1.0);
  e(w.s1, w.hub, 3.0);
  e(w.s2, w.hub, 6.0);
  e(w.s0, w.flat, 2.0);
  e(w.s1, w.flat, 2.0);
  e(w.hub, w.s2, 5.0);
  w.graph = Unwrap(std::move(b).Build());
  return w;
}

testing::RandomHinOptions HeavyTailOptions(uint64_t seed) {
  testing::RandomHinOptions opt;
  opt.seed = seed;
  opt.num_nodes = 200;
  opt.avg_out_degree = 6.0;
  opt.degree_skew = 1.0;
  opt.heavy_tail_weights = true;
  opt.min_weight = 0.05;
  opt.max_weight = 20.0;
  return opt;
}

TEST(NodeSamplerIndex, MatchesWeightDistribution) {
  auto w = MakeWeightedWorld();
  NodeSamplerIndex index =
      NodeSamplerIndex::Build(w.graph, SampleDirection::kIn);
  ASSERT_EQ(index.num_nodes(), w.graph.num_nodes());
  EXPECT_TRUE(index.HasTable(w.hub));
  ASSERT_EQ(index.degree(w.hub), 3u);

  auto in = w.graph.InNeighbors(w.hub);
  std::vector<int> counts(3, 0);
  Rng rng(31);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    size_t pick = index.Sample(w.hub, rng);
    ASSERT_LT(pick, in.size());
    ++counts[pick];
  }
  // Neighbor order inside InNeighbors is the graph's; match empirical
  // frequencies to the stored weights rather than assumed positions.
  double total_w = 0;
  for (const Neighbor& nb : in) total_w += nb.weight;
  for (size_t i = 0; i < in.size(); ++i) {
    double expected = kSamples * in[i].weight / total_w;
    EXPECT_NEAR(counts[i], expected, kSamples * 0.01)
        << "neighbor position " << i;
  }
}

TEST(NodeSamplerIndex, UniformFastPathMatchesNextIndexStream) {
  auto w = MakeWeightedWorld();
  NodeSamplerIndex index =
      NodeSamplerIndex::Build(w.graph, SampleDirection::kIn);
  // flat has two equal-weight in-neighbors, s2 exactly one: no tables.
  EXPECT_FALSE(index.HasTable(w.flat));
  EXPECT_FALSE(index.HasTable(w.s2));
  // The fast path consumes exactly one NextIndex(degree) per draw — the
  // same RNG stream as an unweighted step.
  Rng a(37), b(37);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(index.Sample(w.flat, a), b.NextIndex(2));
    EXPECT_EQ(index.Sample(w.s2, a), b.NextIndex(1));
  }
}

TEST(NodeSamplerIndex, CountsUniformNodesAndTableBytes) {
  auto w = MakeWeightedWorld();
  NodeSamplerIndex index =
      NodeSamplerIndex::Build(w.graph, SampleDirection::kIn);
  // flat + s2 take the fast path; hub is the only materialized table;
  // s0/s1/lone have no in-neighbors and count as neither.
  EXPECT_EQ(index.uniform_nodes(), 2u);
  size_t expected =
      (w.graph.num_nodes() + 1) * sizeof(uint64_t) +   // offsets
      w.graph.num_nodes() * sizeof(uint32_t) +         // degrees
      3 * (sizeof(double) + sizeof(uint32_t));         // hub's 3 slots
  EXPECT_EQ(index.TableBytes(), expected);
}

TEST(NodeSamplerIndex, OutDirection) {
  auto w = MakeWeightedWorld();
  NodeSamplerIndex index =
      NodeSamplerIndex::Build(w.graph, SampleDirection::kOut);
  EXPECT_EQ(index.direction(), SampleDirection::kOut);
  // s0 points at hub (w1) and flat (w2): a real 2-slot table.
  EXPECT_TRUE(index.HasTable(w.s0));
  ASSERT_EQ(index.degree(w.s0), 2u);
  auto out = w.graph.OutNeighbors(w.s0);
  std::vector<int> counts(2, 0);
  Rng rng(41);
  constexpr int kSamples = 60000;
  for (int i = 0; i < kSamples; ++i) ++counts[index.Sample(w.s0, rng)];
  double total_w = out[0].weight + out[1].weight;
  EXPECT_NEAR(counts[0], kSamples * out[0].weight / total_w, 1500);
  EXPECT_NEAR(counts[1], kSamples * out[1].weight / total_w, 1500);
}

TEST(NodeSamplerIndex, FingerprintPinnedAcrossThreadCounts) {
  Hin graph = Unwrap(testing::GenerateRandomHin(HeavyTailOptions(51)));
  NodeSamplerIndex serial =
      NodeSamplerIndex::Build(graph, SampleDirection::kIn);
  ASSERT_GT(serial.TableBytes(), 0u);
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    NodeSamplerIndex parallel =
        NodeSamplerIndex::Build(graph, SampleDirection::kIn, &pool);
    EXPECT_EQ(parallel.Fingerprint(), serial.Fingerprint())
        << threads << " threads";
  }
}

TEST(NodeSamplerIndex, BuildRecordsMetrics) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  uint64_t builds_before =
      registry.GetCounter("semsim_node_sampler_build_total")->Value();
  double bytes_before =
      registry.GetGauge("semsim_node_sampler_table_bytes")->Value();
  uint64_t uniform_before =
      registry
          .GetCounter(
              "semsim_node_sampler_alias_fast_path_uniform_nodes_total")
          ->Value();

  auto w = MakeWeightedWorld();
  NodeSamplerIndex index =
      NodeSamplerIndex::Build(w.graph, SampleDirection::kIn);

  EXPECT_EQ(registry.GetCounter("semsim_node_sampler_build_total")->Value(),
            builds_before + 1);
  EXPECT_EQ(registry.GetGauge("semsim_node_sampler_table_bytes")->Value(),
            bytes_before + static_cast<double>(index.TableBytes()));
  EXPECT_EQ(
      registry
          .GetCounter(
              "semsim_node_sampler_alias_fast_path_uniform_nodes_total")
          ->Value(),
      uniform_before + index.uniform_nodes());
  EXPECT_GE(registry.GetHistogram("semsim_node_sampler_build_seconds")
                ->Count(),
            builds_before + 1);
}

// ---------------------------------------------------------------------------
// WalkIndex integration: alias-sampled walk builds are thread-count
// invariant and follow the exact edge weights.
// ---------------------------------------------------------------------------

TEST(NodeSamplerIndex, AliasWalkBuildBitIdenticalAcrossThreadCounts) {
  Hin graph = Unwrap(testing::GenerateRandomHin(HeavyTailOptions(53)));
  WalkIndexOptions opt;
  opt.num_walks = 20;
  opt.walk_length = 10;
  opt.seed = 99;
  opt.weighted = true;
  opt.num_threads = 1;
  WalkIndex one = WalkIndex::Build(graph, opt);
  for (int threads : {2, 8}) {
    opt.num_threads = threads;
    WalkIndex many = WalkIndex::Build(graph, opt);
    EXPECT_TRUE(testutil::SameWalks(one, many));
  }
}

TEST(NodeSamplerIndex, WeightedWalkFirstStepsMatchExactWeights) {
  // s2's only in-neighborhood is hub's weighted row; compare the
  // empirical first-step histogram from hub instead: alias-sampled
  // walks from hub step to s0/s1/s2 proportionally to 1/3/6.
  auto w = MakeWeightedWorld();
  WalkIndexOptions opt;
  opt.num_walks = 30000;
  opt.walk_length = 1;
  opt.seed = 61;
  opt.weighted = true;
  WalkIndex walks = WalkIndex::Build(w.graph, opt);
  std::vector<int> counts(w.graph.num_nodes(), 0);
  for (int i = 0; i < opt.num_walks; ++i) {
    EXPECT_EQ(walks.WalkLiveLength(w.hub, i), 1);
    ++counts[walks.WalkData(w.hub, i)[0]];
  }
  for (NodeId v : {w.s0, w.s1, w.s2}) {
    double weight = v == w.s0 ? 1.0 : v == w.s1 ? 3.0 : 6.0;
    double expected = opt.num_walks * weight / 10.0;
    EXPECT_NEAR(counts[v], expected, opt.num_walks * 0.012) << v;
  }
}

}  // namespace
}  // namespace semsim
