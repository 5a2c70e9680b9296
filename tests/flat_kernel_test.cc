#include "core/mc_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/batch_engine.h"
#include "core/mc_semsim.h"
#include "core/single_source.h"
#include "core/walk_index.h"
#include "datasets/aminer_gen.h"
#include "datasets/figure1.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeAboveCapChain;
using testutil::Unwrap;

Dataset Figure1() { return Unwrap(MakeFigure1Dataset()); }

Dataset Aminer() {
  AminerOptions opt;
  opt.num_authors = 180;
  opt.seed = 7;
  return Unwrap(GenerateAminer(opt));
}

// The tolerance a grouped estimate keeps against the virtual d² oracle:
// grouped SO normalizers (NormalizerGroups) sum the same terms in another
// order, so estimates agree up to roundoff, not bit for bit. Compared at
// θ = 0, where an ulp cannot flip a prune decision.
double OracleTolerance(double want) { return 1e-12 + 1e-9 * std::abs(want); }

std::vector<NodePair> MakePairs(size_t num_nodes, size_t count) {
  std::vector<NodePair> pairs;
  Rng rng(1234);
  for (size_t i = 0; i < count; ++i) {
    NodeId u = static_cast<NodeId>(i % num_nodes);
    NodeId v = static_cast<NodeId>(rng.NextIndex(num_nodes));
    pairs.push_back(NodePair{u, v});
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// Layer 1: the four LCA-based measures are recognised by their context.
// ---------------------------------------------------------------------------

TEST(MeasureClassification, ReturnsTheContextOfGroupableMeasures) {
  Dataset d = Figure1();
  LinMeasure lin(&d.context);
  ResnikMeasure resnik(&d.context);
  WuPalmerMeasure wp(&d.context);
  PathMeasure path(&d.context);
  JiangConrathMeasure jc(&d.context);
  ConstantMeasure constant;
  EXPECT_EQ(kernels::ClassifyMeasure(&lin), &d.context);
  EXPECT_EQ(kernels::ClassifyMeasure(&resnik), &d.context);
  EXPECT_EQ(kernels::ClassifyMeasure(&wp), &d.context);
  EXPECT_EQ(kernels::ClassifyMeasure(&path), &d.context);
  EXPECT_EQ(kernels::ClassifyMeasure(&jc), nullptr);
  EXPECT_EQ(kernels::ClassifyMeasure(&constant), nullptr);
}

// ---------------------------------------------------------------------------
// Layer 2: estimator-level agreement — single-pair, single-source and
// top-k answers with taxonomy groups (S table, grouped normalizers)
// match the virtual d² oracle within OracleTolerance at θ = 0; with
// pruning, they stay within the Prop. 4.6 band (θ) of the unpruned
// oracle.
// ---------------------------------------------------------------------------

template <typename Measure>
void CheckEstimatorEquivalence(const Dataset& d,
                               const char* grouped_name = "group-table") {
  Measure measure(&d.context);
  WalkIndex index = WalkIndex::Build(d.graph,
                                     WalkIndexOptions{40, 8, 13, false});

  SemSimMcEstimator virt(&d.graph, &measure, &index);
  SemSimMcEstimator flat(&d.graph, &measure, &index);
  ASSERT_TRUE(flat.AttachGroups());
  EXPECT_EQ(flat.sem_kernel_name(), grouped_name);
  EXPECT_EQ(virt.sem_kernel_name(), "virtual");
  EXPECT_EQ(flat.transition_table().num_nodes(), d.graph.num_nodes());

  std::vector<NodePair> pairs = MakePairs(d.graph.num_nodes(), 150);
  const SemSimMcOptions unpruned{0.6, 0.0};
  const SemSimMcOptions pruned{0.6, 0.05};
  for (const NodePair& p : pairs) {
    const double want = virt.Query(p.first, p.second, unpruned);
    ASSERT_NEAR(flat.Query(p.first, p.second, unpruned), want,
                OracleTolerance(want))
        << "pair (" << p.first << "," << p.second << ") theta 0";
    ASSERT_NEAR(flat.Query(p.first, p.second, pruned), want,
                pruned.theta + OracleTolerance(want))
        << "pair (" << p.first << "," << p.second << ") theta 0.05";
    ASSERT_EQ(flat.SemValue(p.first, p.second),
              measure.Sim(p.first, p.second));
  }

  SingleSourceIndex inverted = SingleSourceIndex::Build(index);
  QueryScratch flat_scratch, virt_scratch;
  std::vector<double> sf, sv;
  for (NodeId u = 0; u < d.graph.num_nodes();
       u += 1 + d.graph.num_nodes() / 8) {
    inverted.SemSimFromInto(u, flat, unpruned, flat_scratch, sf);
    inverted.SemSimFromInto(u, virt, unpruned, virt_scratch, sv);
    ASSERT_EQ(sf.size(), sv.size());
    for (size_t v = 0; v < sf.size(); ++v) {
      ASSERT_NEAR(sf[v], sv[v], OracleTolerance(sv[v])) << "node " << v;
    }
    std::vector<Scored> tf =
        inverted.TopKFrom(u, 10, flat, unpruned, flat_scratch);
    std::vector<Scored> tv =
        inverted.TopKFrom(u, 10, virt, unpruned, virt_scratch);
    ASSERT_EQ(tf.size(), tv.size());
    for (size_t i = 0; i < tf.size(); ++i) {
      ASSERT_NEAR(tf[i].score, tv[i].score, OracleTolerance(tv[i].score));
      // Ranks may only swap between nodes the oracle scores as a tie.
      if (tf[i].node != tv[i].node) {
        ASSERT_NEAR(sv[tf[i].node], sv[tv[i].node],
                    OracleTolerance(sv[tv[i].node]))
            << "rank " << i;
      }
    }
  }

  // Attaching again rebuilds the same groups, bit for bit.
  const double before = flat.Query(pairs[0].first, pairs[0].second, pruned);
  ASSERT_TRUE(flat.AttachGroups());
  EXPECT_EQ(flat.sem_kernel_name(), grouped_name);
  ASSERT_EQ(flat.Query(pairs[0].first, pairs[0].second, pruned), before);
}

TEST(FlatKernelEstimator, LinMatchesVirtualOracle) {
  CheckEstimatorEquivalence<LinMeasure>(Figure1());
  CheckEstimatorEquivalence<LinMeasure>(Aminer());
}

TEST(FlatKernelEstimator, ResnikMatchesVirtualOracle) {
  CheckEstimatorEquivalence<ResnikMeasure>(Figure1());
  CheckEstimatorEquivalence<ResnikMeasure>(Aminer());
}

TEST(FlatKernelEstimator, WuPalmerMatchesVirtualOracle) {
  CheckEstimatorEquivalence<WuPalmerMeasure>(Figure1());
  CheckEstimatorEquivalence<WuPalmerMeasure>(Aminer());
}

TEST(FlatKernelEstimator, PathMatchesVirtualOracle) {
  CheckEstimatorEquivalence<PathMeasure>(Figure1());
  CheckEstimatorEquivalence<PathMeasure>(Aminer());
}

// Above the table's cap the IS steps call the measure and S(g,h) is one
// measure call per use: estimates still match the d² oracle, and
// SemValue is the measure's bits.
TEST(FlatKernelEstimator, AboveTheCapMatchesVirtualOracle) {
  Dataset chain = MakeAboveCapChain();
  CheckEstimatorEquivalence<LinMeasure>(chain, "virtual-grouped");
}

TEST(FlatKernelEstimator, JiangConrathStaysVirtual) {
  // JiangConrath is not grouped: AttachGroups must keep the d² loop and
  // the virtual semantics.
  Dataset d = Figure1();
  JiangConrathMeasure measure(&d.context);
  WalkIndex index = WalkIndex::Build(d.graph,
                                     WalkIndexOptions{40, 8, 13, false});

  SemSimMcEstimator virt(&d.graph, &measure, &index);
  SemSimMcEstimator flat(&d.graph, &measure, &index);
  EXPECT_FALSE(flat.AttachGroups());
  EXPECT_EQ(flat.sem_kernel_name(), "virtual");

  SemSimMcOptions opt{0.6, 0.05};
  for (const NodePair& p : MakePairs(d.graph.num_nodes(), 100)) {
    ASSERT_EQ(flat.Query(p.first, p.second, opt),
              virt.Query(p.first, p.second, opt));
  }
}

// ---------------------------------------------------------------------------
// Layer 3: engine-level agreement — a BatchQueryEngine (S table,
// grouped normalizers, shared normalizer cache) returns the
// same bits at 1, 2 and 8 threads across repeated rounds (cache history
// must not matter), and those answers match a bare estimator with
// virtual semantics within OracleTolerance.
// ---------------------------------------------------------------------------

// An engine over a snapshot with the default options and estimator
// parameters `mc`.
BatchQueryEngine EngineOver(const Dataset& d, const SemanticMeasure& measure,
                            const WalkIndex& index, int threads,
                            const SemSimMcOptions& mc = QueryOptions().mc) {
  EngineSnapshotOptions opt;
  opt.query.mc = mc;
  return Unwrap(BatchQueryEngine::CreateFromSnapshot(
      Unwrap(EngineSnapshot::Create(Unowned(&d.graph), Unowned(&measure),
                                    Unowned(&index), opt,
                                    /*version=*/0)),
      threads));
}

TEST(FlatKernelEngine, BatchesMatchVirtualEstimatorAcrossThreads) {
  for (const Dataset& d : {Figure1(), Aminer()}) {
    LinMeasure lin(&d.context);
    WalkIndex index = WalkIndex::Build(d.graph,
                                       WalkIndexOptions{40, 8, 13, false});
    std::vector<NodePair> pairs = MakePairs(d.graph.num_nodes(), 300);
    std::vector<NodeId> sources;
    for (NodeId u = 0; u < d.graph.num_nodes();
         u += 1 + d.graph.num_nodes() / 6) {
      sources.push_back(u);
    }

    SemSimMcOptions mc{0.6, 0.0};
    SemSimMcEstimator virt(&d.graph, &lin, &index);
    SingleSourceIndex inverted = SingleSourceIndex::Build(index);
    std::vector<double> want;
    for (const NodePair& p : pairs) {
      want.push_back(virt.Query(p.first, p.second, mc));
    }
    std::vector<std::vector<double>> want_sources;
    QueryScratch scratch;
    for (NodeId u : sources) {
      want_sources.emplace_back();
      inverted.SemSimFromInto(u, virt, mc, scratch, want_sources.back());
    }

    // The 1-thread engine's first round is the bit-exact reference of
    // every other thread count and round.
    std::vector<double> ref;
    std::vector<std::vector<double>> ref_sources;
    std::vector<std::vector<Scored>> ref_topk;
    for (int threads : {1, 2, 8}) {
      BatchQueryEngine engine = EngineOver(d, lin, index, threads, mc);
      const EngineSnapshot& snap = *engine.snapshot();
      EXPECT_EQ(snap.estimator().sem_kernel_name(), "group-table");
      ASSERT_TRUE(snap.estimator().normalizer_groups().has_table());

      for (int round = 0; round < 2; ++round) {
        std::vector<double> got = engine.QueryBatch(pairs).values;
        if (ref.empty()) {
          ASSERT_EQ(got.size(), want.size());
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_NEAR(got[i], want[i], OracleTolerance(want[i]))
                << "pair " << i;
          }
          ref = got;
        }
        ASSERT_EQ(got, ref) << "threads " << threads << " round " << round;
      }
      auto got_sources = engine.SingleSourceBatch(sources).values;
      if (ref_sources.empty()) {
        ASSERT_EQ(got_sources.size(), want_sources.size());
        for (size_t i = 0; i < got_sources.size(); ++i) {
          ASSERT_EQ(got_sources[i].size(), want_sources[i].size());
          for (size_t v = 0; v < got_sources[i].size(); ++v) {
            ASSERT_NEAR(got_sources[i][v], want_sources[i][v],
                        OracleTolerance(want_sources[i][v]));
          }
        }
        ref_sources = got_sources;
      }
      ASSERT_EQ(got_sources, ref_sources) << "threads " << threads;
      auto got_topk = engine.TopKBatch(sources, 10).values;
      if (ref_topk.empty()) ref_topk = got_topk;
      ASSERT_EQ(got_topk.size(), ref_topk.size());
      for (size_t i = 0; i < got_topk.size(); ++i) {
        ASSERT_EQ(got_topk[i].size(), ref_topk[i].size());
        for (size_t j = 0; j < got_topk[i].size(); ++j) {
          ASSERT_EQ(got_topk[i][j].node, ref_topk[i][j].node);
          ASSERT_EQ(got_topk[i][j].score, ref_topk[i][j].score);
        }
      }
    }
  }
}

TEST(FlatKernelEngine, ConstantMeasureFallsBackToVirtual) {
  Dataset d = Figure1();
  ConstantMeasure constant;
  WalkIndex index = WalkIndex::Build(d.graph,
                                     WalkIndexOptions{30, 8, 13, false});
  BatchQueryEngine engine = EngineOver(d, constant, index, 2);
  const EngineSnapshot& snap = *engine.snapshot();
  EXPECT_EQ(snap.estimator().sem_kernel_name(), "virtual");
  EXPECT_FALSE(snap.estimator().normalizer_groups().has_groups());

  SemSimMcEstimator virt(&d.graph, &constant, &index);
  std::vector<NodePair> pairs = MakePairs(d.graph.num_nodes(), 120);
  std::vector<double> got = engine.QueryBatch(pairs).values;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], virt.Query(pairs[i].first, pairs[i].second,
                                 snap.options().query.mc));
  }
}

}  // namespace
}  // namespace semsim
