#include "core/mc_kernels.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/batch_engine.h"
#include "core/mc_semsim.h"
#include "core/single_source.h"
#include "core/walk_index.h"
#include "datasets/aminer_gen.h"
#include "datasets/figure1.h"
#include "taxonomy/flat_semantic_table.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;

Dataset Figure1() { return Unwrap(MakeFigure1Dataset()); }

Dataset Aminer() {
  AminerOptions opt;
  opt.num_authors = 180;
  opt.seed = 7;
  return Unwrap(GenerateAminer(opt));
}

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
// Layer 1: the devirtualized measure kernels agree with their virtual
// counterparts bit-for-bit, on every node pair.
// ---------------------------------------------------------------------------

TEST(FlatSemanticTable, LcaMatchesContext) {
  for (const Dataset& d : {Figure1(), Aminer()}) {
    FlatSemanticTable table = FlatSemanticTable::Build(d.context);
    size_t concepts = table.num_concepts();
    for (ConceptId a = 0; a < concepts; ++a) {
      for (ConceptId b = 0; b < concepts; ++b) {
        ASSERT_EQ(table.Lca(a, b), d.context.Lca(a, b))
            << "concepts " << a << "," << b;
      }
    }
    for (NodeId u = 0; u < d.graph.num_nodes(); ++u) {
      for (NodeId v = 0; v < d.graph.num_nodes(); ++v) {
        ASSERT_EQ(table.LcaOfNodes(u, v),
                  d.context.Lca(d.context.concept_of(u),
                                d.context.concept_of(v)));
      }
    }
  }
}

template <typename Measure, typename Kernel>
void CheckSimEquivalence(const Dataset& d) {
  Measure measure(&d.context);
  FlatSemanticTable table = FlatSemanticTable::Build(d.context);
  Kernel kernel{&table};
  for (NodeId u = 0; u < d.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < d.graph.num_nodes(); ++v) {
      // Bit-equality, not tolerance: the kernels mirror the formulas.
      ASSERT_EQ(kernel.Sim(u, v), measure.Sim(u, v))
          << measure.name() << " nodes " << u << "," << v;
    }
  }
}

TEST(FlatSemanticTable, KernelsMatchVirtualMeasures) {
  for (const Dataset& d : {Figure1(), Aminer()}) {
    CheckSimEquivalence<LinMeasure, FlatLinKernel>(d);
    CheckSimEquivalence<ResnikMeasure, FlatResnikKernel>(d);
    CheckSimEquivalence<WuPalmerMeasure, FlatWuPalmerKernel>(d);
    CheckSimEquivalence<PathMeasure, FlatPathKernel>(d);
  }
}

TEST(MeasureClassification, DetectsFlattenableMeasures) {
  Dataset d = Figure1();
  LinMeasure lin(&d.context);
  ResnikMeasure resnik(&d.context);
  WuPalmerMeasure wp(&d.context);
  PathMeasure path(&d.context);
  JiangConrathMeasure jc(&d.context);
  ConstantMeasure constant;
  EXPECT_EQ(kernels::ClassifyMeasure(&lin).kind, kernels::SemKind::kLin);
  EXPECT_EQ(kernels::ClassifyMeasure(&resnik).kind,
            kernels::SemKind::kResnik);
  EXPECT_EQ(kernels::ClassifyMeasure(&wp).kind, kernels::SemKind::kWuPalmer);
  EXPECT_EQ(kernels::ClassifyMeasure(&path).kind, kernels::SemKind::kPath);
  EXPECT_EQ(kernels::ClassifyMeasure(&jc).kind, kernels::SemKind::kVirtual);
  EXPECT_EQ(kernels::ClassifyMeasure(&constant).kind,
            kernels::SemKind::kVirtual);
  EXPECT_EQ(kernels::ClassifyMeasure(&lin).context, &d.context);
}

// ---------------------------------------------------------------------------
// Layer 2: estimator-level bit-equality — single-pair, single-source and
// top-k answers are identical with devirtualized and virtual semantics.
// ---------------------------------------------------------------------------

template <typename Measure>
void CheckEstimatorEquivalence(const Dataset& d, const char* flat_name) {
  Measure measure(&d.context);
  WalkIndex index = WalkIndex::Build(d.graph,
                                     WalkIndexOptions{40, 8, 13, false});
  FlatSemanticTable semantics = FlatSemanticTable::Build(d.context);

  SemSimMcEstimator virt(&d.graph, &measure, &index);
  SemSimMcEstimator flat(&d.graph, &measure, &index);
  ASSERT_TRUE(flat.AttachFlatKernel(&semantics));
  EXPECT_EQ(flat.sem_kernel_name(), flat_name);
  EXPECT_EQ(virt.sem_kernel_name(), "virtual");
  EXPECT_EQ(flat.transition_table().num_nodes(), d.graph.num_nodes());

  std::vector<NodePair> pairs = MakePairs(d.graph.num_nodes(), 150);
  for (double theta : {0.0, 0.05}) {
    SemSimMcOptions opt{0.6, theta};
    for (const NodePair& p : pairs) {
      ASSERT_EQ(flat.Query(p.first, p.second, opt),
                virt.Query(p.first, p.second, opt))
          << "pair (" << p.first << "," << p.second << ") theta " << theta;
      ASSERT_EQ(flat.SemValue(p.first, p.second),
                measure.Sim(p.first, p.second));
    }
  }

  SingleSourceIndex inverted =
      SingleSourceIndex::Build(index, d.graph.num_nodes());
  SemSimMcOptions opt{0.6, 0.05};
  QueryScratch flat_scratch, virt_scratch;
  std::vector<double> sf, sv;
  for (NodeId u = 0; u < d.graph.num_nodes();
       u += 1 + d.graph.num_nodes() / 8) {
    inverted.SemSimFromInto(u, flat, opt, flat_scratch, sf);
    inverted.SemSimFromInto(u, virt, opt, virt_scratch, sv);
    ASSERT_EQ(sf.size(), sv.size());
    for (size_t v = 0; v < sf.size(); ++v) ASSERT_EQ(sf[v], sv[v]);
    std::vector<Scored> tf = inverted.TopKFrom(u, 10, flat, opt, flat_scratch);
    std::vector<Scored> tv = inverted.TopKFrom(u, 10, virt, opt, virt_scratch);
    ASSERT_EQ(tf.size(), tv.size());
    for (size_t i = 0; i < tf.size(); ++i) {
      ASSERT_EQ(tf[i].node, tv[i].node);
      ASSERT_EQ(tf[i].score, tv[i].score);
    }
  }

  // Re-attaching nothing restores the virtual path (still bit-identical,
  // of course).
  EXPECT_FALSE(flat.AttachFlatKernel(nullptr));
  EXPECT_EQ(flat.sem_kernel_name(), "virtual");
  ASSERT_EQ(flat.Query(pairs[0].first, pairs[0].second, opt),
            virt.Query(pairs[0].first, pairs[0].second, opt));
}

TEST(FlatKernelEstimator, LinBitIdentical) {
  CheckEstimatorEquivalence<LinMeasure>(Figure1(), "flat-lin");
  CheckEstimatorEquivalence<LinMeasure>(Aminer(), "flat-lin");
}

TEST(FlatKernelEstimator, ResnikBitIdentical) {
  CheckEstimatorEquivalence<ResnikMeasure>(Figure1(), "flat-resnik");
  CheckEstimatorEquivalence<ResnikMeasure>(Aminer(), "flat-resnik");
}

TEST(FlatKernelEstimator, WuPalmerBitIdentical) {
  CheckEstimatorEquivalence<WuPalmerMeasure>(Figure1(), "flat-wupalmer");
  CheckEstimatorEquivalence<WuPalmerMeasure>(Aminer(), "flat-wupalmer");
}

TEST(FlatKernelEstimator, PathBitIdentical) {
  CheckEstimatorEquivalence<PathMeasure>(Figure1(), "flat-path");
  CheckEstimatorEquivalence<PathMeasure>(Aminer(), "flat-path");
}

TEST(FlatKernelEstimator, JiangConrathStaysVirtual) {
  // JiangConrath has no flat kernel: AttachFlatKernel must keep the
  // virtual semantics even when handed a table.
  Dataset d = Figure1();
  JiangConrathMeasure measure(&d.context);
  WalkIndex index = WalkIndex::Build(d.graph,
                                     WalkIndexOptions{40, 8, 13, false});
  FlatSemanticTable semantics = FlatSemanticTable::Build(d.context);

  SemSimMcEstimator virt(&d.graph, &measure, &index);
  SemSimMcEstimator flat(&d.graph, &measure, &index);
  EXPECT_FALSE(flat.AttachFlatKernel(&semantics));
  EXPECT_EQ(flat.sem_kernel_name(), "virtual");

  SemSimMcOptions opt{0.6, 0.05};
  for (const NodePair& p : MakePairs(d.graph.num_nodes(), 100)) {
    ASSERT_EQ(flat.Query(p.first, p.second, opt),
              virt.Query(p.first, p.second, opt));
  }
}

// ---------------------------------------------------------------------------
// Layer 3: engine-level bit-equality — a BatchQueryEngine (devirtualized
// semantics, shared normalizer cache) returns at 1, 2 and 8 threads exactly what a
// bare estimator with virtual semantics returns serially, across
// repeated rounds (cache history must not matter).
// ---------------------------------------------------------------------------

// An engine over a snapshot with the default options.
BatchQueryEngine EngineOver(const Dataset& d, const SemanticMeasure& measure,
                            const WalkIndex& index, int threads) {
  return Unwrap(BatchQueryEngine::CreateFromSnapshot(
      Unwrap(EngineSnapshot::Create(Unowned(&d.graph), Unowned(&measure),
                                    Unowned(&index), EngineSnapshotOptions{},
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

    SemSimMcOptions mc = QueryOptions().mc;
    SemSimMcEstimator virt(&d.graph, &lin, &index);
    SingleSourceIndex inverted =
        SingleSourceIndex::Build(index, d.graph.num_nodes());
    std::vector<double> want;
    for (const NodePair& p : pairs) {
      want.push_back(virt.Query(p.first, p.second, mc));
    }
    std::vector<std::vector<double>> want_sources;
    std::vector<std::vector<Scored>> want_topk;
    QueryScratch scratch;
    for (NodeId u : sources) {
      want_sources.emplace_back();
      inverted.SemSimFromInto(u, virt, mc, scratch, want_sources.back());
      want_topk.push_back(inverted.TopKFrom(u, 10, virt, mc, scratch));
    }

    for (int threads : {1, 2, 8}) {
      BatchQueryEngine engine = EngineOver(d, lin, index, threads);
      const EngineSnapshot& snap = *engine.snapshot();
      EXPECT_EQ(snap.kernel_name(), "flat+flat-lin");
      ASSERT_NE(snap.transition_table(), nullptr);
      ASSERT_NE(snap.flat_semantic_table(), nullptr);

      for (int round = 0; round < 2; ++round) {
        std::vector<double> got = engine.QueryBatch(pairs).values;
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i])
              << "pair " << i << " threads " << threads << " round "
              << round;
        }
      }
      auto got_sources = engine.SingleSourceBatch(sources).values;
      ASSERT_EQ(got_sources.size(), want_sources.size());
      for (size_t i = 0; i < got_sources.size(); ++i) {
        for (size_t v = 0; v < got_sources[i].size(); ++v) {
          ASSERT_EQ(got_sources[i][v], want_sources[i][v]);
        }
      }
      auto got_topk = engine.TopKBatch(sources, 10).values;
      for (size_t i = 0; i < got_topk.size(); ++i) {
        ASSERT_EQ(got_topk[i].size(), want_topk[i].size());
        for (size_t j = 0; j < got_topk[i].size(); ++j) {
          ASSERT_EQ(got_topk[i][j].node, want_topk[i][j].node);
          ASSERT_EQ(got_topk[i][j].score, want_topk[i][j].score);
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
  EXPECT_EQ(snap.kernel_name(), "flat+virtual");
  EXPECT_EQ(snap.flat_semantic_table(), nullptr);
  ASSERT_NE(snap.transition_table(), nullptr);

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
