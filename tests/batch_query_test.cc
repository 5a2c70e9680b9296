#include "core/batch_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/metrics.h"
#include "core/mc_semsim.h"
#include "core/single_source.h"
#include "core/walk_index.h"
#include "datasets/aminer_gen.h"
#include "datasets/figure1.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;

// Deterministic random-ish query pairs covering every node at least once.
std::vector<NodePair> MakePairs(size_t num_nodes, size_t count) {
  std::vector<NodePair> pairs;
  Rng rng(91);
  for (size_t i = 0; i < count; ++i) {
    NodeId u = static_cast<NodeId>(i % num_nodes);
    NodeId v = static_cast<NodeId>(rng.NextIndex(num_nodes));
    pairs.push_back(NodePair{u, v});
  }
  return pairs;
}

struct Fixture {
  Dataset dataset;
  LinMeasure lin;
  WalkIndex index;

  explicit Fixture(Dataset d, int num_walks = 60, int walk_length = 10)
      : dataset(std::move(d)),
        lin(&dataset.context),
        index(WalkIndex::Build(dataset.graph,
                               WalkIndexOptions{num_walks, walk_length, 11,
                                                false})) {}

  // A cacheless serial estimator with the semantic path an engine
  // snapshot attaches (Lin from the S table, grouped normalizers).
  std::unique_ptr<SemSimMcEstimator> Plain() const {
    auto plain = std::make_unique<SemSimMcEstimator>(&dataset.graph, &lin,
                                                     &index);
    EXPECT_TRUE(plain->AttachGroups());
    return plain;
  }

  // An engine over a fresh snapshot of the fixture's artifacts, so every
  // engine starts with cold caches of its own.
  BatchQueryEngine Engine(int threads,
                          const SemSimMcOptions& mc = QueryOptions().mc) const {
    EngineSnapshotOptions opt;
    opt.query.mc = mc;
    return Unwrap(BatchQueryEngine::CreateFromSnapshot(
        Unwrap(EngineSnapshot::Create(Unowned(&dataset.graph), Unowned(&lin),
                                      Unowned(&index), opt, /*version=*/0)),
        threads));
  }
};

Fixture Figure1Fixture() { return Fixture(Unwrap(MakeFigure1Dataset())); }

Fixture AminerFixture() {
  AminerOptions opt;
  opt.num_authors = 220;
  opt.seed = 3;
  return Fixture(Unwrap(GenerateAminer(opt)));
}

void ExpectBatchDeterministic(const Fixture& f, const SemSimMcOptions& mc) {
  std::vector<NodePair> pairs = MakePairs(f.dataset.graph.num_nodes(), 200);

  // Engine results must be bit-identical for 1, 2, and 8 threads — and
  // identical to the cacheless serial estimator, so neither the pool
  // partitioning nor cross-query cache history may perturb a single ulp.
  std::unique_ptr<SemSimMcEstimator> plain = f.Plain();
  std::vector<double> expected;
  for (const NodePair& p : pairs) {
    expected.push_back(plain->Query(p.first, p.second, mc));
  }
  for (int threads : {1, 2, 8}) {
    BatchQueryEngine engine = f.Engine(threads, mc);
    // Two rounds: the second runs against a warm cross-query cache.
    for (int round = 0; round < 2; ++round) {
      std::vector<double> got = engine.QueryBatch(pairs).values;
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << "threads=" << threads << " round=" << round << " item=" << i;
      }
    }
  }
}

TEST(BatchQuery, BitIdenticalAcrossThreadCountsOnFigure1) {
  ExpectBatchDeterministic(Figure1Fixture(), SemSimMcOptions{0.6, 0.0});
}

TEST(BatchQuery, BitIdenticalAcrossThreadCountsOnGeneratedAminer) {
  ExpectBatchDeterministic(AminerFixture(), SemSimMcOptions{0.6, 0.05});
}

TEST(BatchQuery, EstimatorQueryBatchMatchesSerialWithoutEngine) {
  Fixture f = AminerFixture();
  SemSimMcOptions mc{0.6, 0.05};
  SemSimMcEstimator estimator(&f.dataset.graph, &f.lin, &f.index);
  std::vector<NodePair> pairs = MakePairs(f.dataset.graph.num_nodes(), 150);
  ThreadPool pool(4);
  McQueryStats stats;
  std::vector<double> got = estimator.QueryBatch(pairs, mc, pool, &stats);
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(got[i], estimator.Query(pairs[i].first, pairs[i].second, mc));
  }
  EXPECT_GT(stats.met_walks, 0);
}

TEST(BatchQuery, ChunkedBatchMatchesPerPairQueries) {
  // Values and every stage count of QueryBatch must equal per-pair
  // Query calls at any thread count. No shared cache, so the counts are
  // history-free.
  Fixture f = AminerFixture();
  SemSimMcOptions mc{0.6, 0.05};
  SemSimMcEstimator estimator(&f.dataset.graph, &f.lin, &f.index);
  std::vector<NodePair> pairs = MakePairs(f.dataset.graph.num_nodes(), 300);
  std::vector<double> expected;
  McQueryStats want;
  for (const NodePair& p : pairs) {
    expected.push_back(estimator.Query(p.first, p.second, mc, &want));
  }
  ASSERT_GT(want.normalizers_computed, 0);
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    McQueryStats got;
    std::vector<double> values = estimator.QueryBatch(pairs, mc, pool, &got);
    ASSERT_EQ(values, expected) << "threads=" << threads;
    EXPECT_EQ(got.met_walks, want.met_walks) << "threads=" << threads;
    EXPECT_EQ(got.pruned_walks, want.pruned_walks);
    EXPECT_EQ(got.sem_pruned_queries, want.sem_pruned_queries);
    EXPECT_EQ(got.normalizers_computed, want.normalizers_computed);
    EXPECT_EQ(got.normalizer_work, want.normalizer_work);
    EXPECT_EQ(got.shared_cache_hits, 0);
  }
}

TEST(BatchQuery, SingleSourceBatchMatchesSerialSweeps) {
  Fixture f = AminerFixture();
  SemSimMcOptions mc{0.6, 0.05};
  BatchQueryEngine engine = f.Engine(4, mc);

  std::unique_ptr<SemSimMcEstimator> plain = f.Plain();
  SingleSourceIndex inverted = SingleSourceIndex::Build(f.index);

  std::vector<NodeId> sources = {0, 3, 7, 11, 0, 3};
  auto batch = engine.SingleSourceBatch(sources).values;
  ASSERT_EQ(batch.size(), sources.size());
  QueryScratch scratch;
  std::vector<double> serial;
  for (size_t i = 0; i < sources.size(); ++i) {
    inverted.SemSimFromInto(sources[i], *plain, mc, scratch, serial);
    ASSERT_EQ(batch[i].size(), serial.size());
    for (size_t v = 0; v < serial.size(); ++v) {
      ASSERT_EQ(batch[i][v], serial[v]) << "source=" << sources[i];
    }
  }
}

TEST(BatchQuery, TopKBatchMatchesSerialTopK) {
  Fixture f = Figure1Fixture();
  SemSimMcOptions mc{0.6, 0.0};
  BatchQueryEngine engine = f.Engine(8, mc);

  std::unique_ptr<SemSimMcEstimator> plain = f.Plain();
  SingleSourceIndex inverted = SingleSourceIndex::Build(f.index);

  std::vector<NodeId> sources;
  for (NodeId v = 0; v < f.dataset.graph.num_nodes(); ++v) {
    sources.push_back(v);
  }
  auto batch = engine.TopKBatch(sources, 3).values;
  ASSERT_EQ(batch.size(), sources.size());
  QueryScratch scratch;
  for (size_t i = 0; i < sources.size(); ++i) {
    std::vector<Scored> serial =
        inverted.TopKFrom(sources[i], 3, *plain, mc, scratch);
    ASSERT_EQ(batch[i].size(), serial.size());
    for (size_t j = 0; j < serial.size(); ++j) {
      EXPECT_EQ(batch[i][j].node, serial[j].node);
      EXPECT_EQ(batch[i][j].score, serial[j].score);
    }
  }
}

// A single-source sweep sums every SO normalizer against its correction
// row (SingleSourceIndex::SemSimFromInto), so repeated SingleSourceBatch
// and TopKBatch calls neither read nor fill the snapshot's shared cache,
// and each repeat returns the same bits and stage counts.
TEST(BatchQuery, SingleSourceSweepLeavesTheSharedCacheUntouched) {
  Fixture f = AminerFixture();
  BatchQueryEngine engine = f.Engine(2, SemSimMcOptions{0.6, 0.05});
  const ConcurrentPairCache& cache = *engine.snapshot()->normalizer_cache();

  std::vector<NodeId> sources = {1, 2, 5};
  BatchResult<std::vector<double>> first = engine.SingleSourceBatch(sources);
  BatchResult<std::vector<double>> second = engine.SingleSourceBatch(sources);
  BatchResult<std::vector<Scored>> top_first = engine.TopKBatch(sources, 5);
  BatchResult<std::vector<Scored>> top_second = engine.TopKBatch(sources, 5);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.size(), 0u);

  ASSERT_GT(first.stats.normalizers_computed, 0);
  EXPECT_EQ(second.values, first.values);
  for (const McQueryStats* s : {&second.stats, &top_first.stats,
                                &top_second.stats}) {
    EXPECT_EQ(s->met_walks, first.stats.met_walks);
    EXPECT_EQ(s->pruned_walks, first.stats.pruned_walks);
    EXPECT_EQ(s->sem_pruned_queries, first.stats.sem_pruned_queries);
    EXPECT_EQ(s->normalizers_computed, first.stats.normalizers_computed);
    EXPECT_EQ(s->normalizer_work, first.stats.normalizer_work);
    EXPECT_EQ(s->shared_cache_hits, 0);
  }
  ASSERT_EQ(top_second.values.size(), top_first.values.size());
  for (size_t i = 0; i < top_first.values.size(); ++i) {
    ASSERT_EQ(top_second.values[i].size(), top_first.values[i].size());
    for (size_t j = 0; j < top_first.values[i].size(); ++j) {
      EXPECT_EQ(top_second.values[i][j].node, top_first.values[i][j].node);
      EXPECT_EQ(top_second.values[i][j].score, top_first.values[i][j].score);
    }
  }
}

// The pair path keeps the cross-query cache: a repeated QueryBatch is
// answered largely from it, with nonzero hits and strictly fewer
// computed normalizers than the cold batch, and the same bits.
TEST(BatchQuery, SharedCacheHitsAccumulateAcrossRepeatedPairBatches) {
  Fixture f = AminerFixture();
  BatchQueryEngine engine = f.Engine(2, SemSimMcOptions{0.6, 0.05});

  std::vector<NodePair> pairs = MakePairs(f.dataset.graph.num_nodes(), 150);
  BatchResult<double> first = engine.QueryBatch(pairs);
  BatchResult<double> second = engine.QueryBatch(pairs);
  EXPECT_EQ(second.values, first.values);
  EXPECT_GT(second.stats.shared_cache_hits, 0);
  EXPECT_LT(second.stats.normalizers_computed,
            first.stats.normalizers_computed);
  EXPECT_GT(engine.snapshot()->normalizer_cache()->hits(), 0u);
}

TEST(BatchQuery, EngineReportsResolvedThreadCount) {
  Fixture f = Figure1Fixture();
  BatchQueryEngine engine = f.Engine(/*threads=*/0);  // auto
  EXPECT_EQ(engine.num_threads(), ThreadPool::ResolveThreadCount(0));
  BatchQueryEngine fixed = f.Engine(3);
  EXPECT_EQ(fixed.num_threads(), 3);
}

TEST(BatchQuery, CreateFromSnapshotRejectsNullSnapshot) {
  auto r = BatchQueryEngine::CreateFromSnapshot(nullptr, 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// A second engine bound over the first engine's snapshot shares every
// artifact and answers bit-identically — the replay path the stress
// harness and the hot-swap tests rely on. (The deprecated McQueryStats*
// out-param shims this test used to cover are gone; BatchResult is the
// only stats surface now.)
TEST(BatchQuery, EngineFromSharedSnapshotIsBitIdentical) {
  Fixture f = AminerFixture();
  BatchQueryEngine engine = f.Engine(2, SemSimMcOptions{0.6, 0.05});
  std::vector<NodePair> pairs = MakePairs(f.dataset.graph.num_nodes(), 80);
  std::vector<NodeId> sources = {0, 3, 7};

  BatchResult<double> q = engine.QueryBatch(pairs);
  BatchResult<std::vector<double>> ss = engine.SingleSourceBatch(sources);
  BatchResult<std::vector<Scored>> tk = engine.TopKBatch(sources, 5);

  EngineSnapshotPtr snapshot = engine.snapshot();
  ASSERT_NE(snapshot, nullptr);
  BatchQueryEngine replica =
      Unwrap(BatchQueryEngine::CreateFromSnapshot(snapshot, /*num_threads=*/1));
  EXPECT_EQ(replica.snapshot(), snapshot);

  BatchResult<double> q2 = replica.QueryBatch(pairs);
  BatchResult<std::vector<double>> ss2 = replica.SingleSourceBatch(sources);
  BatchResult<std::vector<Scored>> tk2 = replica.TopKBatch(sources, 5);

  EXPECT_EQ(q2.values, q.values);
  EXPECT_EQ(ss2.values, ss.values);
  ASSERT_EQ(tk2.values.size(), tk.values.size());
  for (size_t i = 0; i < tk2.values.size(); ++i) {
    ASSERT_EQ(tk2.values[i].size(), tk.values[i].size());
    for (size_t j = 0; j < tk2.values[i].size(); ++j) {
      EXPECT_EQ(tk2.values[i][j].node, tk.values[i][j].node);
      EXPECT_EQ(tk2.values[i][j].score, tk.values[i][j].score);
    }
  }
  EXPECT_GT(ss2.stats.met_walks, 0);
  EXPECT_EQ(ss2.stats.met_walks, ss.stats.met_walks);
}

// A full (or zero) walk_budget override and an unfired cancel token are
// both bit-exact no-ops relative to the engine's own options.
TEST(BatchQuery, FullWalkBudgetAndUnfiredTokenAreBitExactNoOps) {
  Fixture f = AminerFixture();
  BatchQueryEngine engine = f.Engine(2, SemSimMcOptions{0.6, 0.05});
  std::vector<NodePair> pairs = MakePairs(f.dataset.graph.num_nodes(), 120);
  std::vector<double> want = engine.QueryBatch(pairs).values;

  CancelToken token;  // never fired
  SemSimMcOptions mc = engine.snapshot()->options().query.mc;
  mc.walk_budget = f.index.num_walks();
  mc.cancel = &token;
  EXPECT_EQ(engine.QueryBatch(pairs, mc).values, want);
  EXPECT_GT(token.polls(), 0u);
  EXPECT_FALSE(token.observed());

  mc.walk_budget = 0;  // 0 = the full index
  EXPECT_EQ(engine.QueryBatch(pairs, mc).values, want);
}

// A reduced walk budget means the same thing on every query path: the
// pair estimator, the single-source sweep, and top-k all restrict to the
// first n_b walks and average over n_b. Pair vs sweep agree up to the
// documented summation-order band; top-k is exactly the budgeted rows.
TEST(BatchQuery, WalkBudgetConsistentAcrossPairSweepAndTopK) {
  Fixture f = AminerFixture();
  BatchQueryEngine engine = f.Engine(2, SemSimMcOptions{0.6, 0.05});
  SemSimMcOptions budgeted = engine.snapshot()->options().query.mc;
  budgeted.walk_budget = 10;

  std::vector<NodeId> sources = {0, 5, 9};
  auto rows = engine.SingleSourceBatch(sources, budgeted).values;
  ASSERT_EQ(rows.size(), sources.size());
  size_t n = f.dataset.graph.num_nodes();
  for (size_t i = 0; i < sources.size(); ++i) {
    std::vector<NodePair> pairs;
    for (NodeId v = 0; v < n; ++v) pairs.push_back({sources[i], v});
    std::vector<double> got = engine.QueryBatch(pairs, budgeted).values;
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_NEAR(rows[i][v], got[v], 1e-10)
          << "source=" << sources[i] << " v=" << v;
    }
  }
  // Top-k over the budgeted sweep is the top-k of the budgeted rows.
  auto topk = engine.TopKBatch(sources, 4, budgeted).values;
  for (size_t i = 0; i < sources.size(); ++i) {
    for (const Scored& s : topk[i]) {
      EXPECT_EQ(s.score, rows[i][s.node]);
    }
  }
}

TEST(BatchQuery, WalkBudgetErrorBandWidensAsBudgetShrinks) {
  size_t n = 1000;
  double full_band = WalkBudgetErrorBand(150, 0.05, n);
  double degraded_band = WalkBudgetErrorBand(10, 0.05, n);
  EXPECT_GT(degraded_band, full_band);
  // Round trip with Prop. 4.2: the budget RequiredWalkParameters picks
  // for a target eps guarantees a band no wider than eps.
  WalkAccuracy acc = RequiredWalkParameters(0.3, 0.05, n, 0.6);
  EXPECT_LE(WalkBudgetErrorBand(acc.num_walks, 0.05, n), 0.3 + 1e-12);
}

TEST(BatchQuery, NullStatsCallSitesStillPublishToRegistry) {
  Fixture f = Figure1Fixture();
  BatchQueryEngine engine = f.Engine(2);
  std::vector<NodePair> pairs = MakePairs(f.dataset.graph.num_nodes(), 50);

  Counter* met = MetricsRegistry::Global().GetCounter(
      "semsim_query_met_walks_total");
  Counter* published = MetricsRegistry::Global().GetCounter(
      "semsim_query_published_total");
  uint64_t met_before = met->Value();
  uint64_t published_before = published->Value();
  engine.QueryBatch(pairs);  // result (and its stats) dropped on the floor
  EXPECT_GT(met->Value(), met_before);
  EXPECT_GT(published->Value(), published_before);
}

}  // namespace
}  // namespace semsim
