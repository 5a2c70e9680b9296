#include "core/topk.h"

#include <gtest/gtest.h>

#include "core/iterative.h"
#include "core/engine_snapshot.h"
#include "core/query_scratch.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

TEST(MatrixTopK, OrdersByScoreThenId) {
  ScoreMatrix m(4);
  m.set(0, 1, 0.9);
  m.set(0, 2, 0.9);
  m.set(0, 3, 0.5);
  auto top = MatrixTopK(m, 0, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 1u);  // tie with 2, lower id wins
  EXPECT_EQ(top[1].node, 2u);
  EXPECT_EQ(top[2].node, 3u);
}

TEST(MatrixTopK, ExcludesQueryAndHonorsCandidates) {
  ScoreMatrix m(5);
  m.set(0, 1, 0.1);
  m.set(0, 2, 0.9);
  m.set(0, 3, 0.8);
  std::vector<NodeId> candidates = {0, 1, 3};
  auto top = MatrixTopK(m, 0, 10, &candidates);
  ASSERT_EQ(top.size(), 2u);  // query itself excluded
  EXPECT_EQ(top[0].node, 3u);
  EXPECT_EQ(top[1].node, 1u);
}

TEST(MatrixTopK, KLargerThanCandidates) {
  ScoreMatrix m(3);
  m.set(0, 1, 0.4);
  m.set(0, 2, 0.6);
  auto top = MatrixTopK(m, 0, 99);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 2u);
}

TEST(McTopK, AgreesWithExhaustiveEstimatorRanking) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndexOptions wopt;
  wopt.num_walks = 400;
  wopt.walk_length = 12;
  WalkIndex index = WalkIndex::Build(w.graph, wopt);
  SemSimMcEstimator est(&w.graph, &lin, &index);
  SemSimMcOptions opt;
  opt.decay = 0.6;

  auto top = McTopK(est, w.a0, 3, opt);
  ASSERT_EQ(top.size(), 3u);
  // Verify against brute force.
  std::vector<Scored> all;
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    if (v == w.a0) continue;
    all.push_back({v, est.Query(w.a0, v, opt)});
  }
  std::sort(all.begin(), all.end(), [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.node < b.node;
  });
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top[i].node, all[i].node);
    EXPECT_DOUBLE_EQ(top[i].score, all[i].score);
  }
}

// The migrated call sites of the library: a snapshot built over
// borrowed artifacts with the concurrent normalizer cache off, queried
// through its estimator (pairs, filtered top-k) or its inverted index
// (single-source top-k).
EngineSnapshotPtr BuildSnapshot(const testutil::SmallWorld& w,
                                const SemanticMeasure& measure,
                                const WalkIndexOptions& walks,
                                EngineSnapshotOptions opt) {
  opt.normalizer_cache_capacity = 0;
  return Unwrap(EngineSnapshot::Build(Unowned(&w.graph), Unowned(&measure),
                                      walks, opt, 0));
}

TEST(SnapshotQueries, EndToEndQueries) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  EngineSnapshotOptions opt;
  opt.query.mc = {0.6, 0.05};
  EngineSnapshotPtr snap =
      BuildSnapshot(w, lin, WalkIndexOptions{300, 12, 42, false}, opt);
  const SemSimMcEstimator& est = snap->estimator();

  EXPECT_DOUBLE_EQ(est.Query(w.a0, w.a0, opt.query.mc), 1.0);
  EXPECT_GT(est.Query(w.a0, w.a1, opt.query.mc), 0.0);
  auto top = McTopK(est, w.a0, 2, opt.query.mc);
  EXPECT_EQ(top.size(), 2u);
  EXPECT_GT(snap->MemoryBytes(), 0u);
}

TEST(SnapshotQueries, InvertedTopKFromMatchesPairwiseMcTopK) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  EngineSnapshotOptions opt;
  opt.query.mc = {0.6, 0.0};
  EngineSnapshotPtr snap =
      BuildSnapshot(w, lin, WalkIndexOptions{150, 10, 42, false}, opt);
  const size_t plain_bytes = snap->MemoryBytes();
  const SingleSourceIndex& inverted = snap->InvertedIndex();
  QueryScratch scratch;

  for (NodeId u = 0; u < w.graph.num_nodes(); ++u) {
    auto a = McTopK(snap->estimator(), u, 4, opt.query.mc);
    auto b = inverted.TopKFrom(u, 4, snap->estimator(), opt.query.mc, scratch);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node) << "u=" << u << " rank " << i;
      EXPECT_NEAR(a[i].score, b[i].score, 1e-10);
    }
  }
  EXPECT_GT(snap->MemoryBytes(), plain_bytes);
}

TEST(SnapshotQueries, InvertedSweepRespectsCandidateFilter) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  EngineSnapshotOptions opt;
  opt.query.mc = {0.6, 0.0};
  opt.eager_single_source = true;
  EngineSnapshotPtr snap =
      BuildSnapshot(w, lin, WalkIndexOptions{100, 8, 42, false}, opt);
  QueryScratch scratch;
  std::vector<double> scores;
  snap->InvertedIndex().SemSimFromInto(w.a0, snap->estimator(), opt.query.mc,
                                       scratch, scores);
  std::vector<NodeId> candidates = {w.a1, w.b0};
  auto top = CallbackTopK(w.graph.num_nodes(), w.a0, 10, &candidates,
                          [&](NodeId v) { return scores[v]; });
  ASSERT_EQ(top.size(), 2u);
  for (const Scored& s : top) {
    EXPECT_TRUE(s.node == w.a1 || s.node == w.b0);
  }
}

}  // namespace
}  // namespace semsim
