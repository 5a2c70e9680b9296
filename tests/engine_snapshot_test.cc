#include "core/engine_snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_engine.h"
#include "core/dynamic_walk_index.h"
#include "core/walk_index.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

WalkIndexOptions SmallWalks(uint64_t seed = 11) {
  WalkIndexOptions opt;
  opt.num_walks = 40;
  opt.walk_length = 8;
  opt.seed = seed;
  return opt;
}

TEST(EngineSnapshot, BuildDerivesArtifactsAndFingerprint) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  EngineSnapshotOptions opt;
  EngineSnapshotPtr snap = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(), opt,
      /*version=*/7));

  EXPECT_EQ(snap->version(), 7u);
  EXPECT_NE(snap->fingerprint(), 0u);
  EXPECT_EQ(&snap->graph(), &w.graph);
  EXPECT_EQ(snap->walk_index().num_walks(), SmallWalks().num_walks);
  EXPECT_GT(snap->MemoryBytes(), 0u);
  // Every snapshot's estimator steps through its transition table.
  EXPECT_NE(snap->transition_table(), nullptr);

  // Same inputs, same fingerprint; a different sampling seed changes the
  // walk content and therefore the fingerprint.
  EngineSnapshotPtr same = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(), opt,
      /*version=*/8));
  EXPECT_EQ(snap->fingerprint(), same->fingerprint());
  EngineSnapshotPtr other = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(99), opt,
      /*version=*/9));
  EXPECT_NE(snap->fingerprint(), other->fingerprint());
}

// Asserts that Create fails with InvalidArgument and that the message
// contains `needle`, so callers get an actionable diagnostic rather
// than a bare error code.
void ExpectCreateRejects(std::shared_ptr<const Hin> graph,
                         std::shared_ptr<const SemanticMeasure> semantic,
                         std::shared_ptr<const WalkIndex> walks,
                         const EngineSnapshotOptions& opt,
                         const std::string& needle) {
  auto r = EngineSnapshot::Create(std::move(graph), std::move(semantic),
                                  std::move(walks), opt, 0);
  ASSERT_FALSE(r.ok()) << "expected rejection mentioning '" << needle << "'";
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find(needle), std::string::npos)
      << "status was: " << r.status().ToString();
}

TEST(EngineSnapshot, RejectsNullArtifactsAndBadCapacities) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  auto graph = Unowned(&w.graph);
  auto measure = Unowned<SemanticMeasure>(&lin);
  auto walks = std::make_shared<const WalkIndex>(
      WalkIndex::Build(w.graph, SmallWalks()));
  const EngineSnapshotOptions opt;
  ExpectCreateRejects(nullptr, measure, walks, opt, "required");
  ExpectCreateRejects(graph, nullptr, walks, opt, "required");
  ExpectCreateRejects(graph, measure, nullptr, opt, "required");

  EngineSnapshotOptions bad = opt;
  bad.normalizer_cache_capacity = -1;
  ExpectCreateRejects(graph, measure, walks, bad,
                      "normalizer_cache_capacity must be >= 0");

  for (double decay : {0.0, 1.0, 1.2, -0.3}) {
    bad = opt;
    bad.query.mc = SemSimMcOptions{decay, 0.0};
    ExpectCreateRejects(graph, measure, walks, bad, "decay must lie in (0,1)");
  }

  bad = opt;
  bad.query.mc = SemSimMcOptions{0.6, 0.5};  // violates θ <= 1-c
  ExpectCreateRejects(graph, measure, walks, bad, "Lemma 4.7");
  bad.query.mc = SemSimMcOptions{0.6, 0.4};  // the boundary itself is legal
  EXPECT_TRUE(EngineSnapshot::Create(graph, measure, walks, bad, 0).ok());

  bad = opt;
  bad.query.mc.walk_budget = -1;
  ExpectCreateRejects(graph, measure, walks, bad, "walk_budget must be >= 0");

  // Valid options still succeed after every rejection.
  EXPECT_TRUE(EngineSnapshot::Create(graph, measure, walks, opt, 0).ok());
}

TEST(EngineSnapshot, RejectsWalkIndexBuiltOnAnotherGraph) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  HinBuilder b;
  NodeId x = b.AddNode("x", "T");
  NodeId y = b.AddNode("y", "T");
  ASSERT_TRUE(b.AddEdge(x, y, "r").ok());
  Hin other = Unwrap(std::move(b).Build());
  ASSERT_NE(other.num_nodes(), w.graph.num_nodes());
  auto foreign = std::make_shared<const WalkIndex>(
      WalkIndex::Build(other, SmallWalks()));
  EXPECT_EQ(foreign->num_nodes(), other.num_nodes());
  ExpectCreateRejects(Unowned(&w.graph), Unowned<SemanticMeasure>(&lin),
                      foreign, EngineSnapshotOptions{},
                      "2 walk origins but the graph has 8 nodes");
}

TEST(EngineSnapshot, InvertedIndexIsLazyIdempotentAndEagerOnRequest) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  EngineSnapshotOptions opt;
  EngineSnapshotPtr lazy = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(), opt,
      0));
  EXPECT_EQ(lazy->inverted_if_built(), nullptr);
  const SingleSourceIndex& first = lazy->InvertedIndex();
  EXPECT_EQ(&first, lazy->inverted_if_built());
  EXPECT_EQ(&first, &lazy->InvertedIndex());  // idempotent

  opt.eager_single_source = true;
  EngineSnapshotPtr eager = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(), opt,
      0));
  EXPECT_NE(eager->inverted_if_built(), nullptr);
}

TEST(EngineSnapshot, MappedArtifactServesBitIdenticallyToOwned) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex built = WalkIndex::Build(w.graph, SmallWalks());
  std::string path = ::testing::TempDir() + "semsim_snapshot_mapped.widx";
  ASSERT_TRUE(built.Save(path).ok());

  EngineSnapshotOptions opt;
  EngineSnapshotPtr owned = Unwrap(EngineSnapshot::Build(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), SmallWalks(), opt,
      1));
  EngineSnapshotPtr mapped = Unwrap(EngineSnapshot::MapArtifact(
      Unowned(&w.graph), Unowned<SemanticMeasure>(&lin), path, opt, 2));
  ASSERT_TRUE(mapped->walk_index().mapped());

  // Identical walk content + options => identical fingerprint, and the
  // engines bound to the two snapshots agree bit for bit.
  EXPECT_EQ(owned->fingerprint(), mapped->fingerprint());
  BatchQueryEngine a = Unwrap(BatchQueryEngine::CreateFromSnapshot(owned, 1));
  BatchQueryEngine b = Unwrap(BatchQueryEngine::CreateFromSnapshot(mapped, 1));
  std::vector<NodePair> pairs = {{w.a0, w.a1}, {w.a2, w.b0}, {w.b0, w.b1}};
  std::vector<double> got_a = a.QueryBatch(pairs).values;
  std::vector<double> got_b = b.QueryBatch(pairs).values;
  ASSERT_EQ(got_a.size(), got_b.size());
  for (size_t i = 0; i < got_a.size(); ++i) EXPECT_EQ(got_a[i], got_b[i]);
  std::remove(path.c_str());
}

// Mapped -> owned promotion through the maintainer: Adopt COW-promotes
// the mapped artifact, and UpdateToSnapshot publishes the maintained
// walks as a fresh owned snapshot while the mapped-era results replay.
TEST(EngineSnapshot, AdoptedMappedIndexPublishesOwnedSnapshot) {
  auto w = MakeSmallWorld();
  LinMeasure lin(&w.context);
  WalkIndex built = WalkIndex::Build(w.graph, SmallWalks());
  std::string path = ::testing::TempDir() + "semsim_snapshot_adopt.widx";
  ASSERT_TRUE(built.Save(path).ok());
  WalkIndex mapped = Unwrap(WalkIndex::Map(path, w.graph.num_nodes()));
  DynamicWalkIndex dyn =
      Unwrap(DynamicWalkIndex::Adopt(&w.graph, std::move(mapped)));

  auto graph = std::make_shared<const Hin>(w.graph);
  auto measure = std::make_shared<const LinMeasure>(&w.context);
  EngineSnapshotOptions opt;
  EngineSnapshotPtr snap = Unwrap(dyn.UpdateToSnapshot(
      graph, {}, measure, opt, /*version=*/1));
  EXPECT_FALSE(snap->walk_index().mapped());
  EXPECT_EQ(snap->version(), 1u);

  // The published snapshot serves the same walks the artifact held.
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    auto a = built.Walk(v, 0);
    auto b = snap->walk_index().Walk(v, 0);
    for (int s = 0; s < built.walk_length(); ++s) ASSERT_EQ(a[s], b[s]);
  }
  std::remove(path.c_str());
}

// The COW seam: a snapshot exported by UpdateToSnapshot must stay
// bit-stable while the maintainer keeps resampling.
TEST(EngineSnapshot, PublishedSnapshotSurvivesFurtherUpdatesUnchanged) {
  auto w = MakeSmallWorld();
  DynamicWalkIndex dyn = DynamicWalkIndex::Build(&w.graph, SmallWalks());

  auto graph = std::make_shared<const Hin>(w.graph);
  auto measure = std::make_shared<const ConstantMeasure>();
  EngineSnapshotOptions opt;
  EngineSnapshotPtr v1 = Unwrap(dyn.UpdateToSnapshot(
      graph, {}, measure, opt, /*version=*/1));
  BatchQueryEngine e1 = Unwrap(BatchQueryEngine::CreateFromSnapshot(v1, 1));
  std::vector<NodePair> pairs = {{w.a0, w.a1}, {w.a2, w.b0}, {w.b0, w.b1}};
  std::vector<double> before = e1.QueryBatch(pairs).values;
  uint64_t fp_before = v1->fingerprint();

  // Mutate the graph; the maintainer resamples onto a private copy.
  HinBuilder builder = w.graph.ToBuilder();
  ASSERT_TRUE(builder.AddUndirectedEdge(w.b1, w.a0, "rel", 1.0).ok());
  auto updated = std::make_shared<const Hin>(Unwrap(std::move(builder).Build()));
  size_t resampled = 0;
  EngineSnapshotPtr v2 = Unwrap(dyn.UpdateToSnapshot(
      updated, std::vector<NodeId>{w.b1, w.a0}, measure, opt, /*version=*/2,
      &resampled));
  EXPECT_GT(resampled, 0u);
  EXPECT_NE(v2->fingerprint(), fp_before);

  // v1 readers still see exactly the pre-update world.
  EXPECT_EQ(v1->fingerprint(), fp_before);
  std::vector<double> after = e1.QueryBatch(pairs).values;
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) EXPECT_EQ(before[i], after[i]);
}

// Destruction ordering under chaining: the old snapshot (and the
// artifacts only it references) must die exactly when its last reader
// releases it, never while an engine still serves from it. ASan guards
// the use-after-free half; the weak_ptr guards the leak half.
TEST(EngineSnapshot, ChainedSnapshotsDieWithTheirLastReader) {
  auto w = MakeSmallWorld();
  DynamicWalkIndex dyn = DynamicWalkIndex::Build(&w.graph, SmallWalks());
  auto graph = std::make_shared<const Hin>(w.graph);
  auto measure = std::make_shared<const ConstantMeasure>();
  EngineSnapshotOptions opt;

  EngineSnapshotPtr v1 = Unwrap(dyn.UpdateToSnapshot(
      graph, {}, measure, opt, 1));
  std::weak_ptr<const EngineSnapshot> watch = v1;
  auto engine = std::make_unique<BatchQueryEngine>(
      Unwrap(BatchQueryEngine::CreateFromSnapshot(v1, 1)));
  v1.reset();  // the engine is now the only reader
  EXPECT_FALSE(watch.expired());
  std::vector<NodePair> pairs = {{w.a0, w.b1}};
  EXPECT_EQ(engine->QueryBatch(pairs).values.size(), 1u);
  engine.reset();
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace semsim
