#include "core/dynamic_walk_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "core/mc_simrank.h"
#include "core/mc_semsim.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

// Checks every live step of every walk is a valid in-neighbor in `g`,
// and that the compact layout's live lengths still describe exactly the
// non-padded prefix after in-place updates.
void CheckWalksValid(const WalkIndex& index, const Hin& g) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int w = 0; w < index.num_walks(); ++w) {
      auto walk = index.Walk(v, w);
      int expected_len = index.walk_length();
      NodeId cur = v;
      for (int s = 0; s < index.walk_length(); ++s) {
        if (walk[s] == kInvalidNode) {
          ASSERT_TRUE(g.InNeighbors(cur).empty() || s > 0);
          expected_len = s;
          // Once dead, stays dead.
          for (int r = s; r < index.walk_length(); ++r) {
            ASSERT_EQ(walk[r], kInvalidNode);
          }
          break;
        }
        bool found = false;
        for (const Neighbor& nb : g.InNeighbors(cur)) {
          if (nb.node == walk[s]) {
            found = true;
            break;
          }
        }
        ASSERT_TRUE(found) << "stale step after update";
        cur = walk[s];
      }
      ASSERT_EQ(index.WalkLiveLength(v, w), expected_len)
          << "live length out of sync after update, node " << v << " walk "
          << w;
    }
  }
}

TEST(DynamicWalkIndex, EmptyDirtySetIsNoOp) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 50;
  opt.walk_length = 8;
  DynamicWalkIndex dyn = DynamicWalkIndex::Build(&w.graph, opt);
  WalkIndex before = dyn.view();  // copy
  size_t resampled = Unwrap(dyn.Update(&w.graph, {}));
  EXPECT_EQ(resampled, 0u);
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      auto a = before.Walk(v, k);
      auto b = dyn.view().Walk(v, k);
      for (int s = 0; s < opt.walk_length; ++s) ASSERT_EQ(a[s], b[s]);
    }
  }
}

TEST(DynamicWalkIndex, EdgeAdditionResamplesOnlyAffectedWalks) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 60;
  opt.walk_length = 10;
  DynamicWalkIndex dyn = DynamicWalkIndex::Build(&w.graph, opt);
  WalkIndex before = dyn.view();

  // New version: b1 also relates to a0 (changes in-neighborhoods of both).
  HinBuilder builder = w.graph.ToBuilder();
  ASSERT_TRUE(builder.AddUndirectedEdge(w.b1, w.a0, "rel", 1.0).ok());
  Hin updated = Unwrap(std::move(builder).Build());
  std::vector<NodeId> dirty = {w.b1, w.a0};

  size_t resampled = Unwrap(dyn.Update(&updated, dirty));
  EXPECT_GT(resampled, 0u);
  CheckWalksValid(dyn.view(), updated);

  // Walks that never visited a dirty node are bit-identical.
  size_t untouched = 0;
  for (NodeId v = 0; v < updated.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      auto old_walk = before.Walk(v, k);
      bool visits_dirty = v == w.b1 || v == w.a0;
      for (int s = 0; s < opt.walk_length && !visits_dirty; ++s) {
        if (old_walk[s] == kInvalidNode) break;
        if (old_walk[s] == w.b1 || old_walk[s] == w.a0) visits_dirty = true;
      }
      if (!visits_dirty) {
        auto new_walk = dyn.view().Walk(v, k);
        for (int s = 0; s < opt.walk_length; ++s) {
          ASSERT_EQ(old_walk[s], new_walk[s]);
        }
        ++untouched;
      }
    }
  }
  EXPECT_GT(untouched, 0u);
}

TEST(DynamicWalkIndex, UpdatedIndexMatchesFreshIndexStatistically) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 4000;
  opt.walk_length = 10;
  opt.seed = 21;
  DynamicWalkIndex dyn = DynamicWalkIndex::Build(&w.graph, opt);

  HinBuilder builder = w.graph.ToBuilder();
  ASSERT_TRUE(builder.AddUndirectedEdge(w.a0, w.b1, "rel", 2.0).ok());
  Hin updated = Unwrap(std::move(builder).Build());
  Unwrap(dyn.Update(&updated, std::vector<NodeId>{w.a0, w.b1}));

  WalkIndexOptions fresh_opt = opt;
  fresh_opt.seed = 99;  // independent sample
  WalkIndex fresh = WalkIndex::Build(updated, fresh_opt);

  // SimRank estimates from the incrementally updated index must agree
  // with estimates from a freshly built index on the new graph.
  for (NodeId u : {w.a0, w.a1, w.b0}) {
    for (NodeId v : {w.b1, w.a2, w.cat_a}) {
      if (u == v) continue;
      double updated_est = McSimRankQuery(dyn.view(), u, v, 0.6);
      double fresh_est = McSimRankQuery(fresh, u, v, 0.6);
      EXPECT_NEAR(updated_est, fresh_est, 0.03)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(DynamicWalkIndex, WeightedAliasUpdateKeepsWalksValidAndUnbiased) {
  // Weighted proposal (alias-sampled steps): Update must lazily
  // build the sampler over the new graph, keep every resampled suffix a
  // valid weighted walk, and stay statistically indistinguishable from
  // a fresh weighted build.
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 4000;
  opt.walk_length = 10;
  opt.seed = 33;
  opt.weighted = true;
  DynamicWalkIndex dyn = DynamicWalkIndex::Build(&w.graph, opt);

  HinBuilder builder = w.graph.ToBuilder();
  ASSERT_TRUE(builder.AddUndirectedEdge(w.a0, w.b1, "rel", 4.0).ok());
  Hin updated = Unwrap(std::move(builder).Build());
  size_t resampled =
      Unwrap(dyn.Update(&updated, std::vector<NodeId>{w.a0, w.b1}));
  EXPECT_GT(resampled, 0u);
  CheckWalksValid(dyn.view(), updated);

  WalkIndexOptions fresh_opt = opt;
  fresh_opt.seed = 77;  // independent sample
  WalkIndex fresh = WalkIndex::Build(updated, fresh_opt);
  for (NodeId u : {w.a0, w.a1, w.b0}) {
    for (NodeId v : {w.b1, w.a2, w.cat_a}) {
      if (u == v) continue;
      EXPECT_NEAR(McSimRankQuery(dyn.view(), u, v, 0.6),
                  McSimRankQuery(fresh, u, v, 0.6), 0.03)
          << "(" << u << "," << v << ")";
    }
  }
}

TEST(DynamicWalkIndex, EdgeRemovalInvalidatesStaleSteps) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 80;
  opt.walk_length = 10;
  DynamicWalkIndex dyn = DynamicWalkIndex::Build(&w.graph, opt);

  // Remove the a0<->a1 relation entirely.
  HinBuilder builder;
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    builder.AddNode(std::string(w.graph.node_name(v)),
                    w.graph.label_name(w.graph.node_label(v)));
  }
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (const Neighbor& nb : w.graph.OutNeighbors(v)) {
      bool removed = (v == w.a0 && nb.node == w.a1) ||
                     (v == w.a1 && nb.node == w.a0);
      if (!removed) {
        ASSERT_TRUE(builder
                        .AddEdge(v, nb.node,
                                 w.graph.label_name(nb.edge_label), nb.weight)
                        .ok());
      }
    }
  }
  Hin updated = Unwrap(std::move(builder).Build());
  Unwrap(dyn.Update(&updated, std::vector<NodeId>{w.a0, w.a1}));
  CheckWalksValid(dyn.view(), updated);
  // No walk may step a0 -> a1 or a1 -> a0 anymore.
  for (NodeId v = 0; v < updated.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      auto walk = dyn.view().Walk(v, k);
      NodeId cur = v;
      for (int s = 0; s < opt.walk_length; ++s) {
        if (walk[s] == kInvalidNode) break;
        ASSERT_FALSE(cur == w.a0 && walk[s] == w.a1);
        ASSERT_FALSE(cur == w.a1 && walk[s] == w.a0);
        cur = walk[s];
      }
    }
  }
}

TEST(DynamicWalkIndex, AdoptPromotesMappedIndexToOwned) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 20;
  opt.walk_length = 6;
  WalkIndex built = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_dyn_mapped.widx";
  ASSERT_TRUE(built.Save(path).ok());
  WalkIndex mapped = Unwrap(WalkIndex::Map(path, w.graph.num_nodes()));
  ASSERT_TRUE(mapped.mapped());

  // A mapped index is read-only: Adopt must COW-promote it to owned
  // storage before any in-place resampling is allowed.
  DynamicWalkIndex dyn =
      Unwrap(DynamicWalkIndex::Adopt(&w.graph, std::move(mapped)));
  EXPECT_FALSE(dyn.view().mapped());
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      auto a = built.Walk(v, k);
      auto b = dyn.view().Walk(v, k);
      for (int s = 0; s < opt.walk_length; ++s) ASSERT_EQ(a[s], b[s]);
    }
  }

  // After promotion, updates work against the writable copy.
  HinBuilder builder = w.graph.ToBuilder();
  ASSERT_TRUE(builder.AddUndirectedEdge(w.b1, w.a0, "rel", 1.0).ok());
  Hin updated = Unwrap(std::move(builder).Build());
  size_t resampled =
      Unwrap(dyn.Update(&updated, std::vector<NodeId>{w.b1, w.a0}));
  EXPECT_GT(resampled, 0u);
  CheckWalksValid(dyn.view(), updated);
  std::remove(path.c_str());
}

TEST(DynamicWalkIndex, AdoptRejectsShapeMismatch) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 10;
  opt.walk_length = 5;
  WalkIndex built = WalkIndex::Build(w.graph, opt);
  HinBuilder b;
  b.AddNode("only", "t");
  b.AddNode("other", "t");
  Hin small = Unwrap(std::move(b).Build());
  auto result = DynamicWalkIndex::Adopt(&small, std::move(built));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DynamicWalkIndex, RejectsInvalidUpdates) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 5;
  opt.walk_length = 5;
  DynamicWalkIndex dyn = DynamicWalkIndex::Build(&w.graph, opt);
  EXPECT_FALSE(dyn.Update(nullptr, {}).ok());
  HinBuilder b;
  b.AddNode("only", "t");
  Hin small = Unwrap(std::move(b).Build());
  EXPECT_FALSE(dyn.Update(&small, {}).ok());
  std::vector<NodeId> bad = {static_cast<NodeId>(w.graph.num_nodes() + 5)};
  EXPECT_FALSE(dyn.Update(&w.graph, bad).ok());
}

}  // namespace
}  // namespace semsim
