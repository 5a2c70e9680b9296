#include "core/walk_index.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::MakeSmallWorld;
using testutil::Unwrap;

TEST(WalkIndex, DeterministicForSeed) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 10;
  opt.walk_length = 8;
  opt.seed = 99;
  WalkIndex a = WalkIndex::Build(w.graph, opt);
  WalkIndex b = WalkIndex::Build(w.graph, opt);
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      auto wa = a.Walk(v, k);
      auto wb = b.Walk(v, k);
      for (int s = 0; s < opt.walk_length; ++s) ASSERT_EQ(wa[s], wb[s]);
    }
  }
}

TEST(WalkIndex, StepsAreValidInNeighbors) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 20;
  opt.walk_length = 10;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      auto walk = index.Walk(v, k);
      NodeId cur = v;
      for (int s = 0; s < opt.walk_length; ++s) {
        if (walk[s] == kInvalidNode) {
          // Once dead, stays dead.
          for (int r = s; r < opt.walk_length; ++r) {
            ASSERT_EQ(walk[r], kInvalidNode);
          }
          break;
        }
        bool found = false;
        for (const Neighbor& nb : w.graph.InNeighbors(cur)) {
          if (nb.node == walk[s]) {
            found = true;
            break;
          }
        }
        ASSERT_TRUE(found) << "step to non-in-neighbor";
        cur = walk[s];
      }
    }
  }
}

TEST(WalkIndex, DeadEndsPadWithInvalid) {
  HinBuilder b;
  NodeId x = b.AddNode("x", "t");  // no in-neighbors
  NodeId y = b.AddNode("y", "t");
  ASSERT_TRUE(b.AddEdge(x, y, "e", 1).ok());
  Hin g = Unwrap(std::move(b).Build());
  WalkIndexOptions opt;
  opt.num_walks = 3;
  opt.walk_length = 4;
  WalkIndex index = WalkIndex::Build(g, opt);
  for (int k = 0; k < 3; ++k) {
    auto wx = index.Walk(x, k);
    for (int s = 0; s < 4; ++s) EXPECT_EQ(wx[s], kInvalidNode);
    auto wy = index.Walk(y, k);
    EXPECT_EQ(wy[0], x);  // only in-neighbor
    EXPECT_EQ(wy[1], kInvalidNode);
  }
}

TEST(WalkIndex, MemoryAccounting) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 5;
  opt.walk_length = 7;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  // Padded step array plus one uint16_t live length per (node, walk).
  EXPECT_EQ(index.MemoryBytes(),
            w.graph.num_nodes() * 5 * 7 * sizeof(NodeId) +
                w.graph.num_nodes() * 5 * sizeof(uint16_t));
  EXPECT_GE(index.build_seconds(), 0.0);
}

TEST(WalkIndex, LiveLengthsMatchPaddedScan) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 20;
  opt.walk_length = 10;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      auto walk = index.Walk(v, k);
      int expected = opt.walk_length;
      for (int s = 0; s < opt.walk_length; ++s) {
        if (walk[s] == kInvalidNode) {
          expected = s;
          break;
        }
      }
      ASSERT_EQ(index.WalkLiveLength(v, k), expected);
      // The compact accessor exposes the same storage.
      ASSERT_EQ(index.WalkData(v, k), walk.data());
    }
  }
}

TEST(WalkIndex, LiveLengthsOnDeadAndIsolatedNodes) {
  HinBuilder b;
  NodeId x = b.AddNode("x", "t");  // no in-neighbors: walks die instantly
  NodeId y = b.AddNode("y", "t");  // one in-neighbor (x), then dead
  ASSERT_TRUE(b.AddEdge(x, y, "e", 1).ok());
  Hin g = Unwrap(std::move(b).Build());
  WalkIndexOptions opt;
  opt.num_walks = 3;
  opt.walk_length = 4;
  WalkIndex index = WalkIndex::Build(g, opt);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(index.WalkLiveLength(x, k), 0);
    EXPECT_EQ(index.WalkLiveLength(y, k), 1);
  }
}

TEST(WalkIndexIo, LoadRecomputesLiveLengths) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 12;
  opt.walk_length = 6;
  WalkIndex original = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_walks_lens.bin";
  ASSERT_TRUE(original.Save(path).ok());
  WalkIndex loaded = Unwrap(WalkIndex::Load(path, w.graph.num_nodes()));
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      ASSERT_EQ(loaded.WalkLiveLength(v, k), original.WalkLiveLength(v, k));
    }
  }
  std::remove(path.c_str());
}

TEST(WalkIndexIo, RejectsLegacyFormatWithClearMessage) {
  // A version-1 file: the old magic followed by the old (version-less)
  // header layout. Must fail as FailedPrecondition telling the user to
  // rebuild, not as a garbage file.
  std::string path = ::testing::TempDir() + "semsim_walks_v1.bin";
  {
    std::ofstream out(path, std::ios::binary);
    uint64_t magic = 0x53454D57414C4B31ULL;  // "SEMWALK1"
    uint64_t num_nodes = 2;
    int32_t num_walks = 1, walk_length = 1;
    uint64_t seed = 42;
    uint8_t weighted = 0, pad[7] = {};
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    out.write(reinterpret_cast<const char*>(&num_nodes), sizeof(num_nodes));
    out.write(reinterpret_cast<const char*>(&num_walks), sizeof(num_walks));
    out.write(reinterpret_cast<const char*>(&walk_length),
              sizeof(walk_length));
    out.write(reinterpret_cast<const char*>(&seed), sizeof(seed));
    out.write(reinterpret_cast<const char*>(&weighted), sizeof(weighted));
    out.write(reinterpret_cast<const char*>(pad), sizeof(pad));
    NodeId steps[2] = {1, 0};
    out.write(reinterpret_cast<const char*>(steps), sizeof(steps));
  }
  auto result = WalkIndex::Load(path, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("format version 1"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("rebuild"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WalkIndexIo, RejectsTruncatedAndOversizedPayloads) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 4;
  opt.walk_length = 5;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_walks_sz.bin";
  ASSERT_TRUE(index.Save(path).ok());

  // Read the intact bytes back, then write corrupted variants.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - sizeof(NodeId)));
  }
  EXPECT_FALSE(WalkIndex::Load(path, w.graph.num_nodes()).ok())
      << "truncated payload must be rejected";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    uint32_t junk = 0xDEADBEEF;
    out.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  }
  EXPECT_FALSE(WalkIndex::Load(path, w.graph.num_nodes()).ok())
      << "trailing bytes must be rejected";
  std::remove(path.c_str());
}

TEST(WalkIndexIo, RejectsUnsupportedFutureVersion) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 2;
  opt.walk_length = 3;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_walks_ver.bin";
  ASSERT_TRUE(index.Save(path).ok());
  // Bump the format_version field (bytes 8..11, after the magic).
  {
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    uint32_t version = 99;
    io.seekp(8);
    io.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  auto result = WalkIndex::Load(path, w.graph.num_nodes());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("version 99"), std::string::npos)
      << result.status().message();
  std::remove(path.c_str());
}

TEST(WalkIndexIo, MapServesQueriesZeroCopy) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 12;
  opt.walk_length = 6;
  WalkIndex original = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_walks_map.bin";
  ASSERT_TRUE(original.Save(path).ok());
  WalkIndex mapped = Unwrap(WalkIndex::Map(path, w.graph.num_nodes()));
  EXPECT_TRUE(mapped.mapped());
  // v2 artifact: both sections serve from the mapping, nothing owned.
  EXPECT_GT(mapped.MappedBytes(), 0u);
  EXPECT_EQ(mapped.OwnedBytes(), 0u);
  EXPECT_EQ(mapped.MemoryBytes(), original.MemoryBytes());
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      ASSERT_EQ(mapped.WalkLiveLength(v, k), original.WalkLiveLength(v, k));
      auto a = mapped.Walk(v, k);
      auto b = original.Walk(v, k);
      for (int s = 0; s < opt.walk_length; ++s) ASSERT_EQ(a[s], b[s]);
    }
  }
  std::remove(path.c_str());
}

TEST(WalkIndexIo, CopyOfMappedIndexOwnsItsStorage) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 6;
  opt.walk_length = 5;
  WalkIndex original = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_walks_cow.bin";
  ASSERT_TRUE(original.Save(path).ok());
  WalkIndex copy;
  {
    WalkIndex mapped = Unwrap(WalkIndex::Map(path, w.graph.num_nodes()));
    copy = mapped;  // deep copy promotes to owned storage...
  }                 // ...so it survives the mapping's destruction
  std::remove(path.c_str());
  EXPECT_FALSE(copy.mapped());
  EXPECT_EQ(copy.MappedBytes(), 0u);
  EXPECT_GT(copy.OwnedBytes(), 0u);
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      ASSERT_EQ(copy.WalkLiveLength(v, k), original.WalkLiveLength(v, k));
      auto a = copy.Walk(v, k);
      auto b = original.Walk(v, k);
      for (int s = 0; s < opt.walk_length; ++s) ASSERT_EQ(a[s], b[s]);
    }
  }
}

TEST(WalkIndexIo, MapRejectsWrongNodeCount) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 2;
  opt.walk_length = 3;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_walks_mapn.bin";
  ASSERT_TRUE(index.Save(path).ok());
  auto result = WalkIndex::Map(path, w.graph.num_nodes() + 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(WalkIndex, UniformProposalProbability) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  size_t deg = w.graph.InDegree(w.a0);
  ASSERT_GT(deg, 0u);
  EXPECT_DOUBLE_EQ(index.ProposalProb(w.graph, w.a0, 0),
                   1.0 / static_cast<double>(deg));
}

TEST(WalkIndex, WeightedProposalProbability) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.weighted = true;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  auto in = w.graph.InNeighbors(w.a0);
  double total = w.graph.TotalInWeight(w.a0);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_DOUBLE_EQ(index.ProposalProb(w.graph, w.a0, i),
                     in[i].weight / total);
  }
}

TEST(WalkIndexIo, RoundTripPreservesWalksAndOptions) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 25;
  opt.walk_length = 9;
  opt.seed = 77;
  WalkIndex original = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_walks.bin";
  ASSERT_TRUE(original.Save(path).ok());
  WalkIndex loaded = Unwrap(WalkIndex::Load(path, w.graph.num_nodes()));
  EXPECT_EQ(loaded.num_walks(), 25);
  EXPECT_EQ(loaded.walk_length(), 9);
  EXPECT_EQ(loaded.options().seed, 77u);
  for (NodeId v = 0; v < w.graph.num_nodes(); ++v) {
    for (int k = 0; k < opt.num_walks; ++k) {
      auto a = original.Walk(v, k);
      auto b = loaded.Walk(v, k);
      for (int s = 0; s < opt.walk_length; ++s) ASSERT_EQ(a[s], b[s]);
    }
  }
  std::remove(path.c_str());
}

TEST(WalkIndexIo, RejectsWrongGraphAndGarbage) {
  auto w = MakeSmallWorld();
  WalkIndexOptions opt;
  opt.num_walks = 5;
  opt.walk_length = 5;
  WalkIndex index = WalkIndex::Build(w.graph, opt);
  std::string path = ::testing::TempDir() + "semsim_walks2.bin";
  ASSERT_TRUE(index.Save(path).ok());
  EXPECT_FALSE(WalkIndex::Load(path, w.graph.num_nodes() + 1).ok());
  EXPECT_FALSE(WalkIndex::Load("/nonexistent/walks.bin", 8).ok());
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage";
  }
  EXPECT_FALSE(WalkIndex::Load(path, w.graph.num_nodes()).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace semsim
