#include "datasets/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "datasets/amazon_gen.h"
#include "datasets/figure1.h"
#include "taxonomy/semantic_measure.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "semsim_dataset_io";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(DatasetIoTest, RoundTripPreservesEverything) {
  AmazonOptions gen;
  gen.num_items = 80;
  gen.heldout_fraction = 0.1;
  gen.seed = 5;
  Dataset original = Unwrap(GenerateAmazon(gen));
  // Give it every kind of ground truth.
  original.duplicate_pairs.emplace_back(0, 1);
  original.relatedness.push_back(RelatednessPair{2, 3, 0.42});

  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  Dataset loaded = Unwrap(LoadDataset(dir_));

  EXPECT_EQ(loaded.name, original.name);
  EXPECT_EQ(loaded.graph.num_nodes(), original.graph.num_nodes());
  EXPECT_EQ(loaded.graph.num_edges(), original.graph.num_edges());
  EXPECT_EQ(loaded.heldout_edges, original.heldout_edges);
  EXPECT_EQ(loaded.duplicate_pairs, original.duplicate_pairs);
  ASSERT_EQ(loaded.relatedness.size(), original.relatedness.size());
  for (size_t i = 0; i < loaded.relatedness.size(); ++i) {
    EXPECT_EQ(loaded.relatedness[i].a, original.relatedness[i].a);
    EXPECT_EQ(loaded.relatedness[i].b, original.relatedness[i].b);
    EXPECT_NEAR(loaded.relatedness[i].human_score,
                original.relatedness[i].human_score, 1e-9);
  }
  // Semantic binding identical: same concepts, IC and Lin scores.
  ASSERT_EQ(loaded.context.taxonomy().num_concepts(),
            original.context.taxonomy().num_concepts());
  LinMeasure lin_a(&original.context), lin_b(&loaded.context);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    NodeId u = static_cast<NodeId>(rng.NextIndex(loaded.graph.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.NextIndex(loaded.graph.num_nodes()));
    ASSERT_NEAR(lin_a.Sim(u, v), lin_b.Sim(u, v), 1e-9);
  }
}

TEST_F(DatasetIoTest, Figure1RoundTripKeepsTheExampleWorking) {
  Dataset original = Unwrap(MakeFigure1Dataset());
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  Dataset loaded = Unwrap(LoadDataset(dir_));
  LinMeasure lin(&loaded.context);
  NodeId bo = Unwrap(loaded.graph.FindNode("Bo"));
  NodeId aditi = Unwrap(loaded.graph.FindNode("Aditi"));
  EXPECT_NEAR(lin.Sim(bo, aditi), 0.01, 1e-9);  // Table 1 IC survived
}

TEST_F(DatasetIoTest, SaveCreatesMissingNestedDirectories) {
  Dataset original = Unwrap(MakeFigure1Dataset());
  const std::string nested = dir_ + "/fresh/bundle";
  ASSERT_FALSE(std::filesystem::exists(dir_ + "/fresh"));
  ASSERT_TRUE(SaveDataset(original, nested).ok());
  Dataset loaded = Unwrap(LoadDataset(nested));
  EXPECT_EQ(loaded.graph.num_nodes(), original.graph.num_nodes());
  EXPECT_EQ(loaded.graph.num_edges(), original.graph.num_edges());
}

TEST_F(DatasetIoTest, SaveReportsUncreatableDirectory) {
  Dataset original = Unwrap(MakeFigure1Dataset());
  const std::string file = dir_ + "/plain_file";
  std::ofstream(file) << "x";
  Status st = SaveDataset(original, file + "/bundle");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.ToString().find("cannot create directory"), std::string::npos)
      << st.ToString();
}

TEST_F(DatasetIoTest, LoadRejectsMissingDirectory) {
  EXPECT_FALSE(LoadDataset("/nonexistent/bundle").ok());
}

TEST_F(DatasetIoTest, LoadRejectsCorruptSemantics) {
  Dataset original = Unwrap(MakeFigure1Dataset());
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  {
    std::ofstream out(dir_ + "/semantics.txt", std::ios::app);
    out << "q garbage\n";
  }
  EXPECT_FALSE(LoadDataset(dir_).ok());
}

TEST_F(DatasetIoTest, LoadRejectsOutOfRangeTaskNodes) {
  Dataset original = Unwrap(MakeFigure1Dataset());
  ASSERT_TRUE(SaveDataset(original, dir_).ok());
  {
    std::ofstream out(dir_ + "/tasks.txt", std::ios::app);
    out << "h 0 99999\n";
  }
  EXPECT_FALSE(LoadDataset(dir_).ok());
}

}  // namespace
}  // namespace semsim
