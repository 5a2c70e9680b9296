// Seeded byte-mutation coverage for the text loaders: LoadHin,
// LoadTaxonomy, LoadConceptMap and LoadDataset. The binary walk-index
// artifact has its own field-by-field suite (walk_index_corruption_test);
// the text formats are line-oriented, so here each case applies a few
// random flips, inserts, deletes or truncations to a small saved file
// and requires the loader to return a Status: never an abort, never an
// exception. A loaded result must still be internally consistent.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datasets/dataset_io.h"
#include "datasets/figure1.h"
#include "graph/graph_io.h"
#include "taxonomy/taxonomy_io.h"
#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;

constexpr int kCasesPerLoader = 400;

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A byte worth inserting into a line-oriented format: mostly the
// characters the parsers branch on, sometimes an arbitrary byte.
char InterestingByte(Rng& rng) {
  static const char kAlphabet[] = "0123456789-+.e \t\n#cmnr-";
  if (rng.NextIndex(4) == 0) return static_cast<char>(rng.NextIndex(256));
  return kAlphabet[rng.NextIndex(sizeof(kAlphabet) - 1)];
}

// Applies 1-3 random mutations, each a flip, an insert, a delete or a
// truncation, all drawn from `seed`.
std::vector<char> Mutate(std::vector<char> bytes, uint64_t seed) {
  Rng rng(seed);
  const int mutations = 1 + static_cast<int>(rng.NextIndex(3));
  for (int m = 0; m < mutations; ++m) {
    const size_t pos = rng.NextIndex(bytes.size() + 1);
    switch (rng.NextIndex(4)) {
      case 0:  // flip
        if (pos < bytes.size()) {
          bytes[pos] ^= static_cast<char>(1 + rng.NextIndex(255));
        }
        break;
      case 1:  // insert
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                     InterestingByte(rng));
        break;
      case 2:  // delete
        if (pos < bytes.size()) {
          bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos));
        }
        break;
      default:  // truncate
        bytes.resize(pos);
        break;
    }
  }
  return bytes;
}

class TextIoCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = Unwrap(MakeFigure1Dataset());
    dir_ = ::testing::TempDir() + "semsim_text_io_corruption";
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(SaveDataset(dataset_, dir_ + "/bundle").ok());
    const Taxonomy& tax = dataset_.context.taxonomy();
    std::vector<ConceptId> map;
    for (NodeId v = 0; v < dataset_.graph.num_nodes(); ++v) {
      map.push_back(dataset_.context.concept_of(v));
    }
    ASSERT_TRUE(SaveHin(dataset_.graph, HinPath()).ok());
    ASSERT_TRUE(SaveTaxonomy(tax, TaxPath()).ok());
    ASSERT_TRUE(SaveConceptMap(tax, map, MapPath()).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string HinPath() const { return dir_ + "/graph.hin"; }
  std::string TaxPath() const { return dir_ + "/taxonomy.tax"; }
  std::string MapPath() const { return dir_ + "/concepts.map"; }
  std::string BundleFile(const char* name) const {
    return dir_ + "/bundle/" + name;
  }

  // Runs `load` on kCasesPerLoader mutations of the file at `path`,
  // restoring the pristine bytes afterwards; returns how many loaded.
  template <typename Load>
  int MutateAndLoad(const std::string& path, uint64_t seed_base, Load load) {
    const std::vector<char> pristine = ReadBytes(path);
    EXPECT_FALSE(pristine.empty()) << path;
    int loaded = 0;
    for (int i = 0; i < kCasesPerLoader; ++i) {
      const uint64_t seed = seed_base + static_cast<uint64_t>(i);
      SCOPED_TRACE("seed " + std::to_string(seed));
      WriteBytes(path, Mutate(pristine, seed));
      if (load()) ++loaded;
    }
    WriteBytes(path, pristine);
    return loaded;
  }

  Dataset dataset_;
  std::string dir_;
};

TEST_F(TextIoCorruptionTest, PristineFilesLoad) {
  EXPECT_TRUE(LoadHin(HinPath()).ok());
  Taxonomy tax = Unwrap(LoadTaxonomy(TaxPath()));
  EXPECT_TRUE(LoadConceptMap(tax, MapPath()).ok());
  EXPECT_TRUE(LoadDataset(dir_ + "/bundle").ok());
}

TEST_F(TextIoCorruptionTest, MutatedHinReturnsStatus) {
  int loaded = MutateAndLoad(HinPath(), 1000, [&] {
    Result<Hin> r = LoadHin(HinPath());
    if (!r.ok()) return false;
    const Hin& g = r.value();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (const Neighbor& nb : g.InNeighbors(v)) {
        EXPECT_LT(nb.node, g.num_nodes());
      }
    }
    return true;
  });
  EXPECT_LT(loaded, kCasesPerLoader);
}

TEST_F(TextIoCorruptionTest, MutatedTaxonomyReturnsStatus) {
  int loaded = MutateAndLoad(TaxPath(), 2000, [&] {
    Result<Taxonomy> r = LoadTaxonomy(TaxPath());
    if (!r.ok()) return false;
    const Taxonomy& t = r.value();
    EXPECT_LT(t.root(), t.num_concepts());
    return true;
  });
  EXPECT_LT(loaded, kCasesPerLoader);
}

TEST_F(TextIoCorruptionTest, MutatedConceptMapReturnsStatus) {
  const Taxonomy& tax = dataset_.context.taxonomy();
  int loaded = MutateAndLoad(MapPath(), 3000, [&] {
    Result<std::vector<ConceptId>> r = LoadConceptMap(tax, MapPath());
    if (!r.ok()) return false;
    for (ConceptId c : r.value()) EXPECT_LT(c, tax.num_concepts());
    return true;
  });
  EXPECT_LT(loaded, kCasesPerLoader);
}

TEST_F(TextIoCorruptionTest, MutatedDatasetBundleReturnsStatus) {
  const std::string bundle = dir_ + "/bundle";
  uint64_t seed_base = 4000;
  for (const char* file : {"graph.hin", "semantics.txt", "tasks.txt"}) {
    SCOPED_TRACE(file);
    MutateAndLoad(BundleFile(file), seed_base, [&] {
      Result<Dataset> r = LoadDataset(bundle);
      if (!r.ok()) return false;
      const Dataset& d = r.value();
      const size_t n = d.graph.num_nodes();
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_LT(d.context.concept_of(v), d.context.taxonomy().num_concepts());
      }
      for (const auto& [a, b] : d.heldout_edges) {
        EXPECT_LT(a, n);
        EXPECT_LT(b, n);
      }
      return true;
    });
    seed_base += 1000;
  }
}

// Seeds that aborted a loader before it was hardened, each kept with a
// hand-written file that isolates the same fault.

void ExpectIoError(const Status& st, const std::string& needle) {
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  EXPECT_NE(st.ToString().find(needle), std::string::npos) << st.ToString();
}

TEST_F(TextIoCorruptionTest, NegativeConceptMapNodeSeed3094) {
  // "m 5" became "m -5", which parses as an id near 2^64: LoadConceptMap
  // resized its map to that id and threw std::length_error.
  const Taxonomy& tax = dataset_.context.taxonomy();
  WriteBytes(MapPath(), Mutate(ReadBytes(MapPath()), 3094));
  EXPECT_FALSE(LoadConceptMap(tax, MapPath()).ok());
  std::ofstream(MapPath(), std::ios::trunc) << "m 0 Author\nm -5 Country\n";
  ExpectIoError(LoadConceptMap(tax, MapPath()).status(),
                "has 2 entries but names node");
}

TEST_F(TextIoCorruptionTest, DuplicateTaxonomyConceptSeed2677) {
  // A byte turned into whitespace split a name so that it repeated an
  // earlier one, and TaxonomyBuilder::AddConcept check-failed on it.
  WriteBytes(TaxPath(), Mutate(ReadBytes(TaxPath()), 2677));
  EXPECT_FALSE(LoadTaxonomy(TaxPath()).ok());
  std::ofstream(TaxPath(), std::ios::trunc) << "c A -\nc B A\nc A B\n";
  ExpectIoError(LoadTaxonomy(TaxPath()).status(), "duplicate concept 'A'");
}

TEST_F(TextIoCorruptionTest, SecondRootNamedLikeTheSyntheticRootSeed5441) {
  // The mutation left several roots while a concept was already named
  // "<ROOT>", so TaxonomyBuilder::Build check-failed adding its own.
  const std::string semantics = BundleFile("semantics.txt");
  WriteBytes(semantics, Mutate(ReadBytes(semantics), 5441));
  EXPECT_FALSE(LoadDataset(dir_ + "/bundle").ok());

  TaxonomyBuilder b;
  b.AddConcept("A");
  b.AddConcept("<ROOT>");
  Result<Taxonomy> forest = std::move(b).Build();
  ASSERT_FALSE(forest.ok());
  EXPECT_EQ(forest.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(forest.status().ToString().find("'<ROOT>'"), std::string::npos)
      << forest.status().ToString();
}

TEST_F(TextIoCorruptionTest, DuplicateDatasetConceptIsRejected) {
  const std::string semantics = BundleFile("semantics.txt");
  std::ofstream(semantics, std::ios::app) << "c Country -1 1.0\n";
  ExpectIoError(LoadDataset(dir_ + "/bundle").status(),
                "duplicate concept 'Country'");
}

}  // namespace
}  // namespace semsim
