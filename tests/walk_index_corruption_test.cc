// Byte-level corruption coverage for WalkIndex::Load and ::Map. Each
// mutation of a specific header, directory, or section region must
// surface as its own descriptive Status — never a crash, never a
// silently wrong index. Offsets mirror WalkIndexHeader in walk_index.cc
// (48 bytes, static_asserted there):
//   [0,8)   magic            [8,12)  format_version   [12,16) reserved
//   [16,24) num_nodes        [24,28) num_walks        [28,32) walk_length
//   [32,40) seed             [40]    weighted         [41]    sampler
//   [42,48) padding
// The v2 serving artifact continues with a section directory at 48
// (uint32 count + uint32 reserved, then 32-byte records of
// {offset u64, size u64, checksum u64, kind u32, reserved u32}) and
// page-aligned checksummed sections for the steps and live lengths.
#include "core/walk_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace semsim {
namespace {

using testutil::Unwrap;

constexpr size_t kMagicOffset = 0;
constexpr size_t kVersionOffset = 8;
constexpr size_t kNumNodesOffset = 16;
constexpr size_t kNumWalksOffset = 24;
constexpr size_t kWalkLengthOffset = 28;
constexpr size_t kSeedOffset = 32;
constexpr size_t kWeightedOffset = 40;
constexpr size_t kSamplerOffset = 41;
constexpr size_t kHeaderSize = 48;
constexpr size_t kRecordsOffset = kHeaderSize + 8;  // past the dir header
constexpr size_t kRecordSize = 32;
constexpr uint32_t kStepsOnlyFormatVersion = 2;  // retired, unchecksummed

class WalkIndexCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = testutil::MakeSmallWorld();
    WalkIndexOptions opt;
    opt.num_walks = 12;
    opt.walk_length = 6;
    opt.seed = 7;
    index_ = WalkIndex::Build(world_.graph, opt);
    path_ = ::testing::TempDir() + "semsim_corrupt.walks";
    ASSERT_TRUE(index_.Save(path_).ok());
    std::ifstream in(path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GE(bytes_.size(), kHeaderSize);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Writes `bytes` back to path_ and loads with the correct node count.
  Result<WalkIndex> LoadMutated(const std::vector<char>& bytes) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return WalkIndex::Load(path_, world_.graph.num_nodes());
  }

  // Overwrites sizeof(T) bytes at `offset` with `value` and loads.
  template <typename T>
  Result<WalkIndex> LoadWithField(size_t offset, T value) {
    std::vector<char> mutated = bytes_;
    std::memcpy(mutated.data() + offset, &value, sizeof(T));
    return LoadMutated(mutated);
  }

  static void ExpectStatus(const Result<WalkIndex>& r, StatusCode code,
                           const std::string& needle) {
    ASSERT_FALSE(r.ok()) << "expected failure mentioning '" << needle << "'";
    EXPECT_EQ(r.status().code(), code) << r.status().ToString();
    EXPECT_NE(r.status().ToString().find(needle), std::string::npos)
        << "status was: " << r.status().ToString();
  }

  // Reads a section record field from the serialized directory.
  // record 0 = steps, record 1 = live lengths; field 0 = offset,
  // 1 = size, 2 = checksum (all uint64_t).
  uint64_t RecordField(int record, int field) const {
    uint64_t value = 0;
    std::memcpy(&value,
                bytes_.data() + kRecordsOffset +
                    static_cast<size_t>(record) * kRecordSize +
                    static_cast<size_t>(field) * sizeof(uint64_t),
                sizeof(value));
    return value;
  }

  // Writes `bytes` to path_ and memory-maps with the correct node count.
  Result<WalkIndex> MapMutated(const std::vector<char>& bytes,
                               const WalkIndexMapOptions& options = {}) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    return WalkIndex::Map(path_, world_.graph.num_nodes(), options);
  }

  // Re-encodes the saved artifact as a retired steps-only (format
  // version 2) payload: old header + raw step array, no directory, no
  // live-length section, no checksum.
  std::vector<char> StepsOnlyBytes() const {
    std::vector<char> legacy(bytes_.begin(), bytes_.begin() + kHeaderSize);
    uint32_t version = kStepsOnlyFormatVersion;
    std::memcpy(legacy.data() + kVersionOffset, &version, sizeof(version));
    size_t steps_off = RecordField(0, 0);
    size_t steps_size = RecordField(0, 1);
    legacy.insert(legacy.end(), bytes_.begin() + steps_off,
                  bytes_.begin() + steps_off + steps_size);
    return legacy;
  }

  // Load, Map with checksum verification and Map without it all refuse
  // `bytes` with a FailedPrecondition naming `needle` and asking for a
  // rebuild: never an abort, never a served index.
  void ExpectRebuildRequested(const std::vector<char>& bytes,
                              const std::string& needle) {
    WalkIndexMapOptions verify;
    verify.verify_checksums = true;
    WalkIndexMapOptions lazy;
    lazy.verify_checksums = false;
    const char* paths[] = {"Load", "Map verified", "Map unverified"};
    for (int i = 0; i < 3; ++i) {
      SCOPED_TRACE(paths[i]);
      Result<WalkIndex> r = i == 0   ? LoadMutated(bytes)
                            : i == 1 ? MapMutated(bytes, verify)
                                     : MapMutated(bytes, lazy);
      ExpectStatus(r, StatusCode::kFailedPrecondition, needle);
      if (!r.ok()) {
        EXPECT_NE(r.status().ToString().find("rebuild"), std::string::npos);
      }
    }
  }

  testutil::SmallWorld world_;
  WalkIndex index_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(WalkIndexCorruptionTest, PristineFileRoundTrips) {
  WalkIndex loaded = Unwrap(LoadMutated(bytes_));
  EXPECT_EQ(loaded.num_walks(), index_.num_walks());
  EXPECT_EQ(loaded.walk_length(), index_.walk_length());
  EXPECT_EQ(loaded.options().seed, index_.options().seed);
  for (NodeId v = 0; v < world_.graph.num_nodes(); ++v) {
    for (int w = 0; w < index_.num_walks(); ++w) {
      ASSERT_EQ(loaded.WalkLiveLength(v, w), index_.WalkLiveLength(v, w));
      auto a = loaded.Walk(v, w);
      auto b = index_.Walk(v, w);
      for (size_t s = 0; s < a.size(); ++s) ASSERT_EQ(a[s], b[s]);
    }
  }
}

TEST_F(WalkIndexCorruptionTest, SingleFlippedMagicByteIsRejected) {
  std::vector<char> mutated = bytes_;
  mutated[kMagicOffset + 3] ^= 0x40;
  ExpectStatus(LoadMutated(mutated), StatusCode::kIOError,
               "not a walk-index file");
}

TEST_F(WalkIndexCorruptionTest, LegacyMagicGetsAMigrationMessage) {
  // A v1 file is not garbage — the error must say "rebuild", not
  // "not a walk-index file".
  auto r = LoadWithField<uint64_t>(kMagicOffset, 0x53454D57414C4B31ULL);
  ExpectStatus(r, StatusCode::kFailedPrecondition, "legacy format version 1");
}

TEST_F(WalkIndexCorruptionTest, FutureFormatVersionIsRejected) {
  auto r = LoadWithField<uint32_t>(kVersionOffset, 4);
  ExpectStatus(r, StatusCode::kFailedPrecondition,
               "unsupported walk-index format version 4");
}

TEST_F(WalkIndexCorruptionTest, NodeCountMismatchNamesBothCounts) {
  auto r = LoadWithField<uint64_t>(kNumNodesOffset,
                                   world_.graph.num_nodes() + 1);
  ExpectStatus(r, StatusCode::kFailedPrecondition, "walk index was built for");
  EXPECT_NE(r.status().ToString().find("expected"), std::string::npos);
}

TEST_F(WalkIndexCorruptionTest, NonPositiveWalkCountIsCorrupt) {
  ExpectStatus(LoadWithField<int32_t>(kNumWalksOffset, 0),
               StatusCode::kIOError, "corrupt walk-index header");
  ExpectStatus(LoadWithField<int32_t>(kNumWalksOffset, -5),
               StatusCode::kIOError, "corrupt walk-index header");
}

TEST_F(WalkIndexCorruptionTest, WalkLengthOutOfRangeIsCorrupt) {
  ExpectStatus(LoadWithField<int32_t>(kWalkLengthOffset, 0),
               StatusCode::kIOError, "corrupt walk-index header");
  // Live lengths are uint16_t, so lengths beyond 65535 cannot be
  // represented and must be refused rather than truncated.
  ExpectStatus(LoadWithField<int32_t>(kWalkLengthOffset, 70000),
               StatusCode::kIOError, "corrupt walk-index header");
}

TEST_F(WalkIndexCorruptionTest, SeedFieldIsInformationalOnly) {
  // The seed records how the walks were sampled; the steps themselves
  // are the data. Mutating it must not fail the load, only change the
  // reported provenance.
  WalkIndex loaded = Unwrap(LoadWithField<uint64_t>(kSeedOffset, 999));
  EXPECT_EQ(loaded.options().seed, 999u);
  EXPECT_EQ(loaded.num_walks(), index_.num_walks());
}

TEST_F(WalkIndexCorruptionTest, WeightedFlagIsInformationalOnly) {
  WalkIndex loaded = Unwrap(LoadWithField<uint8_t>(kWeightedOffset, 1));
  EXPECT_TRUE(loaded.options().weighted);
}

TEST_F(WalkIndexCorruptionTest, TruncatedPayloadIsRejected) {
  std::vector<char> mutated = bytes_;
  mutated.resize(mutated.size() - 4);
  ExpectStatus(LoadMutated(mutated), StatusCode::kIOError,
               "truncated walk-index file");
}

TEST_F(WalkIndexCorruptionTest, TruncatedHeaderIsRejected) {
  std::vector<char> mutated = bytes_;
  mutated.resize(kHeaderSize - 1);
  ExpectStatus(LoadMutated(mutated), StatusCode::kIOError, "too short");
}

TEST_F(WalkIndexCorruptionTest, TrailingBytesAreRejected) {
  std::vector<char> mutated = bytes_;
  mutated.push_back('\0');
  ExpectStatus(LoadMutated(mutated), StatusCode::kIOError, "trailing bytes");
}

TEST_F(WalkIndexCorruptionTest, StepsSectionChecksumFlipIsRejected) {
  std::vector<char> mutated = bytes_;
  mutated[RecordField(0, 0) + 5] ^= 0x10;  // one bit inside the steps data
  ExpectStatus(LoadMutated(mutated), StatusCode::kIOError,
               "steps section checksum mismatch");
  // Map verifies only on request (the default preserves lazy paging).
  WalkIndexMapOptions verify;
  verify.verify_checksums = true;
  ExpectStatus(MapMutated(mutated, verify), StatusCode::kIOError,
               "steps section checksum mismatch");
}

TEST_F(WalkIndexCorruptionTest, LiveLengthSectionChecksumFlipIsRejected) {
  std::vector<char> mutated = bytes_;
  mutated[RecordField(1, 0)] ^= 0x01;
  ExpectStatus(LoadMutated(mutated), StatusCode::kIOError,
               "live-length section checksum mismatch");
}

TEST_F(WalkIndexCorruptionTest, TruncatedLiveLengthSectionIsRejected) {
  std::vector<char> mutated = bytes_;
  ASSERT_EQ(mutated.size(), RecordField(1, 0) + RecordField(1, 1));
  mutated.resize(mutated.size() - 1);
  ExpectStatus(LoadMutated(mutated), StatusCode::kIOError,
               "truncated walk-index file");
  ExpectStatus(MapMutated(mutated), StatusCode::kIOError,
               "truncated walk-index file");
}

TEST_F(WalkIndexCorruptionTest, SectionSizeMismatchIsRejected) {
  // A directory whose declared section size disagrees with the header's
  // walk parameters must be named explicitly, not read out of bounds.
  std::vector<char> mutated = bytes_;
  uint64_t bad_size = RecordField(0, 1) - sizeof(NodeId);
  std::memcpy(mutated.data() + kRecordsOffset + sizeof(uint64_t), &bad_size,
              sizeof(bad_size));
  ExpectStatus(LoadMutated(mutated), StatusCode::kIOError,
               "steps section size disagrees");
}

TEST_F(WalkIndexCorruptionTest, UnknownSectionKindIsCorrupt) {
  std::vector<char> mutated = bytes_;
  uint32_t bad_kind = 99;
  std::memcpy(mutated.data() + kRecordsOffset + 3 * sizeof(uint64_t),
              &bad_kind, sizeof(bad_kind));
  ExpectStatus(LoadMutated(mutated), StatusCode::kIOError,
               "corrupt walk-index section directory");
}

TEST_F(WalkIndexCorruptionTest, StepsOnlyFormatAsksForRebuild) {
  // Format 2 carried no checksum and no live lengths; no current writer
  // produces it.
  ExpectRebuildRequested(StepsOnlyBytes(), "legacy format version 2");
}

TEST_F(WalkIndexCorruptionTest, ScanSamplerByteAsksForRebuild) {
  // A v3 file whose sampler byte is 1 was drawn by the retired linear-
  // scan sampler; this build cannot reproduce its walks.
  std::vector<char> bytes = bytes_;
  bytes[kSamplerOffset] = 1;
  ExpectRebuildRequested(bytes, "linear-scan sampler");
  // Any other non-zero value is not a sampler this format ever named.
  bytes[kSamplerOffset] = 2;
  ExpectStatus(LoadMutated(bytes), StatusCode::kIOError,
               "corrupt walk-index header");
}

TEST_F(WalkIndexCorruptionTest, SaveWritesZeroSamplerByte) {
  EXPECT_EQ(bytes_[kSamplerOffset], 0);
  WalkIndexOptions opt;
  opt.num_walks = 4;
  opt.walk_length = 3;
  opt.weighted = true;
  WalkIndex weighted = WalkIndex::Build(world_.graph, opt);
  ASSERT_TRUE(weighted.Save(path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> saved((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_GE(saved.size(), kHeaderSize);
  EXPECT_EQ(saved[kWeightedOffset], 1);
  EXPECT_EQ(saved[kSamplerOffset], 0);
}

TEST_F(WalkIndexCorruptionTest, MapAndLoadAreBitIdentical) {
  WalkIndex loaded = Unwrap(LoadMutated(bytes_));
  WalkIndex mapped = Unwrap(MapMutated(bytes_));
  EXPECT_TRUE(testutil::SameWalks(loaded, index_));
  EXPECT_TRUE(testutil::SameWalks(mapped, index_));
  EXPECT_TRUE(mapped.mapped());
  EXPECT_FALSE(loaded.mapped());
  EXPECT_EQ(loaded.MemoryBytes(), mapped.MemoryBytes());
}

TEST_F(WalkIndexCorruptionTest, BufferedFallbackMapIsBitIdentical) {
  WalkIndexMapOptions buffered;
  buffered.force_buffered = true;
  buffered.verify_checksums = true;
  WalkIndex mapped = Unwrap(MapMutated(bytes_, buffered));
  EXPECT_TRUE(testutil::SameWalks(mapped, index_));
  EXPECT_TRUE(mapped.mapped());
  EXPECT_EQ(mapped.MappedBytes(), 0u);  // fallback buffer counts as owned
  EXPECT_GT(mapped.OwnedBytes(), 0u);
}

TEST_F(WalkIndexCorruptionTest, EveryDirectoryByteFlipFailsCleanlyOrLoads) {
  // Exhaustive single-byte fuzz over the section directory: no flip may
  // crash Load or Map, and any flip that survives validation must yield
  // a structurally sound index.
  size_t dir_end = kRecordsOffset + 2 * kRecordSize;
  for (size_t off = kHeaderSize; off < dir_end; ++off) {
    std::vector<char> mutated = bytes_;
    mutated[off] ^= 0xFF;
    for (bool map : {false, true}) {
      Result<WalkIndex> r = map ? MapMutated(mutated) : LoadMutated(mutated);
      if (!r.ok()) continue;
      const WalkIndex& loaded = r.value();
      EXPECT_GT(loaded.num_walks(), 0) << "offset " << off;
      EXPECT_GT(loaded.walk_length(), 0) << "offset " << off;
    }
  }
}

TEST_F(WalkIndexCorruptionTest, EveryHeaderByteFlipFailsCleanlyOrLoads) {
  // Exhaustive single-byte fuzz over the header: no flip may crash, and
  // any flip that loads must load something structurally sound.
  for (size_t off = 0; off < kHeaderSize; ++off) {
    std::vector<char> mutated = bytes_;
    mutated[off] ^= 0xFF;
    Result<WalkIndex> r = LoadMutated(mutated);
    if (!r.ok()) continue;
    const WalkIndex& loaded = r.value();
    EXPECT_GT(loaded.num_walks(), 0) << "offset " << off;
    EXPECT_GT(loaded.walk_length(), 0) << "offset " << off;
  }
}

}  // namespace
}  // namespace semsim
