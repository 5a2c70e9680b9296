#include "core/walk_index.h"

#include <cstring>
#include <fstream>

#include "common/failpoint.h"
#include "common/fnv.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "graph/node_sampler.h"

namespace semsim {

Status ValidateWalkIndexOptions(const WalkIndexOptions& options) {
  if (options.num_walks <= 0) {
    return Status::InvalidArgument("num_walks must be > 0");
  }
  if (options.walk_length <= 0 || options.walk_length > 65535) {
    // Live lengths are stored as uint16_t.
    return Status::InvalidArgument("walk_length must lie in [1, 65535]");
  }
  return Status::OK();
}

WalkIndex WalkIndex::Build(const Hin& graph, const WalkIndexOptions& options) {
  const Status valid = ValidateWalkIndexOptions(options);
  SEMSIM_CHECK(valid.ok()) << valid.ToString();
  SEMSIM_TRACE_SPAN("semsim_walk_index_build");
  static Counter* walks_sampled = MetricsRegistry::Global().GetCounter(
      "semsim_walk_index_walks_sampled_total");
  Timer timer;
  WalkIndex index;
  index.options_ = options;
  size_t n = graph.num_nodes();
  index.steps_owned_.assign(n * static_cast<size_t>(options.num_walks) *
                                static_cast<size_t>(options.walk_length),
                            kInvalidNode);
  index.live_owned_.assign(n * static_cast<size_t>(options.num_walks), 0);
  ThreadPool runner(options.num_threads);
  // O(1) weighted steps: one alias-table index per graph, built in
  // parallel on the same pool, shared read-only by every worker
  // (DESIGN.md §11).
  NodeSamplerIndex sampler;
  if (options.weighted) {
    sampler = NodeSamplerIndex::Build(graph, SampleDirection::kIn, &runner);
  }
  runner.ParallelFor(0, n, [&](size_t begin, size_t end) {
    for (NodeId v = static_cast<NodeId>(begin); v < end; ++v) {
      // Per-node RNG stream: walks are independent of the thread count
      // and of every other node's sampling.
      Rng rng(options.seed ^ (0x9E3779B97F4A7C15ULL * (v + 1)));
      size_t cursor = static_cast<size_t>(v) * options.num_walks *
                      options.walk_length;
      size_t len_cursor = static_cast<size_t>(v) * options.num_walks;
      for (int w = 0; w < options.num_walks; ++w, ++len_cursor) {
        NodeId cur = v;
        int live = options.walk_length;
        for (int s = 0; s < options.walk_length; ++s, ++cursor) {
          auto in = graph.InNeighbors(cur);
          if (in.empty()) {
            cursor += static_cast<size_t>(options.walk_length - s);
            live = s;
            break;
          }
          size_t pick = options.weighted ? sampler.Sample(cur, rng)
                                         : rng.NextIndex(in.size());
          cur = in[pick].node;
          index.steps_owned_[cursor] = cur;
        }
        index.live_owned_[len_cursor] = static_cast<uint16_t>(live);
      }
    }
  });
  index.BindOwned();
  walks_sampled->Add(n * static_cast<uint64_t>(options.num_walks));
  index.build_seconds_ = timer.ElapsedSeconds();
  return index;
}

void WalkIndex::CopyFrom(const WalkIndex& other) {
  options_ = other.options_;
  build_seconds_ = other.build_seconds_;
  steps_owned_.assign(other.steps_.begin(), other.steps_.end());
  live_owned_.assign(other.live_len_.begin(), other.live_len_.end());
  mapping_ = MappedFile();
  borrows_mapping_ = false;
  BindOwned();
}

void WalkIndex::PromoteToOwned() {
  if (!borrows_mapping_) return;
  steps_owned_.assign(steps_.begin(), steps_.end());
  live_owned_.assign(live_len_.begin(), live_len_.end());
  mapping_ = MappedFile();
  borrows_mapping_ = false;
  BindOwned();
}

NodeId* WalkIndex::MutableSteps() {
  SEMSIM_CHECK(!borrows_mapping_)
      << "in-place mutation of a mapped (read-only) walk index";
  return steps_owned_.data();
}

uint16_t* WalkIndex::MutableLiveLengths() {
  SEMSIM_CHECK(!borrows_mapping_)
      << "in-place mutation of a mapped (read-only) walk index";
  return live_owned_.data();
}

namespace {

// ---------------------------------------------------------------------------
// On-disk layout (DESIGN.md §10). Little-endian native; the index is
// machine-local cache data, not an interchange format.
//
// v2 serving artifact (format_version 3, written by Save):
//   [0,   48)  WalkIndexHeader (unchanged 48-byte layout)
//   [48,  56)  uint32 section_count (= 2), uint32 reserved
//   [56, 120)  2 × SectionRecord{offset, size, checksum, kind, reserved}
//   [4096, ..) steps section   (kind 1, page-aligned, n·n_w·t NodeId)
//   [....,   ) live-len section (kind 2, page-aligned, n·n_w uint16)
// File size == offset + size of the last section (no trailing bytes).
//
// Older files — the "SEMWALK1" magic and format_version 2 (the
// steps-only, unchecksummed "v1 payload") — are rejected with a
// FailedPrecondition asking for a rebuild.
// ---------------------------------------------------------------------------

constexpr uint64_t kWalkIndexMagic = 0x5832584449574D53ULL;    // "SMWIDX2X"
constexpr uint64_t kWalkIndexMagicV1 = 0x53454D57414C4B31ULL;  // "SEMWALK1"
// The only format_version this build reads and writes: the sectioned
// serving artifact ("v2 artifact").
constexpr uint32_t kWalkIndexFormatSectioned = 3;
constexpr size_t kSectionAlignment = 4096;  // page-aligned for mmap serving

constexpr uint32_t kSectionSteps = 1;
constexpr uint32_t kSectionLiveLengths = 2;

struct WalkIndexHeader {
  uint64_t magic;
  uint32_t format_version;
  uint32_t reserved;  // zero; room for future flags
  uint64_t num_nodes;
  int32_t num_walks;
  int32_t walk_length;
  uint64_t seed;
  uint8_t weighted;
  // Weighted-step sampler of the build. Always 0 (the alias sampler);
  // 1 marked the retired linear-scan sampler, whose walks this build
  // cannot reproduce, so such files are rejected.
  uint8_t sampler;
  uint8_t padding[6];
};
static_assert(sizeof(WalkIndexHeader) == 48, "header layout is part of the file format");

struct SectionDirectoryHeader {
  uint32_t section_count;
  uint32_t reserved;
};
static_assert(sizeof(SectionDirectoryHeader) == 8,
              "directory header layout is part of the file format");

struct SectionRecord {
  uint64_t offset;    // absolute file offset, kSectionAlignment-aligned
  uint64_t size;      // payload bytes
  uint64_t checksum;  // FNV-1a 64 over the payload
  uint32_t kind;      // kSectionSteps or kSectionLiveLengths
  uint32_t reserved;
};
static_assert(sizeof(SectionRecord) == 32,
              "section record layout is part of the file format");

size_t AlignUp(size_t value, size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

/// Everything ParseArtifact learns about a validated byte image. The
/// spans point into the caller's buffer/mapping.
struct ParsedArtifact {
  WalkIndexOptions options;
  std::span<const NodeId> steps;
  std::span<const uint16_t> live;
};

/// Validates a whole-file byte image against `expected_nodes` and
/// extracts the data sections. Shared by Load (buffered bytes) and Map
/// (mmap'd bytes) so both paths enforce identical checks and emit
/// identical error messages.
Result<ParsedArtifact> ParseArtifact(const uint8_t* data, size_t size,
                                     const std::string& path,
                                     size_t expected_nodes,
                                     bool verify_checksums) {
  // Simulated section-read failure, shared by Load and Map (a page of
  // the artifact going bad between open and parse).
  SEMSIM_FAILPOINT_RETURN("walk_index/section");
  if (size < sizeof(WalkIndexHeader)) {
    return Status::IOError("not a walk-index file (too short): " + path);
  }
  WalkIndexHeader header{};
  std::memcpy(&header, data, sizeof(header));
  if (header.magic != kWalkIndexMagic) {
    if (header.magic == kWalkIndexMagicV1) {
      return Status::FailedPrecondition(
          "walk-index file uses the legacy format version 1 (unversioned "
          "header, no live-length metadata): " + path +
          "; rebuild the index with the current binary");
    }
    return Status::IOError("not a walk-index file: " + path);
  }
  if (header.format_version < kWalkIndexFormatSectioned) {
    return Status::FailedPrecondition(
        "walk-index file uses the legacy format version " +
        std::to_string(header.format_version) +
        " (steps-only payload, no checksums): " + path +
        "; rebuild the index with the current binary");
  }
  if (header.format_version != kWalkIndexFormatSectioned) {
    return Status::FailedPrecondition(
        "unsupported walk-index format version " +
        std::to_string(header.format_version) +
        " (this build reads version " +
        std::to_string(kWalkIndexFormatSectioned) + "): " + path);
  }
  if (header.num_nodes != expected_nodes) {
    return Status::FailedPrecondition(
        "walk index was built for a graph with " +
        std::to_string(header.num_nodes) + " nodes, expected " +
        std::to_string(expected_nodes) + ": " + path);
  }
  if (header.num_walks <= 0 || header.walk_length <= 0 ||
      header.walk_length > 65535 || header.sampler > 1) {
    return Status::IOError("corrupt walk-index header: " + path);
  }
  if (header.sampler == 1) {
    return Status::FailedPrecondition(
        "walk-index file was sampled with the retired linear-scan "
        "sampler: " + path + "; rebuild the index with the current binary");
  }

  ParsedArtifact parsed;
  parsed.options.num_walks = header.num_walks;
  parsed.options.walk_length = header.walk_length;
  parsed.options.seed = header.seed;
  parsed.options.weighted = header.weighted != 0;

  size_t walk_count =
      header.num_nodes * static_cast<size_t>(header.num_walks);
  size_t step_count = walk_count * static_cast<size_t>(header.walk_length);
  uint64_t steps_bytes = static_cast<uint64_t>(step_count) * sizeof(NodeId);
  uint64_t live_bytes = static_cast<uint64_t>(walk_count) * sizeof(uint16_t);

  // Directory + page-aligned checksummed sections.
  size_t dir_start = sizeof(WalkIndexHeader);
  if (size < dir_start + sizeof(SectionDirectoryHeader)) {
    return Status::IOError("truncated walk-index file: " + path);
  }
  SectionDirectoryHeader dir{};
  std::memcpy(&dir, data + dir_start, sizeof(dir));
  if (dir.section_count != 2) {
    return Status::IOError("corrupt walk-index section directory: " + path);
  }
  size_t records_start = dir_start + sizeof(SectionDirectoryHeader);
  if (size < records_start + dir.section_count * sizeof(SectionRecord)) {
    return Status::IOError("truncated walk-index file: " + path);
  }

  const SectionRecord* steps_rec = nullptr;
  const SectionRecord* live_rec = nullptr;
  SectionRecord records[2];
  uint64_t last_end = 0;
  for (uint32_t i = 0; i < dir.section_count; ++i) {
    std::memcpy(&records[i], data + records_start + i * sizeof(SectionRecord),
                sizeof(SectionRecord));
    const SectionRecord& rec = records[i];
    if (rec.offset % kSectionAlignment != 0) {
      return Status::IOError("corrupt walk-index section directory: " + path);
    }
    if (rec.offset > size || rec.size > size - rec.offset) {
      return Status::IOError("truncated walk-index file: " + path);
    }
    if (rec.kind == kSectionSteps) {
      steps_rec = &records[i];
    } else if (rec.kind == kSectionLiveLengths) {
      live_rec = &records[i];
    } else {
      return Status::IOError("corrupt walk-index section directory: " + path);
    }
    last_end = std::max(last_end, rec.offset + rec.size);
  }
  if (steps_rec == nullptr || live_rec == nullptr) {
    return Status::IOError("corrupt walk-index section directory: " + path);
  }
  if (steps_rec->size != steps_bytes) {
    return Status::IOError(
        "walk-index steps section size disagrees with the header: " + path);
  }
  if (live_rec->size != live_bytes) {
    return Status::IOError(
        "walk-index live-length section size disagrees with the header: " +
        path);
  }
  if (static_cast<uint64_t>(size) != last_end) {
    return Status::IOError(
        "walk-index file has trailing bytes beyond the declared payload: " +
        path);
  }
  if (verify_checksums) {
    if (Fnv1a64(data + steps_rec->offset, steps_rec->size) !=
        steps_rec->checksum) {
      return Status::IOError(
          "walk-index steps section checksum mismatch: " + path);
    }
    if (Fnv1a64(data + live_rec->offset, live_rec->size) !=
        live_rec->checksum) {
      return Status::IOError(
          "walk-index live-length section checksum mismatch: " + path);
    }
  }
  parsed.steps = {reinterpret_cast<const NodeId*>(data + steps_rec->offset),
                  step_count};
  parsed.live = {reinterpret_cast<const uint16_t*>(data + live_rec->offset),
                 walk_count};
  return parsed;
}

}  // namespace

Status WalkIndex::Save(const std::string& path) const {
  SEMSIM_TRACE_SPAN("semsim_walk_index_save");
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for writing: " + path);

  WalkIndexHeader header{};
  header.magic = kWalkIndexMagic;
  header.format_version = kWalkIndexFormatSectioned;
  size_t per_node = static_cast<size_t>(options_.num_walks) *
                    static_cast<size_t>(options_.walk_length);
  header.num_nodes = per_node == 0 ? 0 : steps_.size() / per_node;
  header.num_walks = options_.num_walks;
  header.walk_length = options_.walk_length;
  header.seed = options_.seed;
  header.weighted = options_.weighted ? 1 : 0;

  uint64_t steps_bytes = steps_.size() * sizeof(NodeId);
  uint64_t live_bytes = live_len_.size() * sizeof(uint16_t);
  SectionRecord steps_rec{};
  steps_rec.offset = AlignUp(sizeof(WalkIndexHeader) +
                                 sizeof(SectionDirectoryHeader) +
                                 2 * sizeof(SectionRecord),
                             kSectionAlignment);
  steps_rec.size = steps_bytes;
  steps_rec.checksum =
      Fnv1a64(reinterpret_cast<const uint8_t*>(steps_.data()), steps_bytes);
  steps_rec.kind = kSectionSteps;
  SectionRecord live_rec{};
  live_rec.offset = AlignUp(steps_rec.offset + steps_bytes, kSectionAlignment);
  live_rec.size = live_bytes;
  live_rec.checksum =
      Fnv1a64(reinterpret_cast<const uint8_t*>(live_len_.data()), live_bytes);
  live_rec.kind = kSectionLiveLengths;

  SectionDirectoryHeader dir{};
  dir.section_count = 2;

  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(&dir), sizeof(dir));
  out.write(reinterpret_cast<const char*>(&steps_rec), sizeof(steps_rec));
  out.write(reinterpret_cast<const char*>(&live_rec), sizeof(live_rec));
  // Zero padding up to each page-aligned section start.
  auto pad_to = [&out](uint64_t target) {
    static constexpr char kZeros[512] = {};
    uint64_t pos = static_cast<uint64_t>(out.tellp());
    while (pos < target) {
      uint64_t chunk = std::min<uint64_t>(sizeof(kZeros), target - pos);
      out.write(kZeros, static_cast<std::streamsize>(chunk));
      pos += chunk;
    }
  };
  pad_to(steps_rec.offset);
  out.write(reinterpret_cast<const char*>(steps_.data()),
            static_cast<std::streamsize>(steps_bytes));
  pad_to(live_rec.offset);
  out.write(reinterpret_cast<const char*>(live_len_.data()),
            static_cast<std::streamsize>(live_bytes));
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<WalkIndex> WalkIndex::Load(const std::string& path,
                                  size_t expected_nodes) {
  SEMSIM_TRACE_SPAN("semsim_walk_index_load");
  static Counter* load_failures = MetricsRegistry::Global().GetCounter(
      "semsim_walk_index_load_failures_total");
  Result<WalkIndex> result = LoadImpl(path, expected_nodes);
  if (!result.ok()) load_failures->Add(1);
  return result;
}

Result<WalkIndex> WalkIndex::LoadImpl(const std::string& path,
                                      size_t expected_nodes) {
  SEMSIM_FAILPOINT_RETURN("walk_index/load");
  // One buffered read of the whole artifact; parsing and checksum
  // verification run over the buffer, then the sections are copied into
  // owned storage. (A corrupted size field cannot trigger a giant
  // allocation: ParseArtifact validates section sizes against the
  // actual file size before anything is copied.)
  SEMSIM_ASSIGN_OR_RETURN(MappedFile file, MappedFile::OpenBuffered(path));
  SEMSIM_ASSIGN_OR_RETURN(
      ParsedArtifact parsed,
      ParseArtifact(file.data(), file.size(), path, expected_nodes,
                    /*verify_checksums=*/true));
  WalkIndex index;
  index.options_ = parsed.options;
  index.steps_owned_.assign(parsed.steps.begin(), parsed.steps.end());
  index.live_owned_.assign(parsed.live.begin(), parsed.live.end());
  index.BindOwned();
  return index;
}

Result<WalkIndex> WalkIndex::Map(const std::string& path,
                                 size_t expected_nodes,
                                 const WalkIndexMapOptions& map_options) {
  SEMSIM_TRACE_SPAN("semsim_walk_index_map");
  static Counter* map_failures = MetricsRegistry::Global().GetCounter(
      "semsim_walk_index_map_failures_total");
  Result<WalkIndex> result = MapImpl(path, expected_nodes, map_options);
  if (!result.ok()) map_failures->Add(1);
  return result;
}

Result<WalkIndex> WalkIndex::MapImpl(const std::string& path,
                                     size_t expected_nodes,
                                     const WalkIndexMapOptions& map_options) {
  SEMSIM_FAILPOINT_RETURN("walk_index/map");
  SEMSIM_ASSIGN_OR_RETURN(MappedFile file,
                          map_options.force_buffered
                              ? MappedFile::OpenBuffered(path)
                              : MappedFile::Open(path));
  SEMSIM_ASSIGN_OR_RETURN(
      ParsedArtifact parsed,
      ParseArtifact(file.data(), file.size(), path, expected_nodes,
                    map_options.verify_checksums));
  WalkIndex index;
  index.options_ = parsed.options;
  index.mapping_ = std::move(file);
  index.borrows_mapping_ = true;
  index.steps_ = parsed.steps;
  index.live_len_ = parsed.live;
  return index;
}

double WalkIndex::ProposalProb(const Hin& graph, NodeId from,
                               size_t idx) const {
  auto in = graph.InNeighbors(from);
  SEMSIM_DCHECK(idx < in.size());
  if (!options_.weighted) {
    return 1.0 / static_cast<double>(in.size());
  }
  double total = graph.TotalInWeight(from);
  return in[idx].weight / total;
}

}  // namespace semsim
