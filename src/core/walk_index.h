#ifndef SEMSIM_CORE_WALK_INDEX_H_
#define SEMSIM_CORE_WALK_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/mapped_file.h"
#include "common/result.h"
#include "common/rng.h"
#include "graph/hin.h"

namespace semsim {

/// Parameters of the precomputed reverse-walk index (the Fogaras–Rácz MC
/// framework of Sec. 4.1; the paper's defaults are n_w=150, t=15).
struct WalkIndexOptions {
  /// Number of walks sampled from each node (n_w).
  int num_walks = 150;
  /// Truncation point t: maximum number of steps per walk. Bounded by
  /// 65535 (live lengths are stored as uint16_t).
  int walk_length = 15;
  /// Deterministic sampling seed. Each node gets its own derived RNG
  /// stream, so the sampled walks are identical for any thread count.
  uint64_t seed = 42;
  /// Proposal distribution Q: false = uniform over in-neighbors (the
  /// paper's choice); true = proportional to edge weights (ablation),
  /// drawn in O(1) per step through a NodeSamplerIndex (DESIGN.md §11).
  bool weighted = false;
  /// Worker threads for sampling (nodes are partitioned). <= 0 selects
  /// the hardware concurrency.
  int num_threads = 1;
};

/// Domain check of WalkIndex::Build, shared with EngineSnapshot::Build:
/// num_walks > 0 and walk_length in [1, 65535]. Returns InvalidArgument
/// naming the violated constraint.
Status ValidateWalkIndexOptions(const WalkIndexOptions& options);

/// Options of WalkIndex::Map (DESIGN.md §10).
struct WalkIndexMapOptions {
  /// Verify the per-section checksums at map time. Off by default: the
  /// point of mapping is that no byte is touched until a query faults
  /// it in, and verifying would read the whole artifact. Load() always
  /// verifies (it reads every byte anyway).
  bool verify_checksums = false;
  /// Use the buffered-read fallback instead of mmap even when mmap is
  /// available (tests; callers that want a private heap copy).
  bool force_buffered = false;
};

/// Precomputed set of truncated reverse random walks, n_w from every node,
/// drawn from the proposal distribution Q. Storage is a flat
/// n·n_w·t array of NodeId; walks that hit a node with no in-neighbors are
/// padded with kInvalidNode. Space and preprocessing are O(n·n_w·t), as in
/// the paper.
///
/// Compact layout (DESIGN.md §7): alongside the padded step array the
/// index keeps a per-(node,walk) *live length* — the number of real
/// steps before the walk died. Query kernels iterate exactly the live
/// prefix (WalkData + WalkLiveLength) and never scan or branch on the
/// kInvalidNode padding; the padding remains only so the flat array
/// keeps O(1) addressing.
///
/// Storage ownership (DESIGN.md §10): the step and live-length arrays
/// are accessed through read-only views that either cover heap vectors
/// owned by this index (Build / Load / copies) or borrow from a
/// memory-mapped artifact (Map). A mapped index serves queries directly
/// out of the OS page cache — no heap copy, pages shared across
/// processes. Copying a WalkIndex always materializes owned storage;
/// moving preserves the source's mode.
class WalkIndex {
 public:
  WalkIndex() = default;

  /// Deep copy: always lands in owned-storage mode, even when `other`
  /// is mapped (the mapped bytes are copied onto the heap). This is the
  /// copy-on-write promotion path DynamicWalkIndex::Adopt relies on.
  WalkIndex(const WalkIndex& other) { CopyFrom(other); }
  WalkIndex& operator=(const WalkIndex& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  /// Moves preserve the storage mode. Views into owned vectors stay
  /// valid across a move (vector buffers are stable under move); the
  /// mapping transfers wholesale.
  WalkIndex(WalkIndex&&) noexcept = default;
  WalkIndex& operator=(WalkIndex&&) noexcept = default;

  /// Samples all walks. `graph` must outlive the index (the estimators
  /// need it anyway for degrees and weights). `options` must pass
  /// ValidateWalkIndexOptions.
  static WalkIndex Build(const Hin& graph, const WalkIndexOptions& options);

  int num_walks() const { return options_.num_walks; }
  int walk_length() const { return options_.walk_length; }
  const WalkIndexOptions& options() const { return options_; }
  /// Number of walk origins — the node count of the graph the index was
  /// sampled on (0 for an empty index).
  size_t num_nodes() const {
    return options_.num_walks > 0
               ? live_len_.size() / static_cast<size_t>(options_.num_walks)
               : 0;
  }

  /// The `walk`-th walk from `v`: `walk_length` entries; entry s is the
  /// node after s+1 reverse steps, kInvalidNode once the walk has died.
  std::span<const NodeId> Walk(NodeId v, int walk) const {
    return {steps_.data() + WalkBase(v, walk),
            static_cast<size_t>(options_.walk_length)};
  }

  /// Raw pointer to the `walk`-th walk from `v` — the compact-kernel
  /// accessor: exactly WalkLiveLength(v, walk) leading entries are
  /// valid nodes.
  const NodeId* WalkData(NodeId v, int walk) const {
    return steps_.data() + WalkBase(v, walk);
  }

  /// Number of live steps of the `walk`-th walk from `v` (0 when v has
  /// no in-neighbors, walk_length when the walk survived truncation).
  int WalkLiveLength(NodeId v, int walk) const {
    return live_len_[static_cast<size_t>(v) * options_.num_walks + walk];
  }

  /// Probability Q assigns to stepping from `from` to in-neighbor at
  /// position `idx` of InNeighbors(from). Uniform: 1/|I(from)|.
  double ProposalProb(const Hin& graph, NodeId from, size_t idx) const;

  /// Total bytes behind the views (owned + mapped); the historical
  /// "index size" number of the Sec. 5.2 memory report.
  size_t MemoryBytes() const {
    return steps_.size() * sizeof(NodeId) +
           live_len_.size() * sizeof(uint16_t);
  }
  /// Heap bytes owned by this index (0 for a fully mapped index).
  size_t OwnedBytes() const {
    return steps_owned_.capacity() * sizeof(NodeId) +
           live_owned_.capacity() * sizeof(uint16_t) + mapping_.OwnedBytes();
  }
  /// Bytes served zero-copy from the mmap'd artifact (0 for an owned
  /// index and for the buffered-read fallback, whose buffer is counted
  /// as owned).
  size_t MappedBytes() const { return mapping_.mapped() ? mapping_.size() : 0; }
  /// True when the views borrow from a Map()'d artifact (a real mmap or
  /// its buffered fallback). Such an index is strictly read-only:
  /// DynamicWalkIndex refuses it (or promotes a copy) instead of
  /// resampling in place.
  bool mapped() const { return borrows_mapping_; }

  /// Wall-clock seconds the sampling took (Sec. 5.2 preprocessing report).
  double build_seconds() const { return build_seconds_; }

  /// Persists the index as a v2 serving artifact (DESIGN.md §10): the
  /// versioned header, a section directory, and page-aligned sections
  /// for the step array and the live-length array, each guarded by a
  /// checksum. Because live lengths are persisted, loading a v2 file
  /// never pays the full padding rescan; because sections are
  /// page-aligned, Map() can serve them in place with natural alignment.
  Status Save(const std::string& path) const;

  /// Loads a v2 sectioned artifact into owned heap storage (checksums
  /// verified, live lengths read back). Validates the header magic and
  /// format version, the walk parameters, and `expected_nodes` (guards
  /// against pairing an index with the wrong graph), and rejects
  /// truncated or oversized payloads with a descriptive Status. Older
  /// formats get a FailedPrecondition asking for a rebuild.
  static Result<WalkIndex> Load(const std::string& path,
                                size_t expected_nodes);

  /// Zero-copy open: validates the header and section directory, then
  /// serves WalkData / WalkLiveLength directly out of a read-only mmap
  /// of the artifact — no heap copy, cold-start cost independent of the
  /// index size, physical pages shared with every other process mapping
  /// the same file. Accepts exactly what Load accepts. The returned index
  /// owns the mapping; queries fault pages in lazily. See
  /// WalkIndexMapOptions for checksum policy.
  static Result<WalkIndex> Map(const std::string& path, size_t expected_nodes,
                               const WalkIndexMapOptions& map_options = {});

 private:
  friend class DynamicWalkIndex;  // in-place suffix resampling on updates

  size_t WalkBase(NodeId v, int walk) const {
    return (static_cast<size_t>(v) * options_.num_walks + walk) *
           options_.walk_length;
  }

  /// Load()/Map() bodies; the public wrappers add the trace span and
  /// failure counter around them.
  static Result<WalkIndex> LoadImpl(const std::string& path,
                                    size_t expected_nodes);
  static Result<WalkIndex> MapImpl(const std::string& path,
                                   size_t expected_nodes,
                                   const WalkIndexMapOptions& map_options);

  /// Re-points the views at the owned vectors.
  void BindOwned() {
    steps_ = steps_owned_;
    live_len_ = live_owned_;
  }

  /// Copies `other`'s data (owned or mapped) into owned storage here.
  void CopyFrom(const WalkIndex& other);

  /// Materializes owned storage from the current views and drops the
  /// mapping — the copy-on-write promotion used by DynamicWalkIndex.
  void PromoteToOwned();

  /// Mutable owned-storage accessors for DynamicWalkIndex's in-place
  /// suffix resampling. Callers must hold a non-mapped index (checked).
  NodeId* MutableSteps();
  uint16_t* MutableLiveLengths();

  WalkIndexOptions options_;
  // Owned storage (Build / Load / copies).
  std::vector<NodeId> steps_owned_;
  std::vector<uint16_t> live_owned_;
  // The artifact mapping (Map); empty in owned mode.
  MappedFile mapping_;
  // Read views all accessors go through: cover the owned vectors or
  // borrow from mapping_.
  std::span<const NodeId> steps_;
  std::span<const uint16_t> live_len_;  // per (node, walk), size n·n_w
  // True when any view points into mapping_ (set by Map).
  bool borrows_mapping_ = false;
  double build_seconds_ = 0;
};

}  // namespace semsim

#endif  // SEMSIM_CORE_WALK_INDEX_H_
