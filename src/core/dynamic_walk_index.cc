#include "core/dynamic_walk_index.h"

#include <utility>

#include "common/logging.h"
#include "graph/node_sampler.h"

namespace semsim {

DynamicWalkIndex DynamicWalkIndex::Build(const Hin* graph,
                                         const WalkIndexOptions& options) {
  SEMSIM_CHECK(graph != nullptr);
  DynamicWalkIndex dyn;
  dyn.graph_ = graph;
  dyn.index_ = std::make_shared<WalkIndex>(WalkIndex::Build(*graph, options));
  // Continue the deterministic stream where the builder cannot collide
  // with it: reseed from the build seed, offset.
  dyn.rng_.Seed(options.seed ^ 0xD1F2C3B4A5968778ULL);
  dyn.dirty_mark_.assign(graph->num_nodes(), 0);
  return dyn;
}

Result<DynamicWalkIndex> DynamicWalkIndex::Adopt(const Hin* graph,
                                                 WalkIndex index) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  size_t per_node = static_cast<size_t>(index.num_walks()) *
                    static_cast<size_t>(index.walk_length());
  if (per_node == 0 ||
      index.MemoryBytes() !=
          graph->num_nodes() * per_node * sizeof(NodeId) +
              graph->num_nodes() * static_cast<size_t>(index.num_walks()) *
                  sizeof(uint16_t)) {
    return Status::InvalidArgument(
        "walk index shape does not match the graph's node count");
  }
  DynamicWalkIndex dyn;
  dyn.graph_ = graph;
  dyn.index_ = std::make_shared<WalkIndex>(std::move(index));
  // Copy-on-write: a mapped artifact is read-only (and its pages are
  // shared machine-wide through the page cache) — materialize a private
  // heap copy before any suffix resampling can touch it.
  dyn.index_->PromoteToOwned();
  dyn.rng_.Seed(dyn.index_->options().seed ^ 0xD1F2C3B4A5968778ULL);
  dyn.dirty_mark_.assign(graph->num_nodes(), 0);
  return dyn;
}

void DynamicWalkIndex::EnsurePrivateWalks() {
  if (!exported_ && index_.use_count() == 1) return;
  // An exported snapshot (or any other holder) shares these walks;
  // clone before mutating so its readers keep serving the version they
  // acquired. WalkIndex's copy constructor always materializes owned
  // storage.
  index_ = std::make_shared<WalkIndex>(*index_);
  exported_ = false;
}

Result<size_t> DynamicWalkIndex::Update(const Hin* new_graph,
                                        std::span<const NodeId> dirty_nodes) {
  if (new_graph == nullptr) return Status::InvalidArgument("null graph");
  if (index_->mapped()) {
    return Status::FailedPrecondition(
        "walk index is memory-mapped (read-only); in-place suffix "
        "resampling would write through the shared mapping — adopt it "
        "with DynamicWalkIndex::Adopt to get a writable copy");
  }
  if (new_graph->num_nodes() != graph_->num_nodes()) {
    return Status::InvalidArgument(
        "Update supports edge changes only (node count differs)");
  }
  size_t n = new_graph->num_nodes();
  for (NodeId v : dirty_nodes) {
    if (v >= n) return Status::InvalidArgument("dirty node out of range");
  }
  EnsurePrivateWalks();
  for (NodeId v : dirty_nodes) dirty_mark_[v] = 1;

  const Hin& g = *new_graph;
  WalkIndex& index = *index_;
  const WalkIndexOptions& opt = index.options_;
  NodeId* all_steps = index.MutableSteps();
  uint16_t* live_lengths = index.MutableLiveLengths();
  // O(1) weighted resampling steps: the alias index over the *new*
  // graph is built lazily, on the first suffix that actually needs a
  // weighted draw — an update touching no walks pays nothing for it.
  NodeSamplerIndex sampler;
  bool sampler_built = false;
  size_t resampled = 0;

  for (NodeId origin = 0; origin < n; ++origin) {
    for (int w = 0; w < opt.num_walks; ++w) {
      size_t base = (static_cast<size_t>(origin) * opt.num_walks + w) *
                    static_cast<size_t>(opt.walk_length);
      NodeId* steps = all_steps + base;
      // Find the first position whose outgoing choice is invalidated:
      // the step *from* node x is invalid iff x is dirty. Positions are
      // origin (step from origin) then steps[0..].
      int first_invalid = -1;
      NodeId cur = origin;
      for (int s = 0; s < opt.walk_length; ++s) {
        if (dirty_mark_[cur]) {
          first_invalid = s;
          break;
        }
        if (steps[s] == kInvalidNode) break;
        cur = steps[s];
      }
      if (first_invalid < 0) continue;
      ++resampled;
      // Resample the suffix from `cur` under the new graph, keeping the
      // compact layout's live length in sync with the new suffix.
      int live = opt.walk_length;
      for (int s = first_invalid; s < opt.walk_length; ++s) {
        auto in = g.InNeighbors(cur);
        if (in.empty()) {
          for (int r = s; r < opt.walk_length; ++r) steps[r] = kInvalidNode;
          live = s;
          break;
        }
        size_t pick;
        if (opt.weighted) {
          if (!sampler_built) {
            sampler = NodeSamplerIndex::Build(g, SampleDirection::kIn);
            sampler_built = true;
          }
          pick = sampler.Sample(cur, rng_);
        } else {
          pick = rng_.NextIndex(in.size());
        }
        cur = in[pick].node;
        steps[s] = cur;
      }
      live_lengths[static_cast<size_t>(origin) * opt.num_walks + w] =
          static_cast<uint16_t>(live);
    }
  }

  for (NodeId v : dirty_nodes) dirty_mark_[v] = 0;
  graph_ = new_graph;
  graph_keepalive_.reset();
  return resampled;
}

Result<EngineSnapshotPtr> DynamicWalkIndex::UpdateToSnapshot(
    std::shared_ptr<const Hin> new_graph, std::span<const NodeId> dirty_nodes,
    std::shared_ptr<const SemanticMeasure> semantic,
    const EngineSnapshotOptions& options, uint64_t version,
    size_t* resampled) {
  if (new_graph == nullptr) return Status::InvalidArgument("null graph");
  SEMSIM_ASSIGN_OR_RETURN(size_t count,
                          Update(new_graph.get(), dirty_nodes));
  if (resampled != nullptr) *resampled = count;
  // Update() dropped the previous keep-alive; pin the new graph version
  // for the maintainer (graph_ points into it) and share it with the
  // snapshot below.
  graph_keepalive_ = new_graph;
  // Export copy-on-write: the snapshot shares today's walks; the next
  // Update() clones before mutating (EnsurePrivateWalks), so the
  // published version stays immutable for its readers.
  exported_ = true;
  return EngineSnapshot::Create(std::move(new_graph), std::move(semantic),
                                index_, options, version);
}

}  // namespace semsim
