#include "core/engine_snapshot.h"

#include <string>
#include <utility>
#include <vector>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace semsim {

namespace {

Gauge* InflightGauge() {
  static Gauge* gauge =
      MetricsRegistry::Global().GetGauge("semsim_snapshot_inflight");
  return gauge;
}

uint64_t Chain(uint64_t seed, const void* data, size_t size) {
  return Fnv1a64(data, size, seed);
}

template <typename T>
uint64_t ChainValue(uint64_t seed, const T& value) {
  return Fnv1a64(&value, sizeof(value), seed);
}

}  // namespace

EngineSnapshot::EngineSnapshot() { InflightGauge()->Add(1); }

EngineSnapshot::~EngineSnapshot() { InflightGauge()->Sub(1); }

Result<EngineSnapshotPtr> EngineSnapshot::Create(
    std::shared_ptr<const Hin> graph,
    std::shared_ptr<const SemanticMeasure> semantic,
    std::shared_ptr<const WalkIndex> walk_index,
    const EngineSnapshotOptions& options, uint64_t version,
    const ThreadPool* build_pool) {
  if (graph == nullptr || semantic == nullptr || walk_index == nullptr) {
    return Status::InvalidArgument(
        "graph, semantic measure, and walk index are required");
  }
  if (walk_index->num_nodes() != graph->num_nodes()) {
    return Status::InvalidArgument(
        "walk index has " + std::to_string(walk_index->num_nodes()) +
        " walk origins but the graph has " +
        std::to_string(graph->num_nodes()) +
        " nodes; build the index on this graph");
  }
  if (options.normalizer_cache_capacity < 0) {
    return Status::InvalidArgument(
        "normalizer_cache_capacity must be >= 0 (0 disables the cache)");
  }
  SEMSIM_RETURN_NOT_OK(ValidateMcOptions(options.query.mc));
  SEMSIM_TRACE_SPAN("semsim_snapshot_create");
  std::shared_ptr<EngineSnapshot> snap(new EngineSnapshot());
  snap->graph_ = std::move(graph);
  snap->semantic_ = std::move(semantic);
  snap->walk_index_ = std::move(walk_index);
  snap->options_ = options;
  snap->version_ = version;
  // The transition table is built by the estimator; the taxonomy
  // groups and their S table (DESIGN.md §7) only for the four LCA-based
  // measures, any other measure is called directly.
  snap->estimator_ = std::make_unique<SemSimMcEstimator>(
      snap->graph_.get(), snap->semantic_.get(), snap->walk_index_.get());
  snap->estimator_->AttachGroups();
  if (options.normalizer_cache_capacity > 0) {
    snap->normalizer_cache_ = std::make_unique<ConcurrentPairCache>(
        static_cast<size_t>(options.normalizer_cache_capacity));
    snap->normalizer_cache_->BindMetrics("normalizer");
    snap->estimator_->set_shared_cache(snap->normalizer_cache_.get());
  }
  if (snap->walk_index_->options().weighted) {
    snap->sampler_ = std::make_unique<NodeSamplerIndex>(NodeSamplerIndex::Build(
        *snap->graph_, SampleDirection::kIn, build_pool));
  }
  ComputeFingerprint(*snap);
  if (options.eager_single_source) snap->InvertedIndex(build_pool);
  return EngineSnapshotPtr(std::move(snap));
}

Result<EngineSnapshotPtr> EngineSnapshot::Build(
    std::shared_ptr<const Hin> graph,
    std::shared_ptr<const SemanticMeasure> semantic,
    const WalkIndexOptions& walks, const EngineSnapshotOptions& options,
    uint64_t version, const ThreadPool* build_pool) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  auto index =
      std::make_shared<const WalkIndex>(WalkIndex::Build(*graph, walks));
  return Create(std::move(graph), std::move(semantic), std::move(index),
                options, version, build_pool);
}

Result<EngineSnapshotPtr> EngineSnapshot::MapArtifact(
    std::shared_ptr<const Hin> graph,
    std::shared_ptr<const SemanticMeasure> semantic, const std::string& path,
    const EngineSnapshotOptions& options, uint64_t version,
    const WalkIndexMapOptions& map_options, const ThreadPool* build_pool) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  SEMSIM_ASSIGN_OR_RETURN(
      WalkIndex mapped,
      WalkIndex::Map(path, graph->num_nodes(), map_options));
  auto index = std::make_shared<const WalkIndex>(std::move(mapped));
  return Create(std::move(graph), std::move(semantic), std::move(index),
                options, version, build_pool);
}

void EngineSnapshot::ComputeFingerprint(EngineSnapshot& snap) {
  uint64_t fp = kFnv1a64Offset;
  // Options that change results: the estimator parameters (walk_budget
  // defaults resolve at query time; decay/theta pin the estimate itself).
  fp = ChainValue(fp, snap.options_.query.mc.decay);
  fp = ChainValue(fp, snap.options_.query.mc.theta);
  const uint64_t nodes = snap.graph_->num_nodes();
  const uint64_t edges = snap.graph_->num_edges();
  fp = ChainValue(fp, nodes);
  fp = ChainValue(fp, edges);
  const WalkIndex& index = *snap.walk_index_;
  const WalkIndexOptions& walks = index.options();
  fp = ChainValue(fp, walks.num_walks);
  fp = ChainValue(fp, walks.walk_length);
  fp = ChainValue(fp, walks.seed);
  const uint8_t weighted = walks.weighted ? 1 : 0;
  fp = ChainValue(fp, weighted);
  // Walk content: the flat step array is contiguous, so one chained
  // pass covers every walk. A mapped artifact faults all pages in here
  // — the documented one-time publish cost.
  if (nodes > 0 && index.num_walks() > 0 && index.walk_length() > 0) {
    const size_t steps = static_cast<size_t>(nodes) *
                         static_cast<size_t>(index.num_walks()) *
                         static_cast<size_t>(index.walk_length());
    fp = Chain(fp, index.Walk(0, 0).data(), steps * sizeof(NodeId));
    std::vector<uint16_t> live;
    live.reserve(static_cast<size_t>(nodes) * index.num_walks());
    for (NodeId v = 0; v < static_cast<NodeId>(nodes); ++v) {
      for (int w = 0; w < index.num_walks(); ++w) {
        live.push_back(index.WalkLiveLength(v, w));
      }
    }
    fp = Chain(fp, live.data(), live.size() * sizeof(uint16_t));
  }
  if (snap.sampler_ != nullptr) {
    fp = ChainValue(fp, snap.sampler_->Fingerprint());
  }
  snap.fingerprint_ = fp;
}

std::string EngineSnapshot::kernel_name() const {
  return "flat+" + std::string(estimator_->sem_kernel_name());
}

const SingleSourceIndex& EngineSnapshot::InvertedIndex(
    const ThreadPool* pool) const {
  const SingleSourceIndex* published =
      inverted_published_.load(std::memory_order_acquire);
  if (published != nullptr) return *published;
  std::lock_guard<std::mutex> lock(inverted_mu_);
  if (!inverted_) {
    SEMSIM_TRACE_SPAN("semsim_snapshot_inverted_index_build");
    inverted_ = std::make_unique<SingleSourceIndex>(
        SingleSourceIndex::Build(*walk_index_, pool));
    inverted_published_.store(inverted_.get(), std::memory_order_release);
  }
  return *inverted_;
}

size_t EngineSnapshot::MemoryBytes() const {
  size_t total = walk_index_->MemoryBytes();
  total += estimator_->transition_table().MemoryBytes();
  total += estimator_->normalizer_groups().MemoryBytes();
  if (sampler_) total += sampler_->TableBytes();
  if (normalizer_cache_) total += normalizer_cache_->MemoryBytes();
  const SingleSourceIndex* inverted =
      inverted_published_.load(std::memory_order_acquire);
  if (inverted != nullptr) total += inverted->MemoryBytes();
  return total;
}

}  // namespace semsim
