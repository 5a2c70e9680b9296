#include "core/engine_snapshot.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"

namespace semsim {

namespace {

Gauge* InflightGauge() {
  static Gauge* gauge =
      MetricsRegistry::Global().GetGauge("semsim_snapshot_inflight");
  return gauge;
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
  if (options.eager_single_source) snap->InvertedIndex(build_pool);
  return EngineSnapshotPtr(std::move(snap));
}

Result<EngineSnapshotPtr> EngineSnapshot::Build(
    std::shared_ptr<const Hin> graph,
    std::shared_ptr<const SemanticMeasure> semantic,
    const WalkIndexOptions& walks, const EngineSnapshotOptions& options,
    uint64_t version, const ThreadPool* build_pool) {
  if (graph == nullptr) return Status::InvalidArgument("null graph");
  SEMSIM_RETURN_NOT_OK(ValidateWalkIndexOptions(walks));
  auto index =
      std::make_shared<const WalkIndex>(WalkIndex::Build(*graph, walks));
  return Create(std::move(graph), std::move(semantic), std::move(index),
                options, version, build_pool);
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
  if (normalizer_cache_) total += normalizer_cache_->MemoryBytes();
  const SingleSourceIndex* inverted =
      inverted_published_.load(std::memory_order_acquire);
  if (inverted != nullptr) total += inverted->MemoryBytes();
  return total;
}

}  // namespace semsim
