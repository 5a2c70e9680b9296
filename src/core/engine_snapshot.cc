#include "core/engine_snapshot.h"

#include <utility>
#include <vector>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/mc_kernels.h"
#include "core/pair_graph.h"

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
  // Flat semantic table (DESIGN.md §7): only exists when the measure is
  // one of the flattenable built-ins, whose sem(·,·) calls the
  // devirtualized kernel then replaces; any other measure is called
  // directly. The transition table is built by the estimator below.
  kernels::SemInfo info = kernels::ClassifyMeasure(snap->semantic_.get());
  if (info.kind != kernels::SemKind::kVirtual) {
    snap->flat_semantic_ = std::make_unique<FlatSemanticTable>(
        FlatSemanticTable::Build(*info.context));
    snap->sem_devirtualized_ = true;
  }
  if (options.cache_min_sem >= 0) {
    // The PairGraph is only a build-time scaffold; the cache is
    // self-contained afterwards.
    PairGraph pair_graph(snap->graph_.get(), snap->semantic_.get());
    snap->static_cache_ = std::make_unique<PairNormalizerCache>(
        PairNormalizerCache::Build(pair_graph, options.cache_min_sem));
  }
  snap->estimator_ = std::make_unique<SemSimMcEstimator>(
      snap->graph_.get(), snap->semantic_.get(), snap->walk_index_.get(),
      snap->static_cache_.get());
  bool engaged = snap->estimator_->AttachFlatKernel(snap->flat_semantic_.get());
  SEMSIM_CHECK(engaged == snap->sem_devirtualized_);
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
  fp = ChainValue(fp, snap.options_.cache_min_sem);
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
  if (snap.static_cache_ != nullptr) {
    const uint64_t cached_pairs = snap.static_cache_->size();
    fp = ChainValue(fp, cached_pairs);
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
    inverted_ = std::make_unique<SingleSourceIndex>(SingleSourceIndex::Build(
        *walk_index_, graph_->num_nodes(), pool));
    inverted_published_.store(inverted_.get(), std::memory_order_release);
  }
  return *inverted_;
}

size_t EngineSnapshot::MemoryBytes() const {
  size_t total = walk_index_->MemoryBytes();
  total += estimator_->transition_table().MemoryBytes();
  if (flat_semantic_) total += flat_semantic_->MemoryBytes();
  if (sampler_) total += sampler_->TableBytes();
  if (static_cache_) total += static_cache_->MemoryBytes();
  if (normalizer_cache_) total += normalizer_cache_->MemoryBytes();
  const SingleSourceIndex* inverted =
      inverted_published_.load(std::memory_order_acquire);
  if (inverted != nullptr) total += inverted->MemoryBytes();
  return total;
}

}  // namespace semsim
