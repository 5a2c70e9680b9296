#ifndef SERVEBENCH_LIB_STREAMS_H_
#define SERVEBENCH_LIB_STREAMS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "datasets/dataset.h"
#include "graph/hin.h"
#include "serving/query_service.h"

namespace servebench {

using semsim::NodeId;

enum class GraphKind { kAminer, kAmazon };

/// One named workload: the graph it runs on and the traffic it sends.
/// Every field is fixed here; only the seed varies between runs.
struct WorkloadSpec {
  std::string name;
  GraphKind graph = GraphKind::kAminer;
  /// num_authors (AMiner) or num_items (Amazon).
  int num_entities = 0;
  /// Label of the nodes requests are drawn from ("author" / "item").
  std::string entity_label;
  /// Label of the edges the trace-mode writer probe inserts.
  std::string update_edge_label;

  /// Closed loop: `outstanding` requests are kept in flight.
  int outstanding = 1;

  /// Every request is a top-k from `sources_per_request` distinct Zipf
  /// sources (else kPairs of `pairs_per_request` independent Zipf pairs).
  bool topk = false;
  size_t sources_per_request = 1;
  size_t pairs_per_request = 0;
  /// Build the inverted single-source index during set-up.
  bool eager_inverted = false;
};

/// k of every top-k request.
inline constexpr size_t kTopK = 10;

/// Undirected edges per update batch of the trace-mode writer probe.
inline constexpr size_t kEdgesPerUpdate = 100;

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// nullptr when `name` names no workload.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Sub-seed streams of the run seed: the walk sampling, the request
/// stream, the warm-up and the probes never share RNG state.
enum SeedStream : uint64_t {
  kWalkStream = 2,
  kRequestStream = 3,
  kWarmupStream = 6,
  kProbeStream = 7,
};
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Seed of the workload's graph and of its Zipf rank order. Both are part
/// of the workload, not of the run: the run seed varies the traffic and
/// the walk sampling over one fixed dataset, so runs with different seeds
/// measure the same system on independent request samples.
inline constexpr uint64_t kDatasetSeed = 1;

/// The workload's graph (generated from kDatasetSeed).
semsim::Result<semsim::Dataset> MakeDataset(const WorkloadSpec& spec);

/// Nodes carrying `label`, in a seeded random order: position r is the
/// node of Zipf rank r.
std::vector<NodeId> HotOrder(const semsim::Hin& graph, std::string_view label,
                             uint64_t seed);

/// Zipf(s) over ranks [0, n): P(r) ∝ (r+1)^-s, by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(semsim::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The request sequence of one run: a pure function of (spec, hot order,
/// seed).
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, std::vector<NodeId> hot_order,
                uint64_t seed);
  semsim::QueryRequest Next();

 private:
  NodeId Draw();

  const WorkloadSpec& spec_;
  std::vector<NodeId> hot_;
  ZipfSampler zipf_;
  semsim::Rng rng_;
};

/// One batch of undirected edge insertions.
struct EdgeBatch {
  std::vector<std::pair<NodeId, NodeId>> edges;
};

/// The update sequence of one run: uniform entity pairs, no self loops.
class UpdateStream {
 public:
  UpdateStream(std::vector<NodeId> entities, uint64_t seed);
  EdgeBatch Next();

 private:
  std::vector<NodeId> entities_;
  semsim::Rng rng_;
};

/// The next graph version: `graph` plus `batch` (Hin::ToBuilder → add
/// edges → Build). `dirty` receives every node whose in-neighbourhood
/// changed, sorted and unique.
semsim::Result<semsim::Hin> ApplyBatch(const semsim::Hin& graph,
                                       const EdgeBatch& batch,
                                       std::string_view label,
                                       std::vector<NodeId>* dirty);

}  // namespace servebench

#endif  // SERVEBENCH_LIB_STREAMS_H_
