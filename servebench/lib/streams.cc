#include "lib/streams.h"

#include <algorithm>
#include <cmath>

#include "datasets/amazon_gen.h"
#include "datasets/aminer_gen.h"

namespace servebench {

using semsim::NodePair;
using semsim::QueryRequest;
using semsim::QueryRequestKind;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;

    // IS scoring + SO normalizers over taxonomy hubs, fanned out across
    // the pool; never touches SingleSourceIndex.
    WorkloadSpec pairs;
    pairs.name = "pairs-aminer";
    pairs.graph = GraphKind::kAminer;
    pairs.num_entities = 10000;
    pairs.entity_label = "author";
    pairs.update_edge_label = "co_author";
    pairs.outstanding = 1;
    pairs.pairs_per_request = 128;
    v.push_back(pairs);

    // Meeting enumeration + IS over meetings + top-k select, one pool
    // item per source, so a request's sources fan out across the pool;
    // the FIFO scheduler shows as queue wait behind the other
    // outstanding requests.
    WorkloadSpec topk;
    topk.name = "topk-amazon";
    topk.graph = GraphKind::kAmazon;
    topk.num_entities = 3000;
    topk.entity_label = "item";
    topk.update_edge_label = "co_purchase";
    topk.outstanding = 3;
    topk.topk = true;
    topk.sources_per_request = 6;
    topk.eager_inverted = true;
    v.push_back(topk);
    return v;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

semsim::Result<semsim::Dataset> MakeDataset(const WorkloadSpec& spec) {
  if (spec.graph == GraphKind::kAminer) {
    semsim::AminerOptions opt;
    opt.num_authors = spec.num_entities;
    opt.seed = kDatasetSeed;
    return semsim::GenerateAminer(opt);
  }
  semsim::AmazonOptions opt;
  opt.num_items = spec.num_entities;
  opt.seed = kDatasetSeed;
  return semsim::GenerateAmazon(opt);
}

std::vector<NodeId> HotOrder(const semsim::Hin& graph, std::string_view label,
                             uint64_t seed) {
  const semsim::LabelId want = graph.FindLabel(label);
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.node_label(v) == want) nodes.push_back(v);
  }
  // Fisher-Yates with the library RNG: std::shuffle's use of the engine
  // is implementation-defined, this order is not.
  semsim::Rng rng(seed);
  for (size_t i = nodes.size(); i > 1; --i) {
    std::swap(nodes[i - 1], nodes[rng.NextIndex(i)]);
  }
  return nodes;
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r + 1), -s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(semsim::Rng& rng) const {
  const double u = rng.NextDouble();
  const size_t r = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

RequestStream::RequestStream(const WorkloadSpec& spec,
                             std::vector<NodeId> hot_order, uint64_t seed)
    : spec_(spec), hot_(std::move(hot_order)), zipf_(hot_.size(), 0.8),
      rng_(seed) {}

NodeId RequestStream::Draw() { return hot_[zipf_.Sample(rng_)]; }

QueryRequest RequestStream::Next() {
  QueryRequest req;
  req.k = kTopK;
  if (spec_.topk) {
    req.kind = QueryRequestKind::kTopK;
    while (req.sources.size() < spec_.sources_per_request) {
      const NodeId s = Draw();
      if (std::find(req.sources.begin(), req.sources.end(), s) ==
          req.sources.end()) {
        req.sources.push_back(s);
      }
    }
  } else {
    req.kind = QueryRequestKind::kPairs;
    req.pairs.reserve(spec_.pairs_per_request);
    for (size_t i = 0; i < spec_.pairs_per_request; ++i) {
      const NodeId u = Draw();
      const NodeId v = Draw();
      req.pairs.push_back(NodePair{u, v});
    }
  }
  return req;
}

UpdateStream::UpdateStream(std::vector<NodeId> entities, uint64_t seed)
    : entities_(std::move(entities)), rng_(seed) {}

EdgeBatch UpdateStream::Next() {
  EdgeBatch batch;
  const size_t n = entities_.size();
  if (n < 2) return batch;
  while (batch.edges.size() < kEdgesPerUpdate) {
    const NodeId u = entities_[rng_.NextIndex(n)];
    const NodeId v = entities_[rng_.NextIndex(n)];
    if (u != v) batch.edges.emplace_back(u, v);
  }
  return batch;
}

semsim::Result<semsim::Hin> ApplyBatch(const semsim::Hin& graph,
                                       const EdgeBatch& batch,
                                       std::string_view label,
                                       std::vector<NodeId>* dirty) {
  semsim::HinBuilder builder = graph.ToBuilder();
  dirty->clear();
  for (const auto& [u, v] : batch.edges) {
    SEMSIM_RETURN_NOT_OK(builder.AddUndirectedEdge(u, v, label, 1.0));
    dirty->push_back(u);
    dirty->push_back(v);
  }
  std::sort(dirty->begin(), dirty->end());
  dirty->erase(std::unique(dirty->begin(), dirty->end()), dirty->end());
  return std::move(builder).Build();
}

}  // namespace servebench
