#include "baselines/panther.h"

#include <algorithm>

#include "common/logging.h"
#include "graph/node_sampler.h"

namespace semsim {

Panther Panther::Build(const Hin& graph, const PantherOptions& options) {
  SEMSIM_CHECK(options.num_paths > 0 && options.path_length > 1);
  Panther panther;
  panther.inv_num_paths_ = 1.0 / static_cast<double>(options.num_paths);
  Hin sym = graph.Symmetrized();
  size_t n = sym.num_nodes();
  if (n == 0) return panther;
  Rng rng(options.seed);
  // Path transitions are weight-proportional on the symmetrized graph:
  // each step is an O(1) draw from a per-node alias table.
  NodeSamplerIndex sampler =
      NodeSamplerIndex::Build(sym, SampleDirection::kOut);
  std::vector<NodeId> path;
  path.reserve(static_cast<size_t>(options.path_length));
  for (size_t p = 0; p < options.num_paths; ++p) {
    NodeId cur = static_cast<NodeId>(rng.NextIndex(n));
    path.clear();
    path.push_back(cur);
    for (int s = 1; s < options.path_length; ++s) {
      auto out = sym.OutNeighbors(cur);
      if (out.empty()) break;
      cur = out[sampler.Sample(cur, rng)].node;
      path.push_back(cur);
    }
    // Count each unordered node pair co-occurring in the path once.
    std::sort(path.begin(), path.end());
    path.erase(std::unique(path.begin(), path.end()), path.end());
    for (size_t i = 0; i < path.size(); ++i) {
      for (size_t j = i + 1; j < path.size(); ++j) {
        ++panther.cooccurrence_[NodePair{path[i], path[j]}];
      }
    }
  }
  return panther;
}

double Panther::Score(NodeId u, NodeId v) const {
  if (u == v) return 1.0;
  NodePair key = u <= v ? NodePair{u, v} : NodePair{v, u};
  auto it = cooccurrence_.find(key);
  return it == cooccurrence_.end()
             ? 0.0
             : static_cast<double>(it->second) * inv_num_paths_;
}

}  // namespace semsim
