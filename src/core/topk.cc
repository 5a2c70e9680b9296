#include "core/topk.h"

#include <algorithm>

namespace semsim {

std::vector<Scored> CallbackTopK(
    size_t num_nodes, NodeId query, size_t k,
    const std::vector<NodeId>* candidates,
    const std::function<double(NodeId)>& score_fn) {
  std::vector<Scored> scored;
  auto consider = [&](NodeId v) {
    if (v == query) return;
    scored.push_back(Scored{v, score_fn(v)});
  };
  if (candidates) {
    scored.reserve(candidates->size());
    for (NodeId v : *candidates) consider(v);
  } else {
    scored.reserve(num_nodes);
    for (NodeId v = 0; v < num_nodes; ++v) consider(v);
  }
  size_t take = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(take),
                    scored.end(), [](const Scored& a, const Scored& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.node < b.node;
                    });
  scored.resize(take);
  return scored;
}

std::vector<Scored> McTopK(const SemSimMcEstimator& estimator, NodeId query,
                           size_t k, const SemSimMcOptions& options,
                           const std::vector<NodeId>* candidates) {
  return CallbackTopK(estimator.graph().num_nodes(), query, k, candidates,
                      [&](NodeId v) { return estimator.Query(query, v, options); });
}

std::vector<Scored> MatrixTopK(const ScoreMatrix& scores, NodeId query,
                               size_t k,
                               const std::vector<NodeId>* candidates) {
  return CallbackTopK(scores.size(), query, k, candidates,
                      [&](NodeId v) { return scores.at(query, v); });
}

}  // namespace semsim
