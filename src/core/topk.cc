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

std::vector<Scored> BoundedSemanticTopK(const SemSimMcEstimator& estimator,
                                        NodeId query, size_t k,
                                        const SemSimMcOptions& options,
                                        const std::vector<NodeId>* candidates,
                                        double slack, size_t* scanned) {
  // Order candidates by their semantic upper bound, descending.
  std::vector<Scored> bounds;
  auto consider = [&](NodeId v) {
    if (v != query) bounds.push_back(Scored{v, estimator.SemValue(query, v)});
  };
  if (candidates) {
    bounds.reserve(candidates->size());
    for (NodeId v : *candidates) consider(v);
  } else {
    bounds.reserve(estimator.graph().num_nodes());
    for (NodeId v = 0; v < estimator.graph().num_nodes(); ++v) consider(v);
  }
  std::sort(bounds.begin(), bounds.end(),
            [](const Scored& a, const Scored& b) {
              return a.score != b.score ? a.score > b.score : a.node < b.node;
            });

  std::vector<Scored> best;  // kept sorted descending, at most k entries
  auto insert = [&](Scored s) {
    auto pos = std::lower_bound(best.begin(), best.end(), s,
                                [](const Scored& a, const Scored& b) {
                                  return a.score != b.score
                                             ? a.score > b.score
                                             : a.node < b.node;
                                });
    best.insert(pos, s);
    if (best.size() > k) best.pop_back();
  };

  size_t issued = 0;
  for (const Scored& bound : bounds) {
    if (best.size() == k && best.back().score >= slack * bound.score) {
      break;  // no unvisited candidate can beat the current k-th best
    }
    ++issued;
    insert(Scored{bound.node, estimator.Query(query, bound.node, options)});
  }
  if (scanned) *scanned = issued;
  return best;
}

}  // namespace semsim
