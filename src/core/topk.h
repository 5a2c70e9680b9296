#ifndef SEMSIM_CORE_TOPK_H_
#define SEMSIM_CORE_TOPK_H_

#include <functional>
#include <vector>

#include "core/mc_semsim.h"
#include "core/score_matrix.h"
#include "graph/types.h"

namespace semsim {

/// One entry of a top-k similarity result.
struct Scored {
  NodeId node;
  double score;
};

/// Top-k most similar nodes to `query` under the IS-based MC estimator.
/// Candidates default to every other node; the estimator's semantic
/// pruning (Prop. 2.5) answers most dissimilar candidates in O(1), which
/// is what makes MC top-k practical (Sec. 5.3 tasks). Ties are broken by
/// node id for determinism.
std::vector<Scored> McTopK(const SemSimMcEstimator& estimator, NodeId query,
                           size_t k, const SemSimMcOptions& options,
                           const std::vector<NodeId>* candidates = nullptr);

/// Top-k from a precomputed dense score matrix (used by the iterative
/// engines and matrix-based baselines).
std::vector<Scored> MatrixTopK(const ScoreMatrix& scores, NodeId query,
                               size_t k,
                               const std::vector<NodeId>* candidates = nullptr);

/// Top-k from an arbitrary scoring callback over the candidate set.
/// Shared implementation detail of the baseline harnesses.
std::vector<Scored> CallbackTopK(
    size_t num_nodes, NodeId query, size_t k,
    const std::vector<NodeId>* candidates,
    const std::function<double(NodeId)>& score_fn);

}  // namespace semsim

#endif  // SEMSIM_CORE_TOPK_H_
