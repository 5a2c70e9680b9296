#ifndef SEMSIM_BASELINES_PANTHER_H_
#define SEMSIM_BASELINES_PANTHER_H_

#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "graph/hin.h"
#include "graph/types.h"

namespace semsim {

/// Parameters for the Panther estimator.
struct PantherOptions {
  /// Number of sampled paths R. Zhang et al. [43] pick R from an
  /// (ε,δ)-bound on |E|; we expose it directly.
  size_t num_paths = 20000;
  /// Path length T (their default is 5).
  int path_length = 5;
  uint64_t seed = 7;
};

/// Panther (Zhang et al. [43]): fast top-k similarity by random *path*
/// sampling — S(u,v) is the fraction of sampled paths that contain both u
/// and v. Paths are drawn on the symmetrized graph with edge-weight-
/// proportional transitions, so edge weights are taken into account
/// (matching the paper's description of this baseline). Each step is an
/// O(1) draw from one NodeSamplerIndex over the symmetrized graph's
/// out-neighbors (DESIGN.md §11). Structural only: no semantics.
class Panther {
 public:
  /// Samples all paths and builds the co-occurrence table.
  static Panther Build(const Hin& graph, const PantherOptions& options);

  /// S(u,v): fraction of paths containing both nodes.
  double Score(NodeId u, NodeId v) const;

  size_t num_cooccurring_pairs() const { return cooccurrence_.size(); }

 private:
  std::unordered_map<NodePair, uint32_t, NodePairHash> cooccurrence_;
  double inv_num_paths_ = 0;
};

}  // namespace semsim

#endif  // SEMSIM_BASELINES_PANTHER_H_
