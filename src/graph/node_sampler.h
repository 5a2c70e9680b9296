#ifndef SEMSIM_GRAPH_NODE_SAMPLER_H_
#define SEMSIM_GRAPH_NODE_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "graph/hin.h"

namespace semsim {

class ThreadPool;

/// Adjacency side a NodeSamplerIndex is built over: in-neighbors (the
/// reverse-walk generators) or out-neighbors (forward path samplers
/// like Panther).
enum class SampleDirection : uint8_t {
  kIn = 0,
  kOut = 1,
};

/// Per-graph O(1) weighted neighbor sampler: one Walker/Vose alias
/// table per node over that node's neighbor-weight distribution,
/// packed into CSR-style flat arrays (a single contiguous `prob` +
/// `alias` slot buffer plus per-node offsets — no per-node vectors, no
/// pointer chasing). Every weighted walk generator (WalkIndex::Build,
/// DynamicWalkIndex, Panther) draws its steps through one of these.
///
/// Uniform fast path: a node whose neighbor weights are all (bitwise)
/// equal needs no table — its slot range is empty and Sample() falls
/// back to Rng::NextIndex(degree). On the paper's graphs most relations
/// carry unit weights, so the packed buffers typically hold tables only
/// for the genuinely skewed nodes.
///
/// Construction is O(|V| + |E|): a serial offset pass (uniformity
/// detection + prefix sum) followed by a parallel table-fill pass on
/// the shared ThreadPool. Each node's table is a pure function of its
/// own weight row and rows are written into disjoint slot ranges, so
/// the built index is bit-identical for every thread count
/// (Fingerprint()-pinned, like the parallel SingleSourceIndex::Build).
///
/// The index borrows nothing from the Hin after Build returns; the
/// graph may be destroyed independently.
class NodeSamplerIndex {
 public:
  NodeSamplerIndex() = default;

  /// Builds alias tables for every node's `direction`-neighbor weight
  /// distribution. `pool == nullptr` builds serially; the result is
  /// identical either way.
  static NodeSamplerIndex Build(const Hin& graph, SampleDirection direction,
                                const ThreadPool* pool = nullptr);

  /// Draws a neighbor position in [0, degree(v)) proportionally to the
  /// neighbor weights. O(1): one bounded-integer draw plus (for
  /// non-uniform nodes) one uniform double and two slot reads. `v` must
  /// have at least one neighbor in the sampled direction.
  size_t Sample(NodeId v, Rng& rng) const {
    uint32_t d = degree_[v];
    SEMSIM_DCHECK(d > 0);
    size_t base = offsets_[v];
    if (offsets_[v + 1] == base) {
      // Uniform fast path: no table materialized for this node.
      return rng.NextIndex(d);
    }
    size_t local = rng.NextIndex(d);
    size_t slot = base + local;
    return rng.NextDouble() < prob_[slot]
               ? local
               : static_cast<size_t>(alias_[slot]);
  }

  /// True when `v` has a materialized (non-uniform) alias table.
  bool HasTable(NodeId v) const { return offsets_[v + 1] != offsets_[v]; }

  /// Degree of `v` in the sampled direction.
  uint32_t degree(NodeId v) const { return degree_[v]; }

  size_t num_nodes() const { return degree_.size(); }
  SampleDirection direction() const { return direction_; }

  /// Nodes with >= 1 neighbor whose weights were uniform (they take the
  /// NextIndex fast path and occupy no table slots).
  size_t uniform_nodes() const { return uniform_nodes_; }

  /// Bytes held by the packed sampler arrays (offsets + degrees +
  /// prob/alias slots) — the number behind the
  /// `semsim_node_sampler_table_bytes` gauge.
  size_t TableBytes() const {
    return offsets_.size() * sizeof(uint64_t) +
           degree_.size() * sizeof(uint32_t) +
           prob_.size() * sizeof(double) + alias_.size() * sizeof(uint32_t);
  }

  /// Wall-clock seconds Build took.
  double build_seconds() const { return build_seconds_; }

  /// FNV-1a over every packed array — the cross-thread-count
  /// determinism pin: Build with any ThreadPool must reproduce the
  /// serial fingerprint exactly.
  uint64_t Fingerprint() const;

 private:
  SampleDirection direction_ = SampleDirection::kIn;
  std::vector<uint64_t> offsets_;  // n + 1 slot offsets; empty range = uniform
  std::vector<uint32_t> degree_;   // n, degree in the sampled direction
  std::vector<double> prob_;       // packed per-slot acceptance probability
  std::vector<uint32_t> alias_;    // packed per-slot alias (local position)
  size_t uniform_nodes_ = 0;
  double build_seconds_ = 0;
};

}  // namespace semsim

#endif  // SEMSIM_GRAPH_NODE_SAMPLER_H_
