#ifndef SEMSIM_GRAPH_TRANSITION_TABLE_H_
#define SEMSIM_GRAPH_TRANSITION_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "graph/hin.h"
#include "graph/types.h"

namespace semsim {

/// Precomputed transition data over the in-adjacency of a Hin — what the
/// IS estimator reads instead of paying two per-step costs against the
/// Hin itself (see DESIGN.md §7):
///
///   1. `Hin::InEdgeInfo(v, from)` is an O(log d) binary search plus a
///      scan over parallel edges, paid twice per coupled-walk step. The
///      table collapses every (from -> v) parallel-edge run into one
///      `Group` at build time and serves it through an O(1)
///      open-addressing offset map keyed by the packed (v, from) pair.
///   2. The proposal-probability q_step divides by InDegree(v) (uniform
///      Q) or TotalInWeight(v) (weighted Q) twice per step. The table
///      stores the quotients themselves — `q_uniform` and `q_weighted`
///      per group — so a step multiplies two loads instead of dividing.
///
/// Bit-exactness: the per-group quotients are computed at build time
/// with the *same division* a per-step computation over
/// `Hin::InEdgeInfo` would perform (`multiplicity / InDegree`,
/// `total_weight / TotalInWeight`), and
/// `total_weight` accumulates parallel edges in the same CSR order as
/// `InEdgeInfo`. A kernel reading this table therefore produces values
/// bit-identical to one calling into the Hin.
///
/// The table is immutable after Build and safe to share read-only
/// across any number of query threads (proved under TSan by
/// flat_kernel_test via ci/check.sh).
class TransitionTable {
 public:
  /// One run of parallel in-edges (from -> v), collapsed.
  struct Group {
    NodeId from = kInvalidNode;
    uint32_t multiplicity = 0;
    double total_weight = 0;
    /// multiplicity / InDegree(v), the uniform-Q step probability.
    double q_uniform = 0;
    /// total_weight / TotalInWeight(v), the weighted-Q step probability.
    double q_weighted = 0;
  };

  TransitionTable() = default;

  /// Builds the table in one O(|V| + |E|) pass over the in-CSR.
  static TransitionTable Build(const Hin& graph);

  /// O(1) expected-time lookup of the in-edge group (v <- from);
  /// nullptr when no such edge exists.
  const Group* FindInGroup(NodeId v, NodeId from) const {
    uint64_t key = PackKey(v, from);
    size_t pos = Mix(key) & map_mask_;
    while (true) {
      uint64_t k = map_keys_[pos];
      if (k == key) return &groups_[map_vals_[pos]];
      if (k == kEmptyKey) return nullptr;
      pos = (pos + 1) & map_mask_;
    }
  }

  /// Like FindInGroup for an edge known to exist (the walk indexes only
  /// ever step along real in-edges).
  const Group& InGroup(NodeId v, NodeId from) const {
    const Group* g = FindInGroup(v, from);
    SEMSIM_DCHECK(g != nullptr);
    return *g;
  }

  /// All in-edge groups of v, ordered by source node (mirrors the
  /// sorted in-CSR run).
  std::span<const Group> InGroups(NodeId v) const {
    return {groups_.data() + group_offsets_[v],
            group_offsets_[v + 1] - group_offsets_[v]};
  }

  size_t num_nodes() const {
    return group_offsets_.empty() ? 0 : group_offsets_.size() - 1;
  }
  size_t num_groups() const { return groups_.size(); }

  size_t MemoryBytes() const {
    return groups_.size() * sizeof(Group) +
           group_offsets_.size() * sizeof(size_t) +
           map_keys_.size() * (sizeof(uint64_t) + sizeof(uint32_t));
  }

 private:
  static constexpr uint64_t kEmptyKey = ~0ULL;  // (kInvalidNode, kInvalidNode)

  static uint64_t PackKey(NodeId v, NodeId from) {
    return (static_cast<uint64_t>(v) << 32) | from;
  }
  // SplitMix64 finalizer (same mix as NodePairHash).
  static uint64_t Mix(uint64_t k) {
    k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ULL;
    k = (k ^ (k >> 27)) * 0x94D049BB133111EBULL;
    return k ^ (k >> 31);
  }

  std::vector<size_t> group_offsets_;  // per node, into groups_
  std::vector<Group> groups_;
  // Open-addressing offset map (linear probing, load factor <= 0.5):
  // packed (v, from) -> index into groups_. Built once, never resized.
  std::vector<uint64_t> map_keys_;
  std::vector<uint32_t> map_vals_;
  size_t map_mask_ = 0;
};

}  // namespace semsim

#endif  // SEMSIM_GRAPH_TRANSITION_TABLE_H_
