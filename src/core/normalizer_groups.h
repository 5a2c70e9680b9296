#ifndef SEMSIM_CORE_NORMALIZER_GROUPS_H_
#define SEMSIM_CORE_NORMALIZER_GROUPS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/hin.h"
#include "graph/types.h"
#include "taxonomy/flat_semantic_table.h"

namespace semsim {

/// Exact SO normalizers in group-pair time for the four LCA-based
/// measures (Lin, Resnik, Wu–Palmer, Path; DESIGN.md §7). The normalizer
///
///   SO(u,v) = Σ_{a∈In(u), b∈In(v)} w_a·w_b·sem(a,b)
///
/// costs d_u·d_v measure calls as written. For nodes a, b with distinct
/// concepts, each of these measures is a function of LCA(c_a, c_b) and
/// one scalar per concept (IC or depth). The LCA of two distinct leaves
/// equals the LCA of their parents, and the LCA of a leaf and an
/// internal concept x equals LCA(parent(leaf), x). So leaves that share
/// (parent, IC, depth) form one *group*: any member stands for the
/// whole group against every other group. Internal concepts, and a
/// root that is a leaf, are singleton groups. With W_g the summed
/// weight of the in-edges into group g,
///
///   SO = Σ_{g∈G_u, h∈G_v} W^u_g·W^v_h·S(g,h)
///      + Σ_c w^u_c·w^v_c·(1 − S(g_c,g_c)),
///
/// where S(g,h) is sem of one member of each group, S(g,g) is sem of two
/// members with distinct concepts (1 when g has only one concept), and
/// the correction runs over the concepts present on both sides that
/// belong to a group with several concepts (two nodes of one concept
/// have sem 1, not S(g,g)).
///
/// Layout: per node, the (group, W) list of In(u) in first-appearance
/// order of the in-CSR, and the (concept, w) correction list sorted by
/// concept, both in offset-array CSR form like TransitionTable; per
/// group, one representative node. The lists have a fixed order, so
/// Sum() is a bit-exact function of its (ordered) arguments.
///
/// S itself is a dense G×G table of doubles, computed once by Build
/// through the measure, when there are at most kMaxTableGroups groups
/// (the AMiner-10k and Amazon-3k serving graphs have 125 and 186). It
/// holds the value of every sem(a,b) between nodes of distinct
/// concepts, so with a per-node (concept, group) column NodeSim answers
/// any sem(a,b) with one table read and no LCA query. Above the cap only
/// the diagonal S(g,g) is kept, and off-diagonal S(g,h) is evaluated
/// through the measure per call. Both forms give the same bits.
///
/// Immutable after Build and safe to share read-only across threads.
class NormalizerGroups {
 public:
  /// One group of In(u) with the summed weight of u's in-edges into it.
  struct GroupWeight {
    uint32_t group;
    double weight;
  };
  /// One concept of In(u) whose group holds several concepts, with the
  /// summed weight of u's in-edges into it.
  struct ConceptWeight {
    ConceptId concept_id;
    uint32_t group;
    double weight;
  };

  NormalizerGroups() = default;

  /// The most groups for which Build tabulates S: 1024² doubles are
  /// 8 MiB.
  static constexpr size_t kMaxTableGroups = 1024;

  /// Groups the concepts of `semantics` and aggregates every
  /// in-neighbourhood of `graph` (whose nodes `semantics` must cover).
  /// `sim` is the measure the normalizers will be summed under; it is
  /// called once per group with several concepts, for S(g,g), and, when
  /// there are at most kMaxTableGroups groups, once per ordered pair of
  /// distinct groups, for the S table. Reads the taxonomy through
  /// semantics.source(), which must be alive.
  /// O(|V| + |E| + |C| log |C| + G²).
  static NormalizerGroups Build(
      const Hin& graph, const FlatSemanticTable& semantics,
      const std::function<double(NodeId, NodeId)>& sim) {
    return BuildForTesting(graph, semantics, sim, kMaxTableGroups);
  }
  /// Build with another group cap, so a test can compare the table with
  /// the per-call evaluation on one instance.
  static NormalizerGroups BuildForTesting(
      const Hin& graph, const FlatSemanticTable& semantics,
      const std::function<double(NodeId, NodeId)>& sim,
      size_t max_table_groups);

  /// SO(lo, hi) under `sem`, the same measure Build was given. Agrees
  /// with the d_lo·d_hi loop up to summation order. `sem` is called only
  /// when there is no table. When `work` is not null it receives
  /// Work(lo, hi).
  template <typename Sem>
  double Sum(const Sem& sem, NodeId lo, NodeId hi,
             uint64_t* work = nullptr) const {
    if (has_table()) {
      const double* table = table_.data();
      const size_t stride = num_groups();
      return SumOver(
          [&](uint32_t g, uint32_t h) { return table[g * stride + h]; }, lo,
          hi, work);
    }
    return SumOver(
        [&](uint32_t g, uint32_t h) {
          return g == h ? self_sim_[g]
                        : sem.Sim(representative_[g], representative_[h]);
        },
        lo, hi, work);
  }

  /// sem(a, b) under the measure Build was given, from the table: 1 when
  /// a and b map to one concept, else S(g_a, g_b). Bit-identical to the
  /// measure for nodes of the graph. Requires has_table().
  double NodeSim(NodeId a, NodeId b) const {
    const NodeGroup x = node_groups_[a];
    const NodeGroup y = node_groups_[b];
    return x.concept_id == y.concept_id
               ? 1.0
               : table_[x.group * num_groups() + y.group];
  }

  /// Whether S is tabulated (at most kMaxTableGroups groups).
  bool has_table() const { return !table_.empty(); }
  size_t num_groups() const { return representative_.size(); }

  /// The work Sum(·, lo, hi) does: g_lo·g_hi group pairs plus the
  /// correction-list entries the same-concept merge reads.
  uint64_t Work(NodeId lo, NodeId hi) const {
    return static_cast<uint64_t>(Groups(lo).size()) * Groups(hi).size() +
           MergeCorrections(Corrections(lo), Corrections(hi),
                            [](const ConceptWeight&, const ConceptWeight&) {});
  }

  /// In(u) by group, in first-appearance order of the in-CSR.
  std::span<const GroupWeight> Groups(NodeId u) const {
    return {group_weights_.data() + group_offsets_[u],
            group_offsets_[u + 1] - group_offsets_[u]};
  }
  /// The concepts of In(u) that belong to groups of several concepts,
  /// sorted by concept.
  std::span<const ConceptWeight> Corrections(NodeId u) const {
    return {corrections_.data() + correction_offsets_[u],
            correction_offsets_[u + 1] - correction_offsets_[u]};
  }

  /// The node that stands for `group` in S(g,h).
  NodeId representative(uint32_t group) const {
    return representative_[group];
  }
  /// The group of concept `c`; ~0 when no node maps to `c`.
  uint32_t group_of(ConceptId c) const { return concept_group_[c]; }
  /// S(g,g): sem of two members with distinct concepts, 1 for a group
  /// of one concept.
  double self_sim(uint32_t group) const {
    return has_table() ? table_[group * num_groups() + group]
                       : self_sim_[group];
  }

  size_t MemoryBytes() const {
    return (group_offsets_.size() + correction_offsets_.size()) *
               sizeof(size_t) +
           group_weights_.size() * sizeof(GroupWeight) +
           corrections_.size() * sizeof(ConceptWeight) +
           concept_group_.size() * sizeof(uint32_t) +
           representative_.size() * sizeof(NodeId) +
           node_groups_.size() * sizeof(NodeGroup) +
           (table_.size() + self_sim_.size()) * sizeof(double);
  }

 private:
  /// The concept of a node and that concept's group.
  struct NodeGroup {
    ConceptId concept_id;
    uint32_t group;
  };

  /// Sum() over S given as group_sim(g, h).
  template <typename GroupSim>
  double SumOver(const GroupSim& group_sim, NodeId lo, NodeId hi,
                 uint64_t* work) const {
    double norm = 0;
    for (const GroupWeight& a : Groups(lo)) {
      for (const GroupWeight& b : Groups(hi)) {
        norm += a.weight * b.weight * group_sim(a.group, b.group);
      }
    }
    const uint64_t probes = MergeCorrections(
        Corrections(lo), Corrections(hi),
        [&](const ConceptWeight& x, const ConceptWeight& y) {
          norm += x.weight * y.weight * (1.0 - group_sim(x.group, x.group));
        });
    if (work != nullptr) {
      *work = static_cast<uint64_t>(Groups(lo).size()) * Groups(hi).size() +
              probes;
    }
    return norm;
  }

  /// Calls on_match(x_c, y_c) for every concept c on both sorted lists,
  /// in ascending concept order, and returns the entries it read. When
  /// one list is at least 8× longer than the other, each entry of the
  /// short list gallops through the long one (O(s·log(l/s)) reads);
  /// otherwise the lists are merged linearly.
  template <typename OnMatch>
  static uint64_t MergeCorrections(std::span<const ConceptWeight> x,
                                   std::span<const ConceptWeight> y,
                                   OnMatch&& on_match) {
    uint64_t probes = 0;
    if (x.size() >= kGallopRatio * y.size() ||
        y.size() >= kGallopRatio * x.size()) {
      const bool x_short = x.size() <= y.size();
      std::span<const ConceptWeight> small = x_short ? x : y;
      std::span<const ConceptWeight> large = x_short ? y : x;
      size_t j = 0;
      for (const ConceptWeight& e : small) {
        j = Gallop(large, j, e.concept_id, &probes);
        if (j == large.size()) break;
        if (large[j].concept_id == e.concept_id) {
          if (x_short) {
            on_match(e, large[j]);
          } else {
            on_match(large[j], e);
          }
          ++j;
        }
      }
      return probes;
    }
    size_t i = 0;
    size_t j = 0;
    while (i < x.size() && j < y.size()) {
      ++probes;
      if (x[i].concept_id < y[j].concept_id) {
        ++i;
      } else if (y[j].concept_id < x[i].concept_id) {
        ++j;
      } else {
        on_match(x[i], y[j]);
        ++i;
        ++j;
      }
    }
    return probes;
  }

  /// The first index k >= from with list[k].concept_id >= c (or
  /// list.size()): probes from, from+1, from+3, from+7, ... until an
  /// entry reaches c, then binary-searches the last bracket. Adds the
  /// entries read to *probes.
  static size_t Gallop(std::span<const ConceptWeight> list, size_t from,
                       ConceptId c, uint64_t* probes) {
    size_t lo = from;  // every entry in [from, lo) is below c
    size_t hi = list.size();
    for (size_t step = 1;; step *= 2) {
      const size_t at = from + step - 1;
      if (at >= list.size()) break;
      ++*probes;
      if (list[at].concept_id >= c) {
        hi = at;
        break;
      }
      lo = at + 1;
    }
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      ++*probes;
      if (list[mid].concept_id < c) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  static constexpr size_t kGallopRatio = 8;

  std::vector<size_t> group_offsets_;  // per node, into group_weights_
  std::vector<GroupWeight> group_weights_;
  std::vector<size_t> correction_offsets_;  // per node, into corrections_
  std::vector<ConceptWeight> corrections_;
  std::vector<uint32_t> concept_group_;  // per concept
  std::vector<NodeId> representative_;   // per group
  std::vector<NodeGroup> node_groups_;   // per node
  // S row-major, G×G; empty above kMaxTableGroups.
  std::vector<double> table_;
  // S(g,g) per group; empty when table_ holds the diagonal.
  std::vector<double> self_sim_;
};

/// Semantic policy for the estimator loops (like kernels::VirtualSem)
/// when the groups tabulate S: every sem(a, b) is NodeSim, one table
/// read.
struct GroupTableSem {
  const NormalizerGroups* groups;
  double Sim(NodeId a, NodeId b) const { return groups->NodeSim(a, b); }
};

}  // namespace semsim

#endif  // SEMSIM_CORE_NORMALIZER_GROUPS_H_
