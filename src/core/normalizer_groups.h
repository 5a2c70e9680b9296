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
/// group, one representative node and S(g,g). The lists have a fixed
/// order, so Sum() is a bit-exact function of its (ordered) arguments.
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

  /// Groups the concepts of `semantics` and aggregates every
  /// in-neighbourhood of `graph` (whose nodes `semantics` must cover).
  /// `sim` is the measure the normalizers will be summed under; it is
  /// called once per group with several concepts, for S(g,g). Reads the
  /// taxonomy through semantics.source(), which must be alive.
  /// O(|V| + |E| + |C| log |C|).
  static NormalizerGroups Build(
      const Hin& graph, const FlatSemanticTable& semantics,
      const std::function<double(NodeId, NodeId)>& sim);

  /// SO(lo, hi) under `sem`, the same measure Build was given. Agrees
  /// with the d_lo·d_hi loop up to summation order. When `work` is not
  /// null it receives Work(lo, hi).
  template <typename Sem>
  double Sum(const Sem& sem, NodeId lo, NodeId hi,
             uint64_t* work = nullptr) const {
    double norm = 0;
    for (const GroupWeight& a : Groups(lo)) {
      for (const GroupWeight& b : Groups(hi)) {
        const double s = a.group == b.group
                             ? self_sim_[a.group]
                             : sem.Sim(representative_[a.group],
                                       representative_[b.group]);
        norm += a.weight * b.weight * s;
      }
    }
    const uint64_t probes = MergeCorrections(
        Corrections(lo), Corrections(hi),
        [&](const ConceptWeight& x, const ConceptWeight& y) {
          norm += x.weight * y.weight * (1.0 - self_sim_[x.group]);
        });
    if (work != nullptr) {
      *work = static_cast<uint64_t>(Groups(lo).size()) * Groups(hi).size() +
              probes;
    }
    return norm;
  }

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
  double self_sim(uint32_t group) const { return self_sim_[group]; }

  size_t MemoryBytes() const {
    return (group_offsets_.size() + correction_offsets_.size()) *
               sizeof(size_t) +
           group_weights_.size() * sizeof(GroupWeight) +
           corrections_.size() * sizeof(ConceptWeight) +
           concept_group_.size() * sizeof(uint32_t) +
           representative_.size() * sizeof(NodeId) +
           self_sim_.size() * sizeof(double);
  }

 private:
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
  std::vector<double> self_sim_;         // per group
};

}  // namespace semsim

#endif  // SEMSIM_CORE_NORMALIZER_GROUPS_H_
