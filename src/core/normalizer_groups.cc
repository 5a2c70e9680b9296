#include "core/normalizer_groups.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/metrics.h"

namespace semsim {

NormalizerGroups NormalizerGroups::BuildForTesting(
    const Hin& graph, const SemanticContext& context,
    const SemanticMeasure& measure, size_t max_table_groups) {
  SEMSIM_TRACE_SPAN("semsim_normalizer_groups_build");
  SEMSIM_CHECK(context.num_nodes() >= graph.num_nodes());
  const Taxonomy& taxonomy = context.taxonomy();
  const size_t num_nodes = graph.num_nodes();
  const size_t num_concepts = taxonomy.num_concepts();
  constexpr uint32_t kNone = ~uint32_t{0};

  // The first node of every concept some node maps to.
  std::vector<NodeId> concept_node(num_concepts, kInvalidNode);
  std::vector<ConceptId> used;
  for (NodeId v = 0; v < num_nodes; ++v) {
    ConceptId c = context.concept_of(v);
    if (concept_node[c] == kInvalidNode) {
      concept_node[c] = v;
      used.push_back(c);
    }
  }

  // Leaves (other than the root) that share (parent, IC bits, depth)
  // become adjacent under this order and form one group; every other
  // concept sorts into a run of its own.
  auto groupable = [&](ConceptId c) {
    return c != taxonomy.root() && taxonomy.IsLeaf(c);
  };
  auto same_group = [&](ConceptId a, ConceptId b) {
    return groupable(a) && groupable(b) &&
           taxonomy.parent(a) == taxonomy.parent(b) &&
           std::bit_cast<uint64_t>(context.ic(a)) ==
               std::bit_cast<uint64_t>(context.ic(b)) &&
           taxonomy.depth(a) == taxonomy.depth(b);
  };
  std::sort(used.begin(), used.end(), [&](ConceptId a, ConceptId b) {
    const bool ga = groupable(a);
    const bool gb = groupable(b);
    if (ga != gb) return ga;
    if (!ga) return a < b;
    if (taxonomy.parent(a) != taxonomy.parent(b)) {
      return taxonomy.parent(a) < taxonomy.parent(b);
    }
    const uint64_t ia = std::bit_cast<uint64_t>(context.ic(a));
    const uint64_t ib = std::bit_cast<uint64_t>(context.ic(b));
    if (ia != ib) return ia < ib;
    if (taxonomy.depth(a) != taxonomy.depth(b)) {
      return taxonomy.depth(a) < taxonomy.depth(b);
    }
    return a < b;
  });

  NormalizerGroups groups;
  groups.measure_ = &measure;
  std::vector<uint32_t>& concept_group = groups.concept_group_;
  concept_group.assign(num_concepts, kNone);
  // Groups holding several concepts: only their concepts get correction
  // entries.
  std::vector<uint8_t> multi;
  for (size_t i = 0; i < used.size(); ++i) {
    const ConceptId c = used[i];
    if (i > 0 && same_group(used[i - 1], c)) {
      const uint32_t g = concept_group[used[i - 1]];
      concept_group[c] = g;
      if (!multi[g]) {
        multi[g] = 1;
        groups.self_sim_[g] =
            measure.Sim(groups.representative_[g], concept_node[c]);
      }
      continue;
    }
    concept_group[c] = static_cast<uint32_t>(groups.representative_.size());
    groups.representative_.push_back(concept_node[c]);
    groups.self_sim_.push_back(1.0);
    multi.push_back(0);
  }

  // S as a table: row g holds sem(rep_g, rep_h) for every h, with the
  // diagonal taken over from self_sim_. Exact for any two nodes of
  // distinct concepts (see the class comment).
  const size_t num_groups = groups.representative_.size();
  if (num_groups <= max_table_groups) {
    groups.table_.resize(num_groups * num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      for (size_t h = 0; h < num_groups; ++h) {
        groups.table_[g * num_groups + h] =
            g == h ? groups.self_sim_[g]
                   : measure.Sim(groups.representative_[g],
                                 groups.representative_[h]);
      }
    }
    groups.self_sim_.clear();
    groups.self_sim_.shrink_to_fit();
  }
  groups.one_minus_self_.resize(num_groups);
  for (uint32_t g = 0; g < num_groups; ++g) {
    groups.one_minus_self_[g] = 1.0 - groups.self_sim(g);
  }
  groups.node_groups_.resize(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) {
    const ConceptId c = context.concept_of(v);
    groups.node_groups_[v] = NodeGroup{c, concept_group[c]};
  }

  // Per node: the (group, W) list in first-appearance order of the
  // in-CSR, and the (concept, w) list of multi-concept groups in the
  // same order for now. Stamps (node + 1) find a node's earlier entry
  // for a group or concept in O(1).
  std::vector<uint32_t> group_stamp(groups.representative_.size(), 0);
  std::vector<size_t> group_slot(groups.representative_.size(), 0);
  std::vector<uint32_t> concept_stamp(num_concepts, 0);
  std::vector<size_t> concept_slot(num_concepts, 0);
  std::vector<ConceptWeight> unsorted;
  std::vector<NodeId> unsorted_node;
  groups.group_offsets_.assign(num_nodes + 1, 0);
  groups.correction_offsets_.assign(num_nodes + 1, 0);
  for (NodeId u = 0; u < num_nodes; ++u) {
    const uint32_t stamp = u + 1;
    for (const Neighbor& a : graph.InNeighbors(u)) {
      const ConceptId c = context.concept_of(a.node);
      const uint32_t g = concept_group[c];
      if (group_stamp[g] != stamp) {
        group_stamp[g] = stamp;
        group_slot[g] = groups.group_weights_.size();
        groups.group_weights_.push_back(GroupWeight{g, a.weight});
      } else {
        groups.group_weights_[group_slot[g]].weight += a.weight;
      }
      if (!multi[g]) continue;
      if (concept_stamp[c] != stamp) {
        concept_stamp[c] = stamp;
        concept_slot[c] = unsorted.size();
        unsorted.push_back(ConceptWeight{c, g, a.weight});
        unsorted_node.push_back(u);
      } else {
        unsorted[concept_slot[c]].weight += a.weight;
      }
    }
    groups.group_offsets_[u + 1] = groups.group_weights_.size();
    groups.correction_offsets_[u + 1] = unsorted.size();
  }

  // Sort every correction list by concept in O(|E| + |C|): a counting
  // sort of all entries by concept, then a stable scatter back into the
  // per-node ranges, which therefore fill in ascending concept order.
  std::vector<size_t> concept_begin(num_concepts + 1, 0);
  for (const ConceptWeight& e : unsorted) ++concept_begin[e.concept_id + 1];
  for (size_t c = 0; c < num_concepts; ++c) {
    concept_begin[c + 1] += concept_begin[c];
  }
  std::vector<size_t> by_concept(unsorted.size());
  for (size_t i = 0; i < unsorted.size(); ++i) {
    by_concept[concept_begin[unsorted[i].concept_id]++] = i;
  }
  std::vector<size_t> cursor(groups.correction_offsets_.begin(),
                             groups.correction_offsets_.end() - 1);
  groups.corrections_.resize(unsorted.size());
  for (size_t i : by_concept) {
    groups.corrections_[cursor[unsorted_node[i]]++] = unsorted[i];
  }
  return groups;
}

}  // namespace semsim
