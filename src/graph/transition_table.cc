#include "graph/transition_table.h"

#include "common/metrics.h"

namespace semsim {

namespace {

size_t RoundUpPow2(size_t x) {
  size_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

TransitionTable TransitionTable::Build(const Hin& graph) {
  SEMSIM_TRACE_SPAN("semsim_graph_transition_table_build");
  TransitionTable table;
  size_t n = graph.num_nodes();
  table.group_offsets_.assign(n + 1, 0);

  // Pass 1: collapse parallel-edge runs. The in-CSR is sorted by source
  // node, so each run is contiguous; weights are accumulated in CSR
  // order to match Hin::InEdgeInfo bit-for-bit.
  for (NodeId v = 0; v < n; ++v) {
    auto in = graph.InNeighbors(v);
    size_t indeg = in.size();
    size_t i = 0;
    while (i < indeg) {
      Group g;
      g.from = in[i].node;
      while (i < indeg && in[i].node == g.from) {
        g.total_weight += in[i].weight;
        ++g.multiplicity;
        ++i;
      }
      // The exact divisions a per-step InEdgeInfo lookup would need,
      // paid once here instead (see the bit-exactness note in the header).
      g.q_uniform = static_cast<double>(g.multiplicity) /
                    static_cast<double>(indeg);
      g.q_weighted = g.total_weight / graph.TotalInWeight(v);
      table.groups_.push_back(g);
    }
    table.group_offsets_[v + 1] = table.groups_.size();
  }

  // Pass 2: the O(1) offset map. Sized to a load factor of at most 1/2
  // so linear probes stay short.
  size_t slots = RoundUpPow2(table.groups_.size() * 2 + 1);
  table.map_keys_.assign(slots, kEmptyKey);
  table.map_vals_.assign(slots, 0);
  table.map_mask_ = slots - 1;
  for (NodeId v = 0; v < n; ++v) {
    for (size_t g = table.group_offsets_[v]; g < table.group_offsets_[v + 1];
         ++g) {
      uint64_t key = PackKey(v, table.groups_[g].from);
      size_t pos = Mix(key) & table.map_mask_;
      while (table.map_keys_[pos] != kEmptyKey) {
        pos = (pos + 1) & table.map_mask_;
      }
      table.map_keys_[pos] = key;
      table.map_vals_[pos] = static_cast<uint32_t>(g);
    }
  }
  return table;
}

}  // namespace semsim
