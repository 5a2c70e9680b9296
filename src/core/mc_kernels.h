#ifndef SEMSIM_CORE_MC_KERNELS_H_
#define SEMSIM_CORE_MC_KERNELS_H_

#include "graph/types.h"
#include "taxonomy/semantic_context.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {

/// The query kernel an engine runs (DESIGN.md §7). There is one: the
/// transition-table edge policy, with sem(·,·) read from the
/// group-pair table whenever the measure's taxonomy groups tabulate it.
/// The enum and QueryOptions::kernel remain only because the serving
/// benchmark assigns kFlat; the next change to that benchmark removes
/// both.
enum class QueryKernel {
  kFlat,
};

namespace kernels {

/// Semantic policy for the templated estimator loops when no group-pair
/// table exists: every sem(u,v) is a virtual call. Any SemanticMeasure
/// (custom, JiangConrath, ...) runs through this, and an estimator
/// without groups is the d² oracle the grouped paths are tested
/// against. The other policy is GroupTableSem (normalizer_groups.h).
struct VirtualSem {
  const SemanticMeasure* m;
  double Sim(NodeId u, NodeId v) const { return m->Sim(u, v); }
};

/// The SemanticContext `measure` is bound to when it is one of the four
/// LCA-based built-ins (Lin, Resnik, Wu–Palmer, Path), whose
/// normalizers NormalizerGroups sums by taxonomy group; nullptr for any
/// other measure.
inline const SemanticContext* ClassifyMeasure(const SemanticMeasure* measure) {
  if (auto* m = dynamic_cast<const LinMeasure*>(measure)) return m->context();
  if (auto* m = dynamic_cast<const ResnikMeasure*>(measure)) {
    return m->context();
  }
  if (auto* m = dynamic_cast<const WuPalmerMeasure*>(measure)) {
    return m->context();
  }
  if (auto* m = dynamic_cast<const PathMeasure*>(measure)) {
    return m->context();
  }
  return nullptr;
}

}  // namespace kernels
}  // namespace semsim

#endif  // SEMSIM_CORE_MC_KERNELS_H_
