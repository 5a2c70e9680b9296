#ifndef SEMSIM_CORE_MC_KERNELS_H_
#define SEMSIM_CORE_MC_KERNELS_H_

#include <string_view>

#include "core/concurrent_cache.h"
#include "graph/transition_table.h"
#include "graph/types.h"
#include "taxonomy/flat_semantic_table.h"
#include "taxonomy/semantic_measure.h"

namespace semsim {

/// The query kernel an engine runs (DESIGN.md §7). There is one: the
/// transition-table edge policy, with devirtualized semantics whenever
/// the measure is flattenable. The enum and QueryOptions::kernel remain
/// only because the serving benchmark assigns kFlat; the next change to
/// that benchmark removes both.
enum class QueryKernel {
  kFlat,
};

namespace kernels {

/// Semantic policy for the templated estimator loops: the virtual
/// fallback — every sem(u,v) is a virtual call. Any SemanticMeasure
/// (custom, cached, JiangConrath, ...) runs through this, and it is the
/// oracle the devirtualized Flat*Kernel policies are tested against.
struct VirtualSem {
  const SemanticMeasure* m;
  double Sim(NodeId u, NodeId v) const { return m->Sim(u, v); }
};

/// Which devirtualized semantic kernel (if any) can replace a measure.
enum class SemKind { kVirtual, kLin, kResnik, kWuPalmer, kPath };

struct SemInfo {
  SemKind kind = SemKind::kVirtual;
  /// The SemanticContext the measure is bound to (nullptr for kVirtual)
  /// — a FlatSemanticTable may only substitute for the measure when it
  /// was built from this same context.
  const SemanticContext* context = nullptr;
};

/// Detects whether `measure` is one of the four flattenable built-in
/// measures, unwrapping a CachedSemanticMeasure decorator first (the
/// flat kernels are cheaper than the cache's sharded lookup, so the
/// cache layer is bypassed entirely when devirtualizing).
inline SemInfo ClassifyMeasure(const SemanticMeasure* measure) {
  if (auto* cached = dynamic_cast<const CachedSemanticMeasure*>(measure)) {
    measure = &cached->base();
  }
  if (auto* m = dynamic_cast<const LinMeasure*>(measure)) {
    return {SemKind::kLin, m->context()};
  }
  if (auto* m = dynamic_cast<const ResnikMeasure*>(measure)) {
    return {SemKind::kResnik, m->context()};
  }
  if (auto* m = dynamic_cast<const WuPalmerMeasure*>(measure)) {
    return {SemKind::kWuPalmer, m->context()};
  }
  if (auto* m = dynamic_cast<const PathMeasure*>(measure)) {
    return {SemKind::kPath, m->context()};
  }
  return {};
}

}  // namespace kernels
}  // namespace semsim

#endif  // SEMSIM_CORE_MC_KERNELS_H_
