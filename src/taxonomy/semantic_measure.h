#ifndef SEMSIM_TAXONOMY_SEMANTIC_MEASURE_H_
#define SEMSIM_TAXONOMY_SEMANTIC_MEASURE_H_

#include <memory>
#include <string_view>

#include "common/rng.h"
#include "common/status.h"
#include "graph/types.h"
#include "taxonomy/semantic_context.h"

namespace semsim {

/// Pluggable semantic similarity over HIN nodes — the `sem(·,·)` of Eq. 1.
/// SemSim accepts any implementation that satisfies the paper's three
/// constraints (Sec. 2.2):
///   (1) symmetry:               sem(u,v) == sem(v,u)
///   (2) maximum self-similarity: sem(u,u) == 1
///   (3) fixed value range:       sem(u,v) in (0, 1]
/// Implementations must be cheap (O(1) after preprocessing); the MC
/// estimator calls this in its innermost d² loop.
class SemanticMeasure {
 public:
  virtual ~SemanticMeasure() = default;

  /// sem(u, v), in (0, 1].
  virtual double Sim(NodeId u, NodeId v) const = 0;

  virtual std::string_view name() const = 0;
};

/// Checks the three constraints on `samples` random node pairs (plus all
/// self-pairs among them). Returns FailedPrecondition naming the first
/// violated constraint. Run this once when injecting a custom measure.
Status ValidateSemanticMeasure(const SemanticMeasure& measure,
                               size_t num_nodes, Rng& rng,
                               int samples = 1000);

/// Lin [23] over the bound taxonomy:
///   Lin(u,v) = 2·IC(LCA(cu,cv)) / (IC(cu) + IC(cv)),
/// floored to the context's ic_floor so constraint (3) holds. The paper's
/// primary measure.
class LinMeasure : public SemanticMeasure {
 public:
  /// `ctx` must outlive the measure.
  explicit LinMeasure(const SemanticContext* ctx) : ctx_(ctx) {}

  double Sim(NodeId u, NodeId v) const override {
    if (u == v) return 1.0;
    ConceptId cu = ctx_->concept_of(u);
    ConceptId cv = ctx_->concept_of(v);
    if (cu == cv) return 1.0;
    double ic_lca = ctx_->ic(ctx_->Lca(cu, cv));
    double denom = ctx_->ic(cu) + ctx_->ic(cv);
    double value = 2.0 * ic_lca / denom;
    double floor = ctx_->ic_floor();
    return value < floor ? floor : (value > 1.0 ? 1.0 : value);
  }

  std::string_view name() const override { return "Lin"; }

  /// The bound context, whose taxonomy the estimator groups to sum SO
  /// normalizers and tabulate sem(·,·) (kernels::ClassifyMeasure).
  const SemanticContext* context() const { return ctx_; }

 private:
  const SemanticContext* ctx_;
};

/// Resnik [32]: IC of the LCA. On our (0,1]-normalized IC scale this is
/// already in range; self-pairs are forced to 1 to satisfy constraint (2)
/// (raw Resnik violates it, as the paper notes such measures may need
/// normalization).
class ResnikMeasure : public SemanticMeasure {
 public:
  explicit ResnikMeasure(const SemanticContext* ctx) : ctx_(ctx) {}

  double Sim(NodeId u, NodeId v) const override {
    if (u == v) return 1.0;
    ConceptId cu = ctx_->concept_of(u);
    ConceptId cv = ctx_->concept_of(v);
    if (cu == cv) return 1.0;
    double value = ctx_->ic(ctx_->Lca(cu, cv));
    double floor = ctx_->ic_floor();
    return value < floor ? floor : (value > 1.0 ? 1.0 : value);
  }

  std::string_view name() const override { return "Resnik"; }

  const SemanticContext* context() const { return ctx_; }

 private:
  const SemanticContext* ctx_;
};

/// Wu–Palmer: 2·depth(LCA) / (depth(cu) + depth(cv)); a depth-based
/// alternative. Root LCA (depth 0) is floored to ic_floor.
class WuPalmerMeasure : public SemanticMeasure {
 public:
  explicit WuPalmerMeasure(const SemanticContext* ctx) : ctx_(ctx) {}

  double Sim(NodeId u, NodeId v) const override {
    if (u == v) return 1.0;
    ConceptId cu = ctx_->concept_of(u);
    ConceptId cv = ctx_->concept_of(v);
    if (cu == cv) return 1.0;
    const Taxonomy& t = ctx_->taxonomy();
    double dl = t.depth(ctx_->Lca(cu, cv));
    double denom = static_cast<double>(t.depth(cu)) + t.depth(cv);
    double value = denom > 0 ? 2.0 * dl / denom : 0.0;
    double floor = ctx_->ic_floor();
    return value < floor ? floor : (value > 1.0 ? 1.0 : value);
  }

  std::string_view name() const override { return "WuPalmer"; }

  const SemanticContext* context() const { return ctx_; }

 private:
  const SemanticContext* ctx_;
};

/// Edge-counting measure (Rada et al. [31]): 1 / (1 + tree-distance).
/// Always in (0, 1] with self-similarity 1.
class PathMeasure : public SemanticMeasure {
 public:
  explicit PathMeasure(const SemanticContext* ctx) : ctx_(ctx) {}

  double Sim(NodeId u, NodeId v) const override {
    if (u == v) return 1.0;
    ConceptId cu = ctx_->concept_of(u);
    ConceptId cv = ctx_->concept_of(v);
    if (cu == cv) return 1.0;
    const Taxonomy& t = ctx_->taxonomy();
    ConceptId l = ctx_->Lca(cu, cv);
    double dist = static_cast<double>(t.depth(cu) - t.depth(l)) +
                  static_cast<double>(t.depth(cv) - t.depth(l));
    return 1.0 / (1.0 + dist);
  }

  std::string_view name() const override { return "Path"; }

  const SemanticContext* context() const { return ctx_; }

 private:
  const SemanticContext* ctx_;
};

/// Jiang–Conrath distance turned into a similarity:
///   sim(u,v) = 1 / (1 + IC(cu) + IC(cv) - 2·IC(LCA))
/// Always in (0,1] with self-similarity 1 — a fourth IC-based option.
class JiangConrathMeasure : public SemanticMeasure {
 public:
  explicit JiangConrathMeasure(const SemanticContext* ctx) : ctx_(ctx) {}

  double Sim(NodeId u, NodeId v) const override {
    if (u == v) return 1.0;
    ConceptId cu = ctx_->concept_of(u);
    ConceptId cv = ctx_->concept_of(v);
    if (cu == cv) return 1.0;
    double distance = ctx_->ic(cu) + ctx_->ic(cv) -
                      2.0 * ctx_->ic(ctx_->Lca(cu, cv));
    return 1.0 / (1.0 + (distance < 0 ? 0.0 : distance));
  }

  std::string_view name() const override { return "JiangConrath"; }

 private:
  const SemanticContext* ctx_;
};

/// The degenerate measure sem ≡ 1. Injecting it must reduce SemSim to
/// weighted SimRank — used by equivalence tests and the SimRank++ baseline.
class ConstantMeasure : public SemanticMeasure {
 public:
  double Sim(NodeId u, NodeId v) const override {
    (void)u;
    (void)v;
    return 1.0;
  }
  std::string_view name() const override { return "Constant"; }
};

}  // namespace semsim

#endif  // SEMSIM_TAXONOMY_SEMANTIC_MEASURE_H_
