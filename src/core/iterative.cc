#include "core/iterative.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.h"

namespace semsim {

namespace {

// One R_{k+1}(u,v) update (Eq. 3). Returns 0 when either in-neighborhood
// is empty, as the paper defines.
double UpdateEntry(const Hin& g, const ScoreMatrix& prev, NodeId u, NodeId v,
                   const IterativeOptions& opt) {
  auto in_u = g.InNeighbors(u);
  auto in_v = g.InNeighbors(v);
  if (in_u.empty() || in_v.empty()) return 0.0;
  double num = 0.0;
  double den = 0.0;
  for (const Neighbor& a : in_u) {
    const double* row = prev.Row(a.node);
    double wa = opt.use_weights ? a.weight : 1.0;
    for (const Neighbor& b : in_v) {
      if (opt.restrict_same_edge_label && a.edge_label != b.edge_label) {
        continue;
      }
      double w = wa * (opt.use_weights ? b.weight : 1.0);
      num += row[b.node] * w;
      den += opt.semantic ? w * opt.semantic->Sim(a.node, b.node) : w;
    }
  }
  if (den <= 0) return 0.0;
  double sem_uv = opt.semantic ? opt.semantic->Sim(u, v) : 1.0;
  return sem_uv * opt.decay * num / den;
}

// Precomputes the iteration-invariant normalizers N_{u,v} (and the
// sem(u,v)·c prefactor) for the partial-sums path. Entries are 0 for
// pairs with an empty in-neighborhood (their score is defined as 0).
ScoreMatrix PrecomputeNormalizers(const Hin& graph,
                                  const IterativeOptions& opt,
                                  const ThreadPool& runner) {
  size_t n = graph.num_nodes();
  ScoreMatrix norm(n);
  runner.ParallelFor(0, n, [&](size_t row_begin, size_t row_end) {
    for (NodeId u = static_cast<NodeId>(row_begin); u < row_end; ++u) {
      auto in_u = graph.InNeighbors(u);
      if (in_u.empty()) continue;
      for (NodeId v = 0; v < u; ++v) {
        auto in_v = graph.InNeighbors(v);
        if (in_v.empty()) continue;
        double den = 0;
        for (const Neighbor& a : in_u) {
          double wa = opt.use_weights ? a.weight : 1.0;
          for (const Neighbor& b : in_v) {
            double w = wa * (opt.use_weights ? b.weight : 1.0);
            den += opt.semantic ? w * opt.semantic->Sim(a.node, b.node) : w;
          }
        }
        norm.set_lower(u, v, den);
      }
    }
  });
  norm.SymmetrizeFromLower();
  return norm;
}

// One iteration sweep with the partial-sums factorization: for each row
// u, PS_u(b) = Σ_{a∈I(u)} W_a·R_k(a,b) is built once (O(d·n)) and every
// entry (u,v) then costs O(d).
void PartialSumsSweep(const Hin& graph, const IterativeOptions& opt,
                      const ScoreMatrix& normalizers,
                      const ScoreMatrix& current, ScoreMatrix* next,
                      const ThreadPool& runner) {
  size_t n = graph.num_nodes();
  runner.ParallelFor(0, n, [&](size_t row_begin, size_t row_end) {
    std::vector<double> partial(n);
    for (NodeId u = static_cast<NodeId>(row_begin); u < row_end; ++u) {
      auto in_u = graph.InNeighbors(u);
      if (in_u.empty()) continue;
      std::fill(partial.begin(), partial.end(), 0.0);
      for (const Neighbor& a : in_u) {
        double wa = opt.use_weights ? a.weight : 1.0;
        const double* row = current.Row(a.node);
        for (NodeId b = 0; b < n; ++b) partial[b] += wa * row[b];
      }
      for (NodeId v = 0; v < u; ++v) {
        double den = normalizers.at(u, v);
        if (den <= 0) continue;
        double num = 0;
        for (const Neighbor& b : graph.InNeighbors(v)) {
          num += (opt.use_weights ? b.weight : 1.0) * partial[b.node];
        }
        double sem_uv = opt.semantic ? opt.semantic->Sim(u, v) : 1.0;
        next->set_lower(u, v, sem_uv * opt.decay * num / den);
      }
    }
  });
}

}  // namespace

Result<ScoreMatrix> ComputeIterativeScores(
    const Hin& graph, const IterativeOptions& options,
    std::vector<IterationDelta>* trace) {
  if (!(options.decay > 0 && options.decay < 1)) {
    return Status::InvalidArgument("decay factor must lie in (0,1)");
  }
  if (options.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be >= 0");
  }
  size_t n = graph.num_nodes();
  ScoreMatrix current(n);
  for (NodeId v = 0; v < n; ++v) current.set(v, v, 1.0);  // R_0 (Eq. 2)
  if (trace) trace->clear();

  ThreadPool runner(options.num_threads);
  bool partial_sums =
      options.use_partial_sums && !options.restrict_same_edge_label;
  ScoreMatrix normalizers;
  if (partial_sums) {
    normalizers = PrecomputeNormalizers(graph, options, runner);
  }
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    ScoreMatrix next(n);
    for (NodeId v = 0; v < n; ++v) next.set(v, v, 1.0);
    if (partial_sums) {
      PartialSumsSweep(graph, options, normalizers, current, &next, runner);
    } else {
      runner.ParallelFor(0, n, [&](size_t row_begin, size_t row_end) {
        for (NodeId u = static_cast<NodeId>(row_begin); u < row_end; ++u) {
          for (NodeId v = 0; v < u; ++v) {
            next.set_lower(u, v, UpdateEntry(graph, current, u, v, options));
          }
        }
      });
    }
    next.SymmetrizeFromLower();
    IterationDelta delta{iter, next.MeanAbsDifference(current),
                         next.MeanRelDifference(current),
                         next.MaxAbsDifference(current)};
    if (trace) trace->push_back(delta);
    current = std::move(next);
    if (options.tolerance > 0 && delta.max_abs_diff < options.tolerance) break;
  }
  return current;
}

Result<ScoreMatrix> ComputeSimRank(const Hin& graph, double decay,
                                   int iterations,
                                   std::vector<IterationDelta>* trace) {
  IterativeOptions opt;
  opt.decay = decay;
  opt.max_iterations = iterations;
  opt.use_weights = false;
  opt.semantic = nullptr;
  opt.use_partial_sums = true;
  return ComputeIterativeScores(graph, opt, trace);
}

Result<ScoreMatrix> ComputeSemSim(const Hin& graph,
                                  const SemanticMeasure& semantic,
                                  double decay, int iterations,
                                  std::vector<IterationDelta>* trace) {
  IterativeOptions opt;
  opt.decay = decay;
  opt.max_iterations = iterations;
  opt.use_weights = true;
  opt.semantic = &semantic;
  opt.use_partial_sums = true;
  return ComputeIterativeScores(graph, opt, trace);
}

double ComputeDecayUpperBound(const Hin& graph,
                              const SemanticMeasure& semantic) {
  size_t n = graph.num_nodes();
  double min_norm = 1.0;
  for (NodeId u = 0; u < n; ++u) {
    auto in_u = graph.InNeighbors(u);
    if (in_u.empty()) continue;
    for (NodeId v = 0; v <= u; ++v) {
      auto in_v = graph.InNeighbors(v);
      if (in_v.empty()) continue;
      double norm = 0;
      for (const Neighbor& a : in_u) {
        for (const Neighbor& b : in_v) {
          norm += a.weight * b.weight * semantic.Sim(a.node, b.node);
        }
      }
      min_norm = std::min(min_norm, norm);
    }
  }
  return min_norm;
}

}  // namespace semsim
