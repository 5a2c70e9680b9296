#include "core/semsim_engine.h"

#include "common/metrics.h"
#include "common/thread_pool.h"

namespace semsim {

Result<SemSimEngine> SemSimEngine::Create(const Hin* graph,
                                          const SemanticMeasure* semantic,
                                          const SemSimEngineOptions& options) {
  if (graph == nullptr || semantic == nullptr) {
    return Status::InvalidArgument("graph and semantic measure are required");
  }
  SEMSIM_TRACE_SPAN("semsim_engine_create");
  SemSimEngine engine;
  engine.options_ = options;
  EngineSnapshotOptions snap_options;
  snap_options.query = options.query;
  // The high-level engine is single-caller: no cross-query concurrent
  // caches (the SLING static cache is the paper's memory/time trade).
  snap_options.normalizer_cache_capacity = 0;
  snap_options.semantic_cache_capacity = 0;
  snap_options.cache_min_sem = options.cache_min_sem;
  snap_options.eager_single_source = options.single_source;
  // Reuse the walk-sampling thread budget for the sampler and
  // inverted-index builds; the results are bit-identical for any
  // thread count.
  ThreadPool build_pool(options.walks.num_threads);
  SEMSIM_ASSIGN_OR_RETURN(
      engine.snapshot_,
      EngineSnapshot::Build(Unowned(graph), Unowned(semantic), options.walks,
                            snap_options, /*version=*/0,
                            /*static_cache=*/nullptr, &build_pool));
  return engine;
}

std::vector<Scored> SemSimEngine::TopK(
    NodeId query, size_t k, const std::vector<NodeId>* candidates) const {
  const SingleSourceIndex* inverted = snapshot_->inverted_if_built();
  if (inverted != nullptr) {
    QueryScratch scratch;
    std::vector<double> scores;
    inverted->SemSimFromInto(query, snapshot_->estimator(), options_.query.mc,
                             scratch, scores);
    return CallbackTopK(snapshot_->graph().num_nodes(), query, k, candidates,
                        [&](NodeId v) { return scores[v]; });
  }
  return McTopK(snapshot_->estimator(), query, k, options_.query.mc,
                candidates);
}

Result<std::vector<double>> SemSimEngine::AllScores(NodeId query) const {
  const SingleSourceIndex* inverted = snapshot_->inverted_if_built();
  if (inverted == nullptr) {
    return Status::FailedPrecondition(
        "engine built without the single-source index "
        "(SemSimEngineOptions::single_source)");
  }
  QueryScratch scratch;
  std::vector<double> scores;
  inverted->SemSimFromInto(query, snapshot_->estimator(), options_.query.mc,
                           scratch, scores);
  return scores;
}

Result<double> SemSimEngine::SimilarityByName(std::string_view u,
                                              std::string_view v) const {
  SEMSIM_ASSIGN_OR_RETURN(NodeId nu, snapshot_->graph().FindNode(u));
  SEMSIM_ASSIGN_OR_RETURN(NodeId nv, snapshot_->graph().FindNode(v));
  return Similarity(nu, nv);
}

}  // namespace semsim
