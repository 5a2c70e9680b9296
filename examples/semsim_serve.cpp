// Serving quick-start: the deadline-aware QueryService façade.
//
// Builds a generated AMiner network, wraps a BatchQueryEngine in a
// QueryService, and walks through the serving contract in-process:
//
//   1. an async pair batch with no deadline — resolved through a
//      Future, bit-identical to the direct engine call;
//   2. a single-source sweep with a generous deadline — completes at
//      full walk budget;
//   3. the same pair batch with an impossible deadline — the service
//      degrades the walk budget to fit, reporting the effective budget
//      and the widened error band instead of failing;
//   4. the same again with degradation disabled — fails upfront with
//      DeadlineExceeded;
//   5. a live reload — a rebuilt EngineSnapshot is published through
//      the SnapshotManager while the service keeps answering; no
//      restart, no failed query, and every response reports the
//      snapshot version that served it.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/semsim_serve
#include <chrono>
#include <cstdio>
#include <iostream>

#include "core/batch_engine.h"
#include "core/engine_snapshot.h"
#include "core/walk_index.h"
#include "datasets/aminer_gen.h"
#include "serving/query_service.h"
#include "serving/snapshot_manager.h"
#include "taxonomy/semantic_measure.h"

int main() {
  using namespace semsim;

  AminerOptions gen;
  gen.num_authors = 300;
  gen.seed = 7;
  Result<Dataset> dataset_result = GenerateAminer(gen);
  if (!dataset_result.ok()) {
    std::cerr << dataset_result.status() << "\n";
    return 1;
  }
  Dataset dataset = std::move(dataset_result).value();
  std::printf("AMiner network: %zu nodes, %zu edges\n",
              dataset.graph.num_nodes(), dataset.graph.num_edges());

  LinMeasure lin(&dataset.context);
  WalkIndex index =
      WalkIndex::Build(dataset.graph, WalkIndexOptions{150, 10, 11, false});

  EngineSnapshotOptions snap_opt;
  snap_opt.query.mc = SemSimMcOptions{0.6, 0.05};
  BatchQueryEngine engine =
      BatchQueryEngine::CreateFromSnapshot(
          EngineSnapshot::Create(Unowned(&dataset.graph), Unowned(&lin),
                                 Unowned(&index), snap_opt, 0)
              .value(),
          /*num_threads=*/2)
          .value();

  // A pessimistic cost prior makes step 3's degradation deterministic in
  // a demo; production leaves the default and lets the service learn
  // real costs from completed requests.
  //
  // Binding the service to a SnapshotManager (instead of the bare
  // engine) enables step 5's live reload: each request resolves the
  // published snapshot once and is served wholly by that version.
  SnapshotManager manager =
      SnapshotManager::Create(engine.snapshot()).value();
  QueryServiceOptions sopt;
  sopt.initial_seconds_per_item_walk = 1e-3;
  QueryService service =
      QueryService::Create(&engine, &manager, sopt).value();

  std::vector<NodePair> pairs;
  Rng rng(42);
  for (int i = 0; i < 64; ++i) {
    pairs.push_back(
        NodePair{static_cast<NodeId>(rng.NextIndex(dataset.graph.num_nodes())),
                 static_cast<NodeId>(rng.NextIndex(dataset.graph.num_nodes()))});
  }

  // --- 1. Async pair batch, no deadline. ---
  QueryRequest req;
  req.kind = QueryRequestKind::kPairs;
  req.pairs = pairs;
  Future<QueryResponse> future = service.Submit(req);
  // ... the caller is free to do other work here ...
  QueryResponse resp = future.Take();
  std::printf("\n[1] pair batch: %s, %zu scores, budget %d/%d walks, "
              "band ±%.3f (queue %.2fms + run %.2fms)\n",
              resp.status.ToString().c_str(), resp.scores.size(),
              resp.effective_walk_budget, resp.full_walk_budget,
              resp.error_band, resp.queue_seconds * 1e3,
              resp.run_seconds * 1e3);
  bool identical = resp.scores == engine.QueryBatch(pairs).values;
  std::printf("    bit-identical to the direct engine call: %s\n",
              identical ? "yes" : "NO");

  // --- 2. Single-source sweep under a generous deadline. ---
  QueryRequest sweep;
  sweep.kind = QueryRequestKind::kSingleSource;
  sweep.sources = {0, 1, 2};
  sweep.timeout = std::chrono::seconds(30);
  resp = service.Submit(sweep).Take();
  std::printf("[2] sweep with 30s deadline: %s, %zu rows, degraded=%s\n",
              resp.status.ToString().c_str(), resp.rows.size(),
              resp.degraded ? "yes" : "no");

  // --- 3. Impossible deadline: degrade instead of failing. ---
  req.timeout = std::chrono::milliseconds(50);
  resp = service.Submit(req).Take();
  std::printf("[3] same batch, 50ms deadline: %s, degraded=%s, "
              "budget %d/%d walks, band ±%.3f\n",
              resp.status.ToString().c_str(), resp.degraded ? "yes" : "no",
              resp.effective_walk_budget, resp.full_walk_budget,
              resp.error_band);

  // --- 4. Same deadline, degradation disabled. ---
  req.allow_degradation = false;
  resp = service.Submit(req).Take();
  std::printf("[4] degradation disabled: %s\n",
              resp.status.ToString().c_str());

  // --- 5. Live reload: publish a rebuilt snapshot, no restart. ---
  // Rebuild the walk index with a fresh sampling seed (stand-in for any
  // offline refresh: new data, new walk budget, remapped artifact) and
  // publish it. The build runs off-thread; the swap itself is one
  // atomic pointer exchange, so in-flight and future requests never
  // block on it.
  QueryRequest again;
  again.kind = QueryRequestKind::kPairs;
  again.pairs = pairs;
  resp = service.Submit(again).Take();
  uint64_t version_before = resp.snapshot_version;
  std::vector<double> scores_before = resp.scores;

  Future<Status> publish =
      manager.PublishAsync([&]() -> Result<EngineSnapshotPtr> {
        WalkIndexOptions walks = engine.snapshot()->walk_index().options();
        walks.seed += 1;
        return EngineSnapshot::Build(Unowned(&dataset.graph),
                                     Unowned<SemanticMeasure>(&lin), walks,
                                     engine.snapshot()->options(),
                                     manager.NextVersion());
      });
  Status published = publish.Take();
  resp = service.Submit(again).Take();
  std::printf("[5] live reload: publish %s, snapshot v%llu -> v%llu, "
              "%zu scores, scores changed: %s\n",
              published.ToString().c_str(),
              static_cast<unsigned long long>(version_before),
              static_cast<unsigned long long>(resp.snapshot_version),
              resp.scores.size(),
              resp.scores == scores_before ? "no" : "yes (resampled walks)");

  service.Shutdown();
  return 0;
}
