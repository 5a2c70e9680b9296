#ifndef SEMSIM_SEMSIM_H_
#define SEMSIM_SEMSIM_H_

/// Umbrella header: the full public API of the SemSim library in one
/// include. Fine-grained headers remain available for build-time-
/// sensitive users; this is the convenient front door for applications
/// (see examples/).
///
/// Layering (see DESIGN.md):
///   common/    error model, RNG, stats
///   graph/     the HIN substrate
///   taxonomy/  concept taxonomies, IC, LCA, semantic measures
///   core/      SemSim itself: exact solvers, G²/G²_θ, MC estimators,
///              indexes, query engines
///   serving/   deadline-aware async query service over the batch engine
///   baselines/ every competitor of the paper's evaluation
///   datasets/  synthetic benchmark generators + serialization
///   eval/      task protocols and metrics

#include "common/cancel.h"    // IWYU pragma: export
#include "common/future.h"    // IWYU pragma: export
#include "common/result.h"    // IWYU pragma: export
#include "common/rng.h"       // IWYU pragma: export
#include "common/stats.h"     // IWYU pragma: export
#include "common/status.h"    // IWYU pragma: export

#include "graph/graph_io.h"          // IWYU pragma: export
#include "graph/hin.h"               // IWYU pragma: export
#include "graph/transition_table.h"  // IWYU pragma: export

#include "taxonomy/ic.h"                   // IWYU pragma: export
#include "taxonomy/lca.h"                  // IWYU pragma: export
#include "taxonomy/semantic_context.h"     // IWYU pragma: export
#include "taxonomy/semantic_measure.h"     // IWYU pragma: export
#include "taxonomy/taxonomy.h"             // IWYU pragma: export

#include "core/batch_engine.h"        // IWYU pragma: export
#include "core/dynamic_walk_index.h"  // IWYU pragma: export
#include "core/engine_snapshot.h"     // IWYU pragma: export
#include "core/iterative.h"           // IWYU pragma: export
#include "core/mc_kernels.h"          // IWYU pragma: export
#include "core/mc_semsim.h"           // IWYU pragma: export
#include "core/mc_simrank.h"          // IWYU pragma: export
#include "core/pair_graph.h"          // IWYU pragma: export
#include "core/reduced_pair_graph.h"  // IWYU pragma: export
#include "core/single_source.h"       // IWYU pragma: export
#include "core/topk.h"                // IWYU pragma: export
#include "core/walk_index.h"          // IWYU pragma: export

#include "serving/admission_queue.h"   // IWYU pragma: export
#include "serving/query_service.h"     // IWYU pragma: export
#include "serving/snapshot_manager.h"  // IWYU pragma: export

#include "baselines/hetesim.h"        // IWYU pragma: export
#include "baselines/line.h"           // IWYU pragma: export
#include "baselines/panther.h"        // IWYU pragma: export
#include "baselines/pathsim.h"        // IWYU pragma: export
#include "baselines/prank.h"          // IWYU pragma: export
#include "baselines/relatedness.h"    // IWYU pragma: export
#include "baselines/similarity_fn.h"  // IWYU pragma: export
#include "baselines/simrankpp.h"      // IWYU pragma: export

#include "datasets/aminer_gen.h"     // IWYU pragma: export
#include "datasets/amazon_gen.h"     // IWYU pragma: export
#include "datasets/dataset.h"        // IWYU pragma: export
#include "datasets/dataset_io.h"     // IWYU pragma: export
#include "datasets/figure1.h"        // IWYU pragma: export
#include "datasets/wikipedia_gen.h"  // IWYU pragma: export
#include "datasets/wordnet_gen.h"    // IWYU pragma: export

#include "eval/baseline_suite.h"  // IWYU pragma: export
#include "eval/clustering.h"      // IWYU pragma: export
#include "eval/tasks.h"           // IWYU pragma: export

#endif  // SEMSIM_SEMSIM_H_
