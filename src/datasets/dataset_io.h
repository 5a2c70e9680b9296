#ifndef SEMSIM_DATASETS_DATASET_IO_H_
#define SEMSIM_DATASETS_DATASET_IO_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "datasets/dataset.h"

namespace semsim {

/// Persists a full Dataset bundle into `directory` (created with any
/// missing parents; IOError when that fails) as three text files:
///   graph.hin      — the HIN (see graph/graph_io.h)
///   semantics.txt  — taxonomy (concept name, parent, IC) and the
///                    node→concept mapping
///   tasks.txt      — dataset name and task ground truth (held-out
///                    edges, duplicate pairs, relatedness judgments)
/// Everything a downstream user needs to reproduce an experiment without
/// re-running the generator.
Status SaveDataset(const Dataset& dataset, const std::string& directory);

/// Loads a bundle produced by SaveDataset.
Result<Dataset> LoadDataset(const std::string& directory);

}  // namespace semsim

#endif  // SEMSIM_DATASETS_DATASET_IO_H_
