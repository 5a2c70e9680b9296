#ifndef SERVEBENCH_LIB_REPLAY_H_
#define SERVEBENCH_LIB_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch_engine.h"
#include "core/engine_snapshot.h"
#include "serving/query_service.h"

namespace servebench {

/// One served answer kept for the correctness replay: what was asked,
/// which snapshot version answered, and the values the client received.
struct Recorded {
  uint64_t request_index = 0;
  semsim::QueryRequest request;
  uint64_t version = 0;
  std::vector<double> scores;                    // kPairs
  std::vector<std::vector<semsim::Scored>> topk;  // kTopK
};

/// Outcome of the correctness checks of one run.
struct CheckReport {
  size_t replayed = 0;
  size_t mismatches = 0;        // replay not bit-identical to the response
  size_t invalid_scores = 0;    // NaN, infinite or negative
  size_t unknown_versions = 0;  // served by a version nobody published
  std::string first_error;

  bool ok() const {
    return mismatches == 0 && invalid_scores == 0 && unknown_versions == 0;
  }
  void Fail(size_t* counter, const std::string& what);
};

/// Range audit of the scores of OK responses.
struct ScoreAudit {
  size_t scores = 0;
  size_t invalid = 0;     // NaN, infinite or negative: garbage
  size_t above_one = 0;   // finite but > 1: outside the paper's [0,1]
  double max_score = 0;

  void Add(const semsim::QueryResponse& response);
};

/// Re-runs `rec.request` directly through `engine` on `snap` at the
/// snapshot's full walk budget and returns it as a Recorded.
Recorded Recompute(const semsim::BatchQueryEngine& engine,
                   const semsim::EngineSnapshot& snap,
                   const Recorded& rec);

/// True when `a` and `b` carry bit-identical values.
bool BitIdentical(const Recorded& a, const Recorded& b);

/// Replays every entry of `sample` served by `snap`'s version and
/// counts the ones that differ from what the client received.
void ReplayOn(const semsim::BatchQueryEngine& engine,
              const semsim::EngineSnapshot& snap,
              const std::vector<Recorded>& sample, CheckReport* report);

/// FNV-1a over the values of `answers` (score bits, top-k ids and score
/// bits), in order: changes whenever any answer changes.
uint64_t AnswersFingerprint(const std::vector<Recorded>& answers);

}  // namespace servebench

#endif  // SERVEBENCH_LIB_REPLAY_H_
