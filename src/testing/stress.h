#ifndef SEMSIM_TESTING_STRESS_H_
#define SEMSIM_TESTING_STRESS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serving/query_service.h"
#include "testing/random_hin.h"

namespace semsim {
namespace testing {

/// Which adverse condition one stress instance replays against the
/// QueryService (DESIGN.md §13). Rotated by seed, so a sweep covers the
/// whole matrix.
enum class StressScenario {
  /// Closed-loop, no deadlines, no cancellation: every request must
  /// complete OK, and the whole run is executed twice — outcome counts
  /// and a fingerprint over every returned value must match bit for bit
  /// (the reproducibility half of the contract).
  kDeterministicReplay,
  /// Open-loop burst into a deliberately tiny admission queue: overload
  /// must be shed as clean kResourceExhausted rejections, never as
  /// hangs or lost futures.
  kOverloadBurst,
  /// Random deadline mix (feasible, tight, and already-expired) with a
  /// pessimistic cost prior on some seeds, driving the walk-budget
  /// degradation path hard.
  kDeadlineMix,
  /// Concurrent cancel storm: a canceller thread fires caller tokens at
  /// randomized offsets while requests queue and run.
  kCancelStorm,
  /// Shutdown() from another thread mid-stream, with producers still
  /// submitting after it lands.
  kMidflightShutdown,
  /// Armed failpoints (admission probability rejection, scheduler /
  /// dispatch / pop delays) under concurrent traffic.
  kFailpointChaos,
  /// Concurrent snapshot swaps under load: a swapper thread rebuilds
  /// the walk index (fresh sampling seed each time) and publishes it
  /// through a SnapshotManager while producers keep submitting. Every
  /// response must carry exactly one published snapshot version and
  /// replay bit-identically against an engine bound to that exact
  /// version — a torn read, a response mixing two versions, or a
  /// dropped future all fail the replay or the version check.
  kSnapshotSwapStorm,
};
const char* StressScenarioName(StressScenario scenario);

/// One scheduled operation. The schedule is a pure function of the seed
/// (BuildStressSchedule), which is what makes an instance replayable
/// from the single --seed= value: same seed, same ops, same request
/// payloads, same producer assignment.
struct StressOp {
  QueryRequestKind kind = QueryRequestKind::kPairs;
  int num_items = 1;        // pairs or sources in the request
  int k = 5;                // kTopK only
  int64_t timeout_ns = 0;   // 0 = no deadline
  bool allow_degradation = true;
  bool with_token = false;  // attach a caller-owned CancelToken
  bool cancel = false;      // the canceller thread fires this op's token
  int64_t cancel_delay_ns = 0;  // canceller offset, measured from submit
  int producer = 0;         // which producer thread issues the op
  int64_t pace_ns = 0;      // producer sleeps this long before issuing
};

/// Fully derived description of one stress instance; everything is a
/// pure function of `seed` (MakeStressConfig).
struct StressConfig {
  uint64_t seed = 1;
  StressScenario scenario = StressScenario::kDeterministicReplay;
  RandomHinOptions hin;        // small graphs; serving is under test here
  bool lin_measure = false;    // Lin over a random taxonomy vs Constant
  uint64_t taxonomy_seed = 0;
  WalkIndexOptions walks;
  int engine_threads = 2;
  QueryServiceOptions service;
  int num_ops = 32;
  int num_producers = 1;       // concurrent submit threads
  int shutdown_after_op = -1;  // kMidflightShutdown: Shutdown() once this
                               // many ops were submitted (-1 = never)
  uint64_t failpoint_seed = 0;  // kFailpointChaos probability stream
  int num_swaps = 0;            // kSnapshotSwapStorm: background publishes

  /// One-line summary (embedded in violation reports).
  std::string Describe() const;
};

/// Derives the full instance configuration from a seed.
StressConfig MakeStressConfig(uint64_t seed);

/// Derives the instance's operation schedule. Deterministic: two calls
/// with the same config return identical vectors.
std::vector<StressOp> BuildStressSchedule(const StressConfig& config);

/// FNV-1a fingerprint over every field of every op — the value
/// semsim_stress prints so bit-reproducibility of the schedule can be
/// checked across runs and machines.
uint64_t StressScheduleFingerprint(std::span<const StressOp> ops);

/// Runner options shared by a sweep.
struct StressOptions {
  /// When non-empty, the first violation of an instance dumps the
  /// schedule (one op per line) and a repro command under this
  /// directory as seed<N>.schedule / seed<N>.repro.txt.
  std::string dump_dir;
  /// Print per-instance progress to stderr.
  bool verbose = false;
  /// Ceiling on how long the runner waits for any single future before
  /// declaring it lost (a generous bound — the invariant is "resolves",
  /// not "resolves fast").
  int64_t future_wait_seconds = 120;
};

/// Outcome tally of one service run. The conservation invariant is
/// checked over exactly these buckets.
struct StressOutcome {
  size_t submitted = 0;
  size_t ok = 0;                 // status OK (degraded or not)
  size_t degraded = 0;           // subset of ok
  size_t rejected = 0;           // kResourceExhausted
  size_t cancelled = 0;          // kCancelled
  size_t deadline_exceeded = 0;  // kDeadlineExceeded
  size_t shutdown_rejected = 0;  // kFailedPrecondition
  size_t unresolved = 0;         // futures that never resolved (violation)
  size_t unexpected_status = 0;  // codes outside the allowed set (violation)
  /// FNV-1a over the bit patterns of every OK response's values, in
  /// submission order — the replay-comparison handle of the
  /// deterministic scenario.
  uint64_t value_fingerprint = 0;
};

/// Result of one instance (or an aggregated sweep).
struct StressReport {
  uint64_t seed = 0;
  int instances = 0;
  int checks = 0;  // invariant checks performed
  uint64_t schedule_fingerprint = 0;
  StressOutcome outcome;  // last run of the instance (sweeps: last seed)
  /// Human-readable violations; every entry ends with the
  /// copy-pasteable "repro: semsim_stress --seed=<N>" command.
  std::vector<std::string> violations;
  std::vector<std::string> dumped_files;

  bool ok() const { return violations.empty(); }
  void Merge(const StressReport& other);
};

/// The copy-pasteable reproduction command attached to every violation.
std::string StressReproCommand(uint64_t seed);

/// Builds the seed's fixture (random HIN, walk index, batch engine),
/// replays the schedule against a QueryService under the scenario's
/// adverse conditions, and checks the global invariants:
///   1. every submitted Future resolves (exactly-once is enforced
///      structurally — a double Promise::Set aborts);
///   2. status codes stay inside the scenario's allowed set;
///   3. conservation: ok + rejected + cancelled + deadline_exceeded +
///      shutdown_rejected == submitted;
///   4. every OK response replays bit-identically through a direct
///      BatchQueryEngine call at its reported effective walk budget,
///      and degraded pair scores stay within the summed
///      WalkBudgetErrorBand of a full-budget replay;
///   5. the service's metrics deltas match the observed outcomes;
///   6. (kDeterministicReplay) a second run of the same schedule
///      reproduces the outcome counts and the value fingerprint;
///   7. deadline-honoured: every OK response to a request with a
///      timeout has queue_seconds + run_seconds <= timeout.
/// Failpoints are disarmed on entry and exit, so instances compose.
StressReport RunStressInstance(const StressConfig& config,
                               const StressOptions& options);

/// Runs `instances` consecutive seeds starting at `start_seed` and
/// aggregates the reports.
StressReport RunStressSweep(uint64_t start_seed, int instances,
                            const StressOptions& options);

}  // namespace testing
}  // namespace semsim

#endif  // SEMSIM_TESTING_STRESS_H_
