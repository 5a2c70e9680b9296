#ifndef SEMSIM_TESTING_DIFFERENTIAL_H_
#define SEMSIM_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/mc_semsim.h"
#include "testing/random_hin.h"
#include "testing/random_taxonomy.h"

namespace semsim {
namespace testing {

/// Which SemanticMeasure a differential instance injects into every
/// engine (rotated by seed so each built-in — grouped or not — gets
/// adversarial graph/taxonomy shapes).
enum class MeasureKind {
  kLin,
  kResnik,
  kWuPalmer,
  kPath,
  kJiangConrath,  // not grouped: exercises the virtual d² fallback
  kConstant,      // sem ≡ 1: SemSim degenerates to weighted SimRank
};
const char* MeasureKindName(MeasureKind kind);

/// Fully derived description of one differential instance: generators,
/// estimator parameters, and query-set sizes. Everything is a pure
/// function of `seed` (MakeDifferentialConfig), which is what makes a
/// violation replayable from the single --seed= value.
struct DifferentialConfig {
  uint64_t seed = 1;
  RandomHinOptions hin;
  RandomTaxonomyOptions taxonomy;
  MeasureKind measure = MeasureKind::kLin;
  SemSimMcOptions mc;       // decay in (0,1); theta <= 1 - decay
  WalkIndexOptions walks;   // n_w, t, sampling seed, weighted flag
  int oracle_iterations = 24;
  int num_query_pairs = 40;   // pairs replayed through every path
  int num_sources = 5;        // single-source / top-k sweeps
  int top_k = 8;
  int threads = 3;            // the "N" of the 1-vs-N thread checks

  /// One-line summary (embedded in violation reports).
  std::string Describe() const;
};

/// Derives the full instance configuration from a seed.
DifferentialConfig MakeDifferentialConfig(uint64_t seed);

/// Runner options shared by a sweep.
struct DifferentialOptions {
  /// Per-statistical-check false-positive budget. The defaults give a
  /// whole 200-instance sweep (~10k stat checks) a false-positive
  /// probability of ~1e-5 on FRESH seeds; the CI seed list is fixed, so
  /// CI itself cannot flake.
  double delta = 1e-9;
  /// When non-empty, the first violation of an instance dumps the
  /// offending graph (SaveHin), taxonomy (SaveTaxonomy) and concept map
  /// (SaveConceptMap) under this directory as seed<N>.{hin,tax,map}.
  std::string dump_dir;
  /// Print per-instance progress to stderr.
  bool verbose = false;
  /// Self-test hook ("testing the tester"): added to the first element
  /// of the N-thread engine's batch results before comparison, so unit
  /// tests can prove a real deviation produces a violation with a usable
  /// repro line. 0 in all real runs.
  double self_test_perturbation = 0.0;
};

/// Result of one instance (or an aggregated sweep).
struct DifferentialReport {
  uint64_t seed = 0;
  int instances = 0;
  int bit_checks = 0;    // exact comparisons performed
  int stat_checks = 0;   // tolerance-band comparisons performed
  /// Check F (unpruned MC vs oracle): how many ran, and how many had a
  /// band of at least sem(u,v). The estimate is projected onto
  /// [0, sem(u,v)], so such a check passes whatever the estimate is.
  int f_checks = 0;
  int f_vacuous_checks = 0;
  /// Human-readable violations. Every entry ends with the single
  /// copy-pasteable "repro: semsim_verify --seed=<N>" command that
  /// reproduces it deterministically.
  std::vector<std::string> violations;
  /// Files written for failing instances (when dump_dir was set).
  std::vector<std::string> dumped_files;

  bool ok() const { return violations.empty(); }
  void Merge(const DifferentialReport& other);
};

/// The copy-pasteable reproduction command attached to every violation.
std::string ReproCommand(uint64_t seed);

/// Known deterministic gap between the truncated MC estimate and the
/// finite-iteration oracle. Both compute sem(u,v)·E[c^τ] restricted to
/// meetings within their horizon (walk truncation t for MC, iteration
/// count k for the oracle), so the missing probability mass is bounded
/// by c^min(t,k); θ adds the one-sided pruning error of Prop. 4.6. The
/// statistical bands of stat_check.h cover the sampling noise on top.
double DifferentialBias(double decay, int walk_length, int oracle_iterations,
                        double theta);

/// A priori upper bound on the importance weight of one coupled walk,
/// for every pair: entry u·n + v is the largest Π_j c·P_j/Q_j that a
/// walk pair from (u, v) meeting within `walk_length` steps can carry
/// (CoupledWalkScore with θ = 0), 0 on the diagonal and where no
/// meeting is reachable. A walk sample of check F is sem(u,v) times
/// such a product, so sem(u,v) times this bound is the sample range
/// Hoeffding's inequality needs; the largest *observed* sample is not,
/// since n_w walks can miss a rare heavy ratio entirely (DESIGN.md §9).
/// Computed by max-product dynamic programming over node pairs:
/// O(walk_length · Σ_{x,y} g_x·g_y) for g_x the in-edge groups of x.
std::vector<double> MaxWalkWeights(const Hin& graph,
                                   const SemanticMeasure& measure,
                                   double decay, int walk_length,
                                   bool weighted_q);

/// Generates the instance for `config` and replays the same query set
/// through the exact iterative oracle (naive and partial-sums sweeps, 1
/// and N threads), the MC estimator with and without taxonomy groups,
/// the BatchQueryEngine (1 and N threads, cold and warm
/// rounds), the single-source sweep and top-k, a serving-artifact
/// round-trip (Save, then Load and zero-copy Map, compared bit for bit
/// through the single-source stack), and the alias sampler's
/// thread-count pin — asserting bit-identity where DESIGN.md promises it
/// and Hoeffding/CLT tolerance bands where the guarantee is statistical
/// (see DESIGN.md §9 for the full check matrix).
DifferentialReport RunDifferentialInstance(const DifferentialConfig& config,
                                           const DifferentialOptions& options);

/// Runs `instances` consecutive seeds starting at `start_seed` and
/// aggregates the reports.
DifferentialReport RunDifferentialSweep(uint64_t start_seed, int instances,
                                        const DifferentialOptions& options);

}  // namespace testing
}  // namespace semsim

#endif  // SEMSIM_TESTING_DIFFERENTIAL_H_
