#ifndef SEMSIM_TESTING_STAT_CHECK_H_
#define SEMSIM_TESTING_STAT_CHECK_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/topk.h"
#include "graph/types.h"

namespace semsim {
namespace testing {

/// Statistical assertion utilities for the differential harness
/// (DESIGN.md §9). Every tolerance here is derived from an explicit
/// per-check false-positive budget `delta`, so the harness's overall
/// flake probability on *fresh* seeds is the sum of the deltas of the
/// checks it ran (CI runs a fixed seed list and is fully deterministic
/// regardless).

/// Hoeffding deviation bound: a mean of `num_samples` i.i.d. samples
/// supported on an interval of width `range` stays within the returned
/// epsilon of its expectation except with probability `delta`.
///   eps = range * sqrt(log(2/delta) / (2 n))
double HoeffdingEpsilon(int num_samples, double range, double delta);

/// Two-sided normal quantile: |N(0,1)| exceeds the returned z with
/// probability `delta` (Acklam's rational approximation; |error| < 1e-8
/// over the deltas the harness uses).
double NormalQuantile(double delta);

/// CLT deviation bound: z(delta) * sample_std / sqrt(n). Preferred over
/// Hoeffding when the per-sample range is loose but the empirical
/// variance is small (the IS estimator's usual regime).
double CltEpsilon(int num_samples, double sample_std, double delta);

/// Mean and (unbiased, n-1) standard deviation of `samples`.
struct SampleMoments {
  double mean = 0;
  double std_dev = 0;
};
SampleMoments ComputeMoments(std::span<const double> samples);

/// The tolerance band CheckWithinStatBand grants an estimate built
/// from `samples`: epsilon = max(clt, hoeffding) + bias_slack, with the
/// CLT term over the samples' empirical std and Hoeffding over
/// [0, range].
struct StatBand {
  int n = 0;
  double std_dev = 0;
  double clt = 0;
  double hoeffding = 0;
  double epsilon = 0;
};
StatBand ComputeStatBand(std::span<const double> samples, double range,
                         double delta, double bias_slack);

/// Checks |estimate - reference| <= ComputeStatBand(...).epsilon, the
/// band above with the CLT term over the empirical std of `samples`
/// (the per-walk contributions behind `estimate`).
/// Returns "" when the check passes, else a diagnostic naming both the
/// deviation and the band that rejected it.
///
/// `bias_slack` absorbs the known deterministic gaps between estimator
/// and reference (walk truncation, finite oracle iterations, pruning —
/// see DifferentialBias in differential.h).
std::string CheckWithinStatBand(double estimate, double reference,
                                std::span<const double> samples, double range,
                                double delta, double bias_slack,
                                const std::string& what);

/// Structural top-k check: `topk` must equal the exact top-k extraction
/// from `scores` (score descending, node id ascending, query excluded) —
/// node ids AND score bits. Returns "" or a diagnostic.
std::string CheckTopKMatchesScores(const std::vector<Scored>& topk,
                                   std::span<const double> scores,
                                   NodeId query, size_t k,
                                   const std::string& what);

/// Statistical rank agreement of an MC top-k against the exact oracle
/// row: every selected node's oracle score must be at least the oracle's
/// k-th best minus `tolerance` (an MC top-k may swap near-ties within
/// the noise band, but must never promote a node that is worse than the
/// true k-th by more than the band). Returns "" or a diagnostic.
std::string CheckTopKRankAgreement(const std::vector<Scored>& topk,
                                   std::span<const double> oracle_row,
                                   NodeId query, double tolerance,
                                   const std::string& what);

}  // namespace testing
}  // namespace semsim

#endif  // SEMSIM_TESTING_STAT_CHECK_H_
