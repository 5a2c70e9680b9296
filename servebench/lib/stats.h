#ifndef SERVEBENCH_LIB_STATS_H_
#define SERVEBENCH_LIB_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace servebench {

/// Nearest-rank q-quantile of `values` (q in (0,1)), or nullopt when
/// fewer than `min_beyond` samples lie above its rank: a p99 needs at
/// least 1000 samples, a p50 at least 20. A tail figure read off fewer
/// samples is one outlier, not a percentile.
std::optional<double> SupportedPercentile(std::vector<double> values,
                                          double q, size_t min_beyond = 10);

/// Median (nearest rank, lower middle); 0 for an empty sample.
double Median(std::vector<double> values);

/// Linear-interpolated q-quantile of a fixed-bucket histogram delta:
/// `bounds` are inclusive upper bounds, `counts` has one more entry
/// (overflow, reported at the last bound). Used for registry histograms,
/// whose bucket edges alone would read the same on every run.
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<double>& counts, double q);

/// User + system CPU seconds of the whole process so far.
double ProcessCpuSeconds();

/// Peak resident set size of the process, in MiB.
double PeakRssMb();

}  // namespace servebench

#endif  // SERVEBENCH_LIB_STATS_H_
