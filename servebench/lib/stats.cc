#include "lib/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace servebench {

std::optional<double> SupportedPercentile(std::vector<double> values,
                                          double q, size_t min_beyond) {
  const size_t n = values.size();
  if (n == 0 || !(q > 0 && q < 1)) return std::nullopt;
  // Nearest rank: the smallest sample with at least q·n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  const size_t beyond = n - rank;
  if (beyond < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  return values[mid];
}

double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<double>& counts, double q) {
  double total = 0;
  for (double c : counts) total += c;
  if (total <= 0 || bounds.empty()) return 0;
  const double target = q * total;
  double seen = 0;
  for (size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] <= 0) continue;
    if (seen + counts[b] >= target) {
      if (b >= bounds.size()) return bounds.back();
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      const double frac = (target - seen) / counts[b];
      return lo + frac * (bounds[b] - lo);
    }
    seen += counts[b];
  }
  return bounds.back();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace servebench
