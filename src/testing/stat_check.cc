#include "testing/stat_check.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace semsim {
namespace testing {

double HoeffdingEpsilon(int num_samples, double range, double delta) {
  SEMSIM_CHECK(num_samples > 0 && range >= 0 && delta > 0 && delta < 1);
  return range * std::sqrt(std::log(2.0 / delta) /
                           (2.0 * static_cast<double>(num_samples)));
}

double NormalQuantile(double delta) {
  SEMSIM_CHECK(delta > 0 && delta < 1);
  // Two-sided: find z with P(|N| > z) = delta, i.e. the (1 - delta/2)
  // quantile. Acklam's rational approximation of the inverse normal CDF.
  double p = 1.0 - delta / 2.0;
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double q, r, z;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    z = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    q = p - 0.5;
    r = q * q;
    z = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    z = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  return z;
}

double CltEpsilon(int num_samples, double sample_std, double delta) {
  SEMSIM_CHECK(num_samples > 0 && sample_std >= 0);
  return NormalQuantile(delta) * sample_std /
         std::sqrt(static_cast<double>(num_samples));
}

SampleMoments ComputeMoments(std::span<const double> samples) {
  SampleMoments m;
  if (samples.empty()) return m;
  double sum = 0;
  for (double s : samples) sum += s;
  m.mean = sum / static_cast<double>(samples.size());
  if (samples.size() < 2) return m;
  double ss = 0;
  for (double s : samples) ss += (s - m.mean) * (s - m.mean);
  m.std_dev = std::sqrt(ss / static_cast<double>(samples.size() - 1));
  return m;
}

StatBand ComputeStatBand(std::span<const double> samples, double range,
                         double delta, double bias_slack) {
  SampleMoments m = ComputeMoments(samples);
  StatBand band;
  band.n = static_cast<int>(samples.size());
  band.std_dev = m.std_dev;
  band.clt = band.n > 1 ? CltEpsilon(band.n, m.std_dev, delta) : 0.0;
  band.hoeffding =
      band.n > 0 ? HoeffdingEpsilon(band.n, range, delta) : range;
  // Either concentration argument suffices, so the tighter of the two
  // would be valid — but the CLT term is only asymptotic, so we grant
  // the estimator the looser band and rely on the bit-identity layer for
  // sharpness.
  band.epsilon = std::max(band.clt, band.hoeffding) + bias_slack;
  return band;
}

std::string CheckWithinStatBand(double estimate, double reference,
                                std::span<const double> samples, double range,
                                double delta, double bias_slack,
                                const std::string& what) {
  StatBand band = ComputeStatBand(samples, range, delta, bias_slack);
  double deviation = std::abs(estimate - reference);
  if (deviation <= band.epsilon) return "";
  std::ostringstream os;
  os << what << ": |estimate " << estimate << " - reference " << reference
     << "| = " << deviation << " exceeds band " << band.epsilon
     << " (clt=" << band.clt << " hoeffding=" << band.hoeffding
     << " bias=" << bias_slack << " n=" << band.n << " std=" << band.std_dev
     << " delta=" << delta << ")";
  return os.str();
}

std::string CheckTopKMatchesScores(const std::vector<Scored>& topk,
                                   std::span<const double> scores,
                                   NodeId query, size_t k,
                                   const std::string& what) {
  std::vector<Scored> want =
      CallbackTopK(scores.size(), query, k, nullptr,
                   [&](NodeId v) { return scores[v]; });
  std::ostringstream os;
  if (topk.size() != want.size()) {
    os << what << ": top-k size " << topk.size() << " != expected "
       << want.size();
    return os.str();
  }
  for (size_t i = 0; i < topk.size(); ++i) {
    if (topk[i].node != want[i].node || topk[i].score != want[i].score) {
      os << what << ": rank " << i << " is (node " << topk[i].node
         << ", score " << topk[i].score << "), expected (node "
         << want[i].node << ", score " << want[i].score << ")";
      return os.str();
    }
  }
  return "";
}

std::string CheckTopKRankAgreement(const std::vector<Scored>& topk,
                                   std::span<const double> oracle_row,
                                   NodeId query, double tolerance,
                                   const std::string& what) {
  // Exact k-th best oracle score among candidates (query excluded).
  std::vector<double> sorted;
  sorted.reserve(oracle_row.size());
  for (size_t v = 0; v < oracle_row.size(); ++v) {
    if (static_cast<NodeId>(v) != query) sorted.push_back(oracle_row[v]);
  }
  size_t k = std::min(topk.size(), sorted.size());
  if (k == 0) return "";
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(k - 1),
                   sorted.end(), std::greater<double>());
  double kth_best = sorted[k - 1];
  for (const Scored& s : topk) {
    if (oracle_row[s.node] < kth_best - tolerance) {
      std::ostringstream os;
      os << what << ": selected node " << s.node << " has oracle score "
         << oracle_row[s.node] << ", below the oracle k-th best " << kth_best
         << " by more than the tolerance " << tolerance;
      return os.str();
    }
  }
  return "";
}

}  // namespace testing
}  // namespace semsim
