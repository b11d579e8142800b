#include "approx_quality.h"

#include <algorithm>
#include <cmath>

namespace lake::approx {

namespace {

/// Upper-tail standard normal quantile z_alpha for the supported levels.
double NormalQuantile(double alpha) {
  return alpha <= 0.01 ? 2.326 : 1.645;  // 99% : 95%
}

/// Wilson–Hilferty approximation to the chi-square upper quantile with k
/// degrees of freedom: k * (1 - 2/(9k) + z * sqrt(2/(9k)))^3.
double ChiSquareCritical(size_t dof, double alpha) {
  const double k = static_cast<double>(dof);
  const double z = NormalQuantile(alpha);
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * t * t * t;
}

}  // namespace

QualityCheck ChiSquareUniformity(const std::vector<uint64_t>& hashes,
                                 size_t bins, double alpha) {
  QualityCheck check;
  check.n = hashes.size();
  if (bins < 2 || hashes.empty()) return check;
  std::vector<size_t> counts(bins, 0);
  // Bin by the hash's high bits: bin = floor(h / 2^64 * bins), computed
  // without 128-bit arithmetic by scaling the top 53 bits.
  for (uint64_t h : hashes) {
    const double u =
        static_cast<double>(h >> 11) / 9007199254740992.0;  // [0, 1)
    size_t b = static_cast<size_t>(u * static_cast<double>(bins));
    if (b >= bins) b = bins - 1;
    ++counts[b];
  }
  const double expected =
      static_cast<double>(hashes.size()) / static_cast<double>(bins);
  double x2 = 0;
  for (size_t c : counts) {
    const double d = static_cast<double>(c) - expected;
    x2 += d * d / expected;
  }
  check.statistic = x2;
  check.critical_value = ChiSquareCritical(bins - 1, alpha);
  check.passed = x2 <= check.critical_value;
  return check;
}

QualityCheck KolmogorovSmirnovUniform(const std::vector<uint64_t>& hashes,
                                      double alpha) {
  QualityCheck check;
  check.n = hashes.size();
  if (hashes.empty()) return check;
  std::vector<uint64_t> sorted = hashes;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double d_max = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const double u =
        static_cast<double>(sorted[i] >> 11) / 9007199254740992.0;
    const double d_plus = (static_cast<double>(i) + 1.0) / n - u;
    const double d_minus = u - static_cast<double>(i) / n;
    d_max = std::max({d_max, d_plus, d_minus});
  }
  check.statistic = d_max;
  const double c = alpha <= 0.01 ? 1.628 : 1.358;
  check.critical_value = c / std::sqrt(n);
  check.passed = d_max <= check.critical_value;
  return check;
}

}  // namespace lake::approx
