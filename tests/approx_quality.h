#ifndef LAKE_TESTS_APPROX_QUALITY_H_
#define LAKE_TESTS_APPROX_QUALITY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lake::approx {

/// Outcome of one goodness-of-fit test against the uniform distribution.
/// The approximate tier's guarantees rest on value hashes being uniform on
/// [0, 2^64); these test-side checks verify that assumption on real
/// samples instead of trusting it.
struct QualityCheck {
  /// Test statistic (chi-square X^2 or KS sup-distance D_n).
  double statistic = 0;
  /// Rejection threshold at the requested significance level.
  double critical_value = 0;
  /// True when statistic <= critical_value (sample looks uniform).
  bool passed = false;
  size_t n = 0;
};

/// Pearson chi-square test that `hashes` are uniform over [0, 2^64),
/// binned into `bins` equal-width cells. The critical value at
/// significance `alpha` (supported: 0.05, 0.01) uses the Wilson–Hilferty
/// cube-root approximation to the chi-square quantile — accurate to a few
/// parts per thousand for the bin counts used here, and dependency-free.
QualityCheck ChiSquareUniformity(const std::vector<uint64_t>& hashes,
                                 size_t bins = 64, double alpha = 0.05);

/// One-sample Kolmogorov–Smirnov test that `hashes` are uniform over
/// [0, 2^64). Critical value is the large-n asymptotic c(alpha) / sqrt(n)
/// (c = 1.358 at alpha = 0.05, 1.628 at alpha = 0.01).
QualityCheck KolmogorovSmirnovUniform(const std::vector<uint64_t>& hashes,
                                      double alpha = 0.05);

}  // namespace lake::approx

#endif  // LAKE_TESTS_APPROX_QUALITY_H_
