#ifndef LAKE_APPROX_ESTIMATOR_H_
#define LAKE_APPROX_ESTIMATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sketch/set_ops.h"
#include "table/catalog.h"
#include "util/status.h"

namespace lake::approx {

/// One interval estimate with a distribution-free guarantee: with
/// probability >= 1 - delta (the caller's error budget), the true value
/// lies in [lo, hi]. `exact` marks degenerate intervals where the sample
/// covered the whole column (lo == hi == point, no probability involved).
/// The subsystem invariant is that every approximate answer carries one of
/// these — a consumer can always see how much it is being asked to trust.
struct IntervalEstimate {
  double point = 0;
  double lo = 0;
  double hi = 1;
  /// Bernoulli trials behind the estimate (query hashes inside the
  /// exactly-known sample region); 0 means the sample taught nothing and
  /// the interval is the vacuous [0, 1].
  size_t trials = 0;
  /// Sample-size prefix used (bottom-s hashes of the column).
  size_t sample_size = 0;
  bool exact = false;

  double width() const { return hi - lo; }
  /// True when the interval cannot decide `threshold` — the adaptive
  /// verifier's trigger for sample doubling and, ultimately, exact
  /// fallback.
  bool Straddles(double threshold) const {
    return lo < threshold && threshold <= hi;
  }
};

/// Sampling-based estimator of containment / overlap / join size between a
/// query value set and every eligible lake column, built from seeded
/// bottom-k value samples (the KMV construction from src/sketch, stored
/// wide once and consumed as prefixes).
///
/// Sampling model: every value is hashed with one shared seeded hash; a
/// column's sample is its `max_sample` smallest distinct hashes. The
/// bottom-s prefix of that sample is itself the bottom-s sketch, so one
/// stored sample serves every requested resolution — this is what makes the
/// adaptive verifier's progressive doubling free of re-sampling passes.
/// The estimator keeps each column's whole sorted hash vector (the sample
/// is its prefix), so exact fallback never goes back to the catalog.
/// For a sample prefix of size s with s-th smallest hash tau, the column's
/// hash set below tau is known *exactly*; query hashes below tau are a
/// uniform random subsample of the query (hashes are uniform), so the
/// fraction of them found in the column is a binomial estimator of
/// containment, and a Hoeffding bound gives the confidence interval:
///
///   half_width = sqrt(ln(2 / delta) / (2 * trials))
///
/// Determinism: the sampling hash seed is derived from Options::seed via
/// Rng::Fork("approx.sample") — never from clocks or random_device — so a
/// rebuilt estimator over the same catalog reproduces every interval
/// bit-for-bit (the chaos determinism contract).
class ApproxEstimator {
 public:
  struct Options {
    /// Widest stored sample per column (the verifier's doubling ceiling).
    size_t max_sample = 1024;
    /// Columns with fewer distinct values are not joinable keys (mirrors
    /// the exact engines' eligibility rule).
    size_t min_distinct = 2;
    bool include_numeric = true;
    /// Root seed; the hash seed is forked from it (tag "approx.sample").
    uint64_t seed = 0x5eedab1e;
  };

  explicit ApproxEstimator(const DataLakeCatalog* catalog)
      : ApproxEstimator(catalog, Options{}) {}
  ApproxEstimator(const DataLakeCatalog* catalog, Options options);

  /// Hashes + normalizes query values under this estimator's seed. All
  /// Estimate*/Exact* calls must use a query set built here (the sampling
  /// universe must match the column samples).
  HashedSet QuerySet(const std::vector<std::string>& query_values) const;

  /// Containment |Q ∩ C| / |Q| of the query in column `index`, from the
  /// bottom-`sample_size` prefix of the column's sample, at confidence
  /// 1 - error_budget.
  IntervalEstimate EstimateContainment(const HashedSet& query, size_t index,
                                       size_t sample_size,
                                       double error_budget) const;

  /// Exact containment of the query in column `index` (the verifier's
  /// fallback): a galloping intersection count against the column's full
  /// hash vector, O(|Q| log |C|) for the usual |Q| <= |C|.
  double ExactContainment(const HashedSet& query, size_t index) const;

  size_t num_indexed_columns() const { return refs_.size(); }
  const std::vector<ColumnRef>& indexed_columns() const { return refs_; }
  /// Exact distinct count of column `index` (profiled at build).
  size_t cardinality(size_t index) const { return hashes_[index].size(); }
  const Options& options() const { return options_; }
  uint64_t hash_seed() const { return hash_seed_; }

 private:
  Options options_;
  uint64_t hash_seed_;
  std::vector<ColumnRef> refs_;
  /// Ascending distinct hashes per column; the bottom-max_sample prefix is
  /// the sample.
  std::vector<std::vector<uint64_t>> hashes_;
};

/// Hoeffding half-width for `trials` Bernoulli trials at confidence
/// 1 - error_budget (exposed for tests and the calibration suite).
double HoeffdingHalfWidth(size_t trials, double error_budget);

}  // namespace lake::approx

#endif  // LAKE_APPROX_ESTIMATOR_H_
