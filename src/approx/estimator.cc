#include "approx/estimator.h"

#include <algorithm>
#include <cmath>

#include "text/normalizer.h"
#include "util/gallop.h"
#include "util/hash.h"
#include "util/random.h"

namespace lake::approx {

namespace {

std::vector<std::string> NormalizedDistinct(const Column& col) {
  std::vector<std::string> out;
  for (const std::string& v : col.DistinctStrings()) {
    std::string norm = NormalizeValue(v);
    if (!norm.empty()) out.push_back(std::move(norm));
  }
  return out;
}

/// Sorted, deduplicated hashes of normalized values under `seed`.
std::vector<uint64_t> HashValues(const std::vector<std::string>& values,
                                 uint64_t seed) {
  std::vector<uint64_t> hashes;
  hashes.reserve(values.size());
  for (const std::string& v : values) hashes.push_back(Hash64(v, seed));
  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  hashes.shrink_to_fit();
  return hashes;
}

}  // namespace

double HoeffdingHalfWidth(size_t trials, double error_budget) {
  if (trials == 0) return 1.0;
  const double delta = std::clamp(error_budget, 1e-12, 1.0 - 1e-12);
  return std::sqrt(std::log(2.0 / delta) /
                   (2.0 * static_cast<double>(trials)));
}

ApproxEstimator::ApproxEstimator(const DataLakeCatalog* catalog,
                                 Options options)
    : options_(options) {
  if (options_.max_sample == 0) options_.max_sample = 1;
  // Determinism contract: the sampling seed is a forked seeded stream, so
  // every random choice in this subsystem traces back to Options::seed.
  hash_seed_ = Rng(options_.seed).Fork("approx.sample").Next();
  catalog->ForEachColumn([&](const ColumnRef& ref, const Column& col) {
    if (!options_.include_numeric && col.IsNumeric()) return;
    std::vector<uint64_t> hashes =
        HashValues(NormalizedDistinct(col), hash_seed_);
    if (hashes.size() < options_.min_distinct) return;
    refs_.push_back(ref);
    hashes_.push_back(std::move(hashes));
  });
}

HashedSet ApproxEstimator::QuerySet(
    const std::vector<std::string>& query_values) const {
  std::vector<std::string> norm;
  norm.reserve(query_values.size());
  for (const std::string& v : query_values) {
    std::string nv = NormalizeValue(v);
    if (!nv.empty()) norm.push_back(std::move(nv));
  }
  return HashedSet::FromValues(norm, hash_seed_);
}

IntervalEstimate ApproxEstimator::EstimateContainment(
    const HashedSet& query, size_t index, size_t sample_size,
    double error_budget) const {
  IntervalEstimate est;
  const std::vector<uint64_t>& column = hashes_[index];
  const std::vector<uint64_t>& q = query.hashes();
  // The stored sample is the bottom-max_sample prefix of the column.
  const size_t sample_len = std::min(options_.max_sample, column.size());
  const size_t s = std::min(std::max<size_t>(sample_size, 1), sample_len);
  est.sample_size = s;
  if (q.empty()) {
    // Empty query: containment is 0 by the engines' convention.
    est.point = est.lo = est.hi = 0;
    est.exact = true;
    return est;
  }

  // The sample is the whole column when the column has <= max_sample
  // distinct values — membership is then known for every query hash and
  // the answer is exact, not probabilistic.
  if (s == column.size()) {
    // The count gallops the smaller side through the larger, so the lake's
    // long tail of tiny columns costs O(|column| log |query|), not
    // O(|query|), and the screening pass does not re-inherit the exact
    // scan's cost.
    est.point = ExactContainment(query, index);
    est.lo = est.hi = est.point;
    est.trials = q.size();
    est.exact = true;
    return est;
  }

  // Exactly-known region: hashes strictly below tau (the s-th smallest
  // column hash). The column's hashes below tau are precisely the sample
  // prefix below tau; query hashes below tau are a uniform subsample of
  // the query.
  const uint64_t tau = column[s - 1];
  const auto q_end = std::lower_bound(q.begin(), q.end(), tau);
  const size_t trials = static_cast<size_t>(q_end - q.begin());
  est.trials = trials;
  if (trials == 0) {
    // The sample taught nothing about this query; the vacuous interval
    // straddles every threshold, which is what drives the verifier to
    // double the sample (raising tau and with it the trial count).
    est.point = 0;
    est.lo = 0;
    est.hi = 1;
    return est;
  }
  const size_t matches = SortedIntersectionSize(q.begin(), q_end,
                                                column.begin(),
                                                column.begin() + s);
  est.point = static_cast<double>(matches) / static_cast<double>(trials);
  const double hw = HoeffdingHalfWidth(trials, error_budget);
  est.lo = std::max(0.0, est.point - hw);
  est.hi = std::min(1.0, est.point + hw);
  return est;
}

double ApproxEstimator::ExactContainment(const HashedSet& query,
                                         size_t index) const {
  if (query.empty()) return 0;
  const std::vector<uint64_t>& q = query.hashes();
  const std::vector<uint64_t>& column = hashes_[index];
  const size_t matches =
      SortedIntersectionSize(q.begin(), q.end(), column.begin(), column.end());
  return static_cast<double>(matches) / static_cast<double>(q.size());
}

}  // namespace lake::approx
