#include "approx/verifier.h"

#include <algorithm>

#include "util/failpoint.h"

namespace lake::approx {

AdaptiveVerifier::AdaptiveVerifier(const ApproxEstimator* estimator,
                                   Options options)
    : estimator_(estimator), options_(options) {
  options_.min_sample = std::max<size_t>(1, options_.min_sample);
  options_.max_sample =
      std::max(options_.min_sample,
               std::min(options_.max_sample, estimator_->options().max_sample));
}

Result<Verdict> AdaptiveVerifier::VerifyContainment(
    const HashedSet& query, size_t index, double threshold,
    ApproxQueryStats* stats, const CancelToken* cancel) const {
  Verdict verdict;
  ApproxQueryStats local;
  size_t s = options_.min_sample;
  for (;;) {
    LAKE_RETURN_IF_ERROR(ExecFailpoint("approx.sample", cancel));
    if (cancel != nullptr) LAKE_RETURN_IF_ERROR(cancel->Check());
    verdict.estimate = estimator_->EstimateContainment(
        query, index, s, options_.error_budget);
    ++local.estimates;
    ++verdict.rounds;
    if (!verdict.estimate.Straddles(threshold)) break;
    // An exact degenerate interval that straddles is impossible (lo == hi
    // either clears or misses), so reaching here means more sample can
    // still help — unless we are already at the ceiling.
    if (s >= options_.max_sample || verdict.estimate.exact) {
      // Straddling at the widest sample: the interval is not allowed to
      // decide. Fall back to exact verification.
      if (options_.exact_fallback) {
        LAKE_RETURN_IF_ERROR(ExecFailpoint("approx.verify", cancel));
        if (cancel != nullptr) LAKE_RETURN_IF_ERROR(cancel->Check());
        const double exact = estimator_->ExactContainment(query, index);
        verdict.estimate.point = exact;
        verdict.estimate.lo = verdict.estimate.hi = exact;
        verdict.estimate.exact = true;
        verdict.exact = true;
        verdict.accepted = exact >= threshold;
        ++local.exact_fallbacks;
        local.rounds += verdict.rounds;
        if (stats != nullptr) stats->Merge(local);
        return verdict;
      }
      break;  // unsettled: decide on the point estimate, exact = false
    }
    s = std::min(options_.max_sample, s * 2);
  }
  // Interval-settled (or unsettled with fallback disabled): either way the
  // decision came from the sample prefix alone.
  if (!verdict.estimate.Straddles(threshold)) {
    verdict.accepted = verdict.estimate.lo >= threshold;
  } else {
    verdict.accepted = verdict.estimate.point >= threshold;
  }
  if (verdict.estimate.exact) verdict.exact = true;
  ++local.interval_decisions;
  local.rounds += verdict.rounds;
  local.sum_width += verdict.estimate.width();
  local.max_width = std::max(local.max_width, verdict.estimate.width());
  local.sum_sample_size += verdict.estimate.sample_size;
  if (stats != nullptr) stats->Merge(local);
  return verdict;
}

}  // namespace lake::approx
