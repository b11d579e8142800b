#ifndef LAKE_APPROX_VERIFIER_H_
#define LAKE_APPROX_VERIFIER_H_

#include <cstddef>
#include <cstdint>

#include "approx/estimator.h"
#include "util/cancel.h"
#include "util/status.h"

namespace lake::approx {

/// Per-query work accounting for the approximate tier, threaded from the
/// estimator loops up to the serving layer's approx.* metrics.
struct ApproxQueryStats {
  /// Estimator invocations (one interval computed per invocation).
  size_t estimates = 0;
  /// Candidates settled by exact verification because their interval still
  /// straddled the decision threshold at the widest sample.
  size_t exact_fallbacks = 0;
  /// Candidates settled by interval alone (accepted or rejected).
  size_t interval_decisions = 0;
  /// Sample-doubling rounds across all candidates.
  size_t rounds = 0;
  /// Sum / max of final interval widths (exact fallbacks count as 0).
  double sum_width = 0;
  double max_width = 0;
  /// Sum of final per-candidate sample sizes (mean = sum / decisions).
  size_t sum_sample_size = 0;

  void Merge(const ApproxQueryStats& other) {
    estimates += other.estimates;
    exact_fallbacks += other.exact_fallbacks;
    interval_decisions += other.interval_decisions;
    rounds += other.rounds;
    sum_width += other.sum_width;
    if (other.max_width > max_width) max_width = other.max_width;
    sum_sample_size += other.sum_sample_size;
  }
  size_t decisions() const { return interval_decisions + exact_fallbacks; }
};

/// Accept/reject decision for one candidate column against a containment
/// threshold, with the evidence that settled it.
struct Verdict {
  bool accepted = false;
  /// True when exact verification (not the interval) decided.
  bool exact = false;
  /// Final estimate; for exact verdicts lo == hi == the exact value.
  IntervalEstimate estimate;
  size_t rounds = 0;
};

/// Decides "is containment(Q, C) >= threshold?" from interval estimates,
/// escalating the sample size only as far as the decision needs:
///
///   1. Estimate at `min_sample`; if [lo, hi] clears the threshold on
///      either side, decide immediately.
///   2. While the interval straddles the threshold, double the sample
///      (prefixes of the estimator's stored bottom-k, so doubling costs
///      one more estimate, never a re-sampling pass).
///   3. At `max_sample`, if the interval still straddles, fall back to
///      exact verification (the subsystem invariant: an approximate
///      answer is never allowed to decide a threshold its interval
///      straddles).
///
/// Failpoints: `approx.sample` is hit once per estimate round and
/// `approx.verify` before each exact fallback, so chaos schedules can
/// inject hangs or errors into both phases.
class AdaptiveVerifier {
 public:
  struct Options {
    size_t min_sample = 64;
    /// Doubling ceiling; clamped to the estimator's stored sample width.
    size_t max_sample = 1024;
    /// Per-decision error budget delta: the interval covers the truth with
    /// probability >= 1 - delta, so an interval-decided verdict is wrong
    /// with probability <= delta.
    double error_budget = 0.1;
    /// Allow exact fallback; when false a straddling interval returns an
    /// unsettled verdict (accepted = point >= threshold, exact = false)
    /// rather than computing the exact value — bench-only escape hatch.
    bool exact_fallback = true;
  };

  explicit AdaptiveVerifier(const ApproxEstimator* estimator)
      : AdaptiveVerifier(estimator, Options{}) {}
  AdaptiveVerifier(const ApproxEstimator* estimator, Options options);

  /// Verifies containment(Q, column `index`) >= threshold. `query` must
  /// come from the estimator's QuerySet. Fails only on injected faults or
  /// cancellation.
  Result<Verdict> VerifyContainment(const HashedSet& query, size_t index,
                                    double threshold,
                                    ApproxQueryStats* stats = nullptr,
                                    const CancelToken* cancel = nullptr) const;

  const Options& options() const { return options_; }
  const ApproxEstimator& estimator() const { return *estimator_; }

 private:
  const ApproxEstimator* estimator_;
  Options options_;
};

}  // namespace lake::approx

#endif  // LAKE_APPROX_VERIFIER_H_
