#ifndef LAKE_APPROX_APPROX_SEARCH_H_
#define LAKE_APPROX_APPROX_SEARCH_H_

#include <memory>
#include <string>
#include <vector>

#include "approx/estimator.h"
#include "approx/verifier.h"
#include "search/query.h"
#include "table/catalog.h"
#include "util/cancel.h"

namespace lake::approx {

/// Sampling-based approximate joinable-column search — the cheap tier of
/// the accuracy/latency knob (ROADMAP item 3, the survey's scalability
/// gap). Ranks lake columns by containment |Q ∩ C| / |Q| like the exact
/// domain search, but from bottom-k value samples with confidence
/// intervals instead of full posting-list or set scans:
///
///   1. Screen every column at `min_sample` resolution (one cheap interval
///      each).
///   2. Keep the candidates whose upper bound reaches the running k-th
///      best lower bound, at most `k * kCandidateFactor` of them: when
///      more intervals reach the boundary, the highest upper bounds stay
///      and the rest are dropped even though they could be in the top-k.
///      Below the cap, no such column is dropped (with per-interval
///      probability >= 1 - error_budget).
///   3. Double surviving candidates' sample sizes in rounds, re-tightening
///      the boundary and re-applying the cap each time.
///   4. Candidates whose interval still straddles the final top-k boundary
///      at the widest sample are settled by exact verification (the
///      subsystem invariant: no straddling interval ever decides).
///
/// Every returned result carries its interval in `why` (or the exact
/// value when fallback verified it), so approximate answers are always
/// distinguishable from exact ones downstream.
class ApproxJoinSearch {
 public:
  /// Refinement-pool cap as a multiple of k: keeps pathological lakes —
  /// every column similar — from degrading to a full exact scan, at the
  /// price of recall when more than that many columns stay in contention.
  static constexpr size_t kCandidateFactor = 8;

  struct Options {
    ApproxEstimator::Options estimator;
    /// Screening resolution (pass 1) and the doubling ceiling; the
    /// ceiling is clamped to estimator.max_sample.
    size_t min_sample = 64;
    size_t max_sample = 1024;
    /// Default per-estimate error budget when the caller passes none.
    double error_budget = 0.1;
  };

  explicit ApproxJoinSearch(const DataLakeCatalog* catalog)
      : ApproxJoinSearch(catalog, Options{}) {}
  ApproxJoinSearch(const DataLakeCatalog* catalog, Options options);

  /// Top-k columns by (approximately) largest containment of the query.
  /// `error_budget` <= 0 uses Options::error_budget. `cancel` is polled
  /// between refinement rounds. Results' `why` strings carry the interval
  /// ("~containment=0.61 ci=[0.44,0.78] n=128") or the exact fallback
  /// value ("containment=0.63 (exact fallback)").
  Result<std::vector<ColumnResult>> Search(
      const std::vector<std::string>& query_values, size_t k,
      double error_budget = -1, ApproxQueryStats* stats = nullptr,
      const CancelToken* cancel = nullptr) const;

  /// All columns whose containment clears `threshold`, each decided by the
  /// adaptive verifier (interval or exact fallback), capped at `k`.
  Result<std::vector<ColumnResult>> SearchThreshold(
      const std::vector<std::string>& query_values, double threshold,
      size_t k, double error_budget = -1, ApproxQueryStats* stats = nullptr,
      const CancelToken* cancel = nullptr) const;

  size_t num_indexed_columns() const { return estimator_.num_indexed_columns(); }
  const std::vector<ColumnRef>& indexed_columns() const {
    return estimator_.indexed_columns();
  }
  const ApproxEstimator& estimator() const { return estimator_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
  ApproxEstimator estimator_;
};

}  // namespace lake::approx

#endif  // LAKE_APPROX_APPROX_SEARCH_H_
