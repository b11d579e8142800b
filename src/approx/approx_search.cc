#include "approx/approx_search.h"

#include <algorithm>
#include <cstdio>

#include "util/failpoint.h"

namespace lake::approx {

namespace {

struct Candidate {
  size_t index = 0;
  IntervalEstimate est;
};

std::string IntervalWhy(const IntervalEstimate& est) {
  char buf[96];
  if (est.exact) {
    std::snprintf(buf, sizeof(buf), "containment=%.3f (exact)", est.point);
  } else {
    std::snprintf(buf, sizeof(buf), "~containment=%.3f ci=[%.3f,%.3f] n=%zu",
                  est.point, est.lo, est.hi, est.sample_size);
  }
  return buf;
}

/// k-th largest lower bound among candidates — the provisional top-k
/// boundary. Below k candidates there is no boundary (everyone is in).
double TopKBoundary(const std::vector<Candidate>& cands, size_t k) {
  if (k == 0 || cands.size() <= k) return 0.0;
  std::vector<double> los;
  los.reserve(cands.size());
  for (const Candidate& c : cands) los.push_back(c.est.lo);
  std::nth_element(los.begin(), los.begin() + (k - 1), los.end(),
                   std::greater<double>());
  return los[k - 1];
}

}  // namespace

ApproxJoinSearch::ApproxJoinSearch(const DataLakeCatalog* catalog,
                                   Options options)
    : options_(options), estimator_(catalog, options.estimator) {
  options_.min_sample = std::max<size_t>(1, options_.min_sample);
  options_.max_sample =
      std::max(options_.min_sample,
               std::min(options_.max_sample, estimator_.options().max_sample));
  if (!(options_.error_budget > 0) || options_.error_budget >= 1) {
    options_.error_budget = 0.1;
  }
}

Result<std::vector<ColumnResult>> ApproxJoinSearch::Search(
    const std::vector<std::string>& query_values, size_t k,
    double error_budget, ApproxQueryStats* stats,
    const CancelToken* cancel) const {
  std::vector<ColumnResult> results;
  if (k == 0 || estimator_.num_indexed_columns() == 0) return results;
  const double eb = error_budget > 0 ? error_budget : options_.error_budget;
  const HashedSet query = estimator_.QuerySet(query_values);
  ApproxQueryStats local;

  // Pass 1: screen every column at the cheapest resolution. Columns whose
  // upper bound is already 0 (exact empty intersections) are discarded.
  size_t s = options_.min_sample;
  LAKE_RETURN_IF_ERROR(ExecFailpoint("approx.sample", cancel));
  std::vector<Candidate> cands;
  for (size_t i = 0; i < estimator_.num_indexed_columns(); ++i) {
    if (cancel != nullptr && ShouldCheck(i)) {
      LAKE_RETURN_IF_ERROR(cancel->Check());
    }
    Candidate c;
    c.index = i;
    c.est = estimator_.EstimateContainment(query, i, s, eb);
    ++local.estimates;
    if (c.est.hi > 0) cands.push_back(c);
  }
  ++local.rounds;

  // Refinement: drop candidates that provably miss the top-k boundary,
  // then double the sample for the survivors and re-tighten. The pool is
  // additionally capped so adversarially uniform lakes cannot force a
  // near-full rescan every round. Eviction order is by UPPER bound, not
  // point estimate: a huge column screened at the cheapest resolution may
  // have almost no trials yet (point 0, hi near 1), and it is exactly the
  // candidate that could still be in the top-k — evicting by point would
  // silently drop it (and with it the screening-pass recall guarantee).
  const size_t cap = k * kCandidateFactor;
  auto prune = [&](double boundary) {
    if (boundary > 0) {
      cands.erase(std::remove_if(cands.begin(), cands.end(),
                                 [&](const Candidate& c) {
                                   return c.est.hi < boundary;
                                 }),
                  cands.end());
    }
    if (cands.size() > cap) {
      std::sort(cands.begin(), cands.end(),
                [](const Candidate& a, const Candidate& b) {
                  if (a.est.hi != b.est.hi) return a.est.hi > b.est.hi;
                  if (a.est.point != b.est.point) return a.est.point > b.est.point;
                  return a.index < b.index;
                });
      cands.resize(cap);
    }
  };
  prune(TopKBoundary(cands, k));
  while (s < options_.max_sample && cands.size() > k) {
    s = std::min(options_.max_sample, s * 2);
    LAKE_RETURN_IF_ERROR(ExecFailpoint("approx.sample", cancel));
    if (cancel != nullptr) LAKE_RETURN_IF_ERROR(cancel->Check());
    bool any_open = false;
    for (Candidate& c : cands) {
      if (c.est.exact) continue;
      c.est = estimator_.EstimateContainment(query, c.index, s, eb);
      ++local.estimates;
      any_open = true;
    }
    ++local.rounds;
    prune(TopKBoundary(cands, k));
    if (!any_open) break;
  }

  // Settle: any candidate whose interval still straddles the final top-k
  // boundary is verified exactly — the invariant that a straddling interval
  // never decides. Everyone else is decided by their interval.
  const double boundary = TopKBoundary(cands, k);
  for (Candidate& c : cands) {
    if (!c.est.exact && c.est.Straddles(boundary)) {
      LAKE_RETURN_IF_ERROR(ExecFailpoint("approx.verify", cancel));
      if (cancel != nullptr) LAKE_RETURN_IF_ERROR(cancel->Check());
      const double exact = estimator_.ExactContainment(query, c.index);
      c.est.point = c.est.lo = c.est.hi = exact;
      c.est.exact = true;
      ++local.exact_fallbacks;
    } else {
      ++local.interval_decisions;
      local.sum_width += c.est.width();
      local.max_width = std::max(local.max_width, c.est.width());
    }
    local.sum_sample_size += c.est.sample_size;
  }

  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.est.point != b.est.point) return a.est.point > b.est.point;
              return a.index < b.index;
            });
  for (const Candidate& c : cands) {
    if (results.size() >= k) break;
    if (c.est.exact && c.est.point <= 0) continue;
    ColumnResult r;
    r.column = estimator_.indexed_columns()[c.index];
    r.score = c.est.point;
    r.why = IntervalWhy(c.est);
    results.push_back(std::move(r));
  }
  if (stats != nullptr) stats->Merge(local);
  return results;
}

Result<std::vector<ColumnResult>> ApproxJoinSearch::SearchThreshold(
    const std::vector<std::string>& query_values, double threshold, size_t k,
    double error_budget, ApproxQueryStats* stats,
    const CancelToken* cancel) const {
  std::vector<ColumnResult> results;
  if (k == 0 || estimator_.num_indexed_columns() == 0) return results;
  AdaptiveVerifier::Options vopts;
  vopts.min_sample = options_.min_sample;
  vopts.max_sample = options_.max_sample;
  vopts.error_budget = error_budget > 0 ? error_budget : options_.error_budget;
  AdaptiveVerifier verifier(&estimator_, vopts);
  const HashedSet query = estimator_.QuerySet(query_values);
  for (size_t i = 0; i < estimator_.num_indexed_columns(); ++i) {
    LAKE_ASSIGN_OR_RETURN(
        Verdict v, verifier.VerifyContainment(query, i, threshold, stats,
                                              cancel));
    if (!v.accepted) continue;
    ColumnResult r;
    r.column = estimator_.indexed_columns()[i];
    r.score = v.estimate.point;
    r.why = IntervalWhy(v.estimate);
    results.push_back(std::move(r));
  }
  std::sort(results.begin(), results.end(),
            [](const ColumnResult& a, const ColumnResult& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.column.table_id != b.column.table_id) {
                return a.column.table_id < b.column.table_id;
              }
              return a.column.column_index < b.column.column_index;
            });
  if (results.size() > k) results.resize(k);
  return results;
}

}  // namespace lake::approx
