#include "serve/route.h"

#include <iterator>

namespace lake::serve {

namespace {

/// The brownout budget check compares the remaining deadline against this
/// quantile of the primary's exec latency, once it has enough samples.
constexpr double kBrownoutQuantile = 0.95;
constexpr uint64_t kBrownoutMinSamples = 32;

// Method names by enum value, in declaration order.
constexpr const char* kJoinMethodNames[] = {
    "exact_jaccard", "exact_containment", "lsh_ensemble",
    "josie",         "pexeso",            "approx"};
constexpr const char* kUnionMethodNames[] = {"tus", "santos", "starmie",
                                             "d3l"};
static_assert(std::size(kJoinMethodNames) ==
              static_cast<size_t>(JoinMethod::kApprox) + 1);
static_assert(std::size(kUnionMethodNames) ==
              static_cast<size_t>(UnionMethod::kD3l) + 1);

Tier MakeTier(QueryKind kind, JoinMethod join_method,
              UnionMethod union_method) {
  return Tier{join_method, union_method,
              ModalityNameFor(kind, join_method, union_method)};
}

/// The survey's accuracy/latency pairs: the expensive high-recall method
/// falls back to the cheap sketch/embedding-average alternative.
std::optional<Tier> FallbackOf(QueryKind kind, const Tier& primary,
                               const DiscoveryEngine::Options& built) {
  if (kind == QueryKind::kUnion &&
      primary.union_method == UnionMethod::kStarmie && built.build_tus) {
    return MakeTier(kind, primary.join_method, UnionMethod::kTus);
  }
  if (kind == QueryKind::kJoin && primary.join_method == JoinMethod::kJosie) {
    // The sampling tier is the preferred brownout for exact top-k overlap:
    // same ranking measure, an interval on every answer, and exact
    // fallback only where the interval cannot settle the top-k. The LSH
    // sketch tier remains for engines built without it.
    if (built.build_approx) {
      return MakeTier(kind, JoinMethod::kApprox, primary.union_method);
    }
    if (built.build_lsh_join) {
      return MakeTier(kind, JoinMethod::kLshEnsemble, primary.union_method);
    }
  }
  // kApprox itself is the floor of the join tier ladder: no fallback.
  return std::nullopt;
}

}  // namespace

std::string ModalityNameFor(QueryKind kind, JoinMethod join_method,
                            UnionMethod union_method) {
  switch (kind) {
    case QueryKind::kKeyword:
      return "keyword";
    case QueryKind::kCorrelated:
      return "correlated";
    case QueryKind::kJoin:
      return std::string("join.") +
             kJoinMethodNames[static_cast<size_t>(join_method)];
    case QueryKind::kUnion:
      return std::string("union.") +
             kUnionMethodNames[static_cast<size_t>(union_method)];
  }
  return "unknown";
}

RoutePlan Route(const QueryRequest& request,
                const DiscoveryEngine::Options& built, bool brownout,
                RouteSignals* signals) {
  using Start = RoutePlan::Start;
  using Permit = CircuitBreaker::Permit;

  // Approximate-tier routing: approx_ok lets a join use the sampling tier
  // when the snapshot built it; require_exact_method pins the request.
  const bool to_approx = request.kind == QueryKind::kJoin &&
                         request.approx_ok && !request.require_exact_method &&
                         built.build_approx;
  RoutePlan plan;
  plan.primary = MakeTier(
      request.kind, to_approx ? JoinMethod::kApprox : request.join_method,
      request.union_method);
  if (brownout && !request.require_exact_method) {
    plan.fallback = FallbackOf(request.kind, plan.primary, built);
  }
  if (signals == nullptr) return plan;

  plan.permit = signals->Permit(plan.primary.modality);
  if (plan.permit == Permit::kDenied) {
    plan.start = plan.fallback ? Start::kFallbackOnly : Start::kUnavailable;
    return plan;
  }
  // Budget brownout, only from the closed state (a granted half-open probe
  // must execute the primary so the breaker can learn): when the remaining
  // deadline budget is below the method's tracked upper quantile, don't
  // even start the expensive method.
  if (plan.permit == Permit::kAllowed && plan.fallback) {
    const std::optional<std::chrono::nanoseconds> budget = signals->Budget();
    if (budget) {
      const LatencyHistogram& hist =
          signals->ExecLatency(plan.primary.modality);
      if (hist.count() >= kBrownoutMinSamples &&
          std::chrono::duration<double, std::micro>(*budget).count() <
              hist.Percentile(kBrownoutQuantile)) {
        plan.start = Start::kFallback;
      }
    }
  }
  return plan;
}

}  // namespace lake::serve
