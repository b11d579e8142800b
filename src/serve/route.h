#ifndef LAKE_SERVE_ROUTE_H_
#define LAKE_SERVE_ROUTE_H_

#include <chrono>
#include <optional>
#include <string>

#include "search/discovery_engine.h"
#include "serve/circuit_breaker.h"
#include "serve/metrics.h"
#include "serve/query_service.h"

namespace lake::serve {

/// One concrete method a query can run on, with its modality key
/// ("union.starmie"): the name of its circuit breaker, its exec-latency
/// histogram (serve.exec.<modality>) and its failpoint site.
struct Tier {
  JoinMethod join_method = JoinMethod::kJosie;
  UnionMethod union_method = UnionMethod::kStarmie;
  std::string modality;
};

/// Modality key of (kind, method): "<kind>" or "<kind>.<method>".
std::string ModalityNameFor(QueryKind kind, JoinMethod join_method,
                            UnionMethod union_method);

/// What the service has observed about a modality at routing time. Route
/// asks for each signal at most once, and only when its decision needs it:
/// a query without a deadline never reads a latency histogram.
class RouteSignals {
 public:
  virtual ~RouteSignals() = default;
  /// The primary's breaker verdict. A kProbe claims the half-open probe
  /// slot, so its outcome must be recorded.
  virtual CircuitBreaker::Permit Permit(const std::string& modality) = 0;
  /// Remaining deadline budget; nullopt when the query has no deadline.
  virtual std::optional<std::chrono::nanoseconds> Budget() = 0;
  /// The modality's execution-latency histogram (microseconds).
  virtual const LatencyHistogram& ExecLatency(const std::string& modality) = 0;
};

/// How a query is to be served: the method it asked for after routing,
/// the cheaper surveyed method that may answer instead, and where to start.
struct RoutePlan {
  enum class Start {
    /// Run the primary; a breaker-worthy failure with budget left browns
    /// out to the fallback.
    kPrimary,
    /// The remaining budget is below the primary's p95: run the fallback,
    /// or the primary when the fallback's own breaker refuses.
    kFallback,
    /// The primary's breaker refused: run the fallback, or fail
    /// kUnavailable when the fallback's own breaker refuses too.
    kFallbackOnly,
    /// The primary's breaker refused and there is no fallback.
    kUnavailable,
  };

  Tier primary;
  std::optional<Tier> fallback;
  Start start = Start::kPrimary;
  /// The primary's breaker verdict (kAllowed when signals were absent).
  CircuitBreaker::Permit permit = CircuitBreaker::Permit::kAllowed;
};

/// The one place a request becomes a method. Pure over its inputs:
///  - approx_ok joins go to the sampling tier when `built` has it, unless
///    require_exact_method vetoes it;
///  - the brownout ladders are Starmie -> TUS and JOSIE -> approx, or
///    JOSIE -> LSH Ensemble without approx; kApprox is the floor. There is
///    no fallback when `brownout` is off or the request requires its exact
///    method;
///  - a refused primary starts on the fallback or fails kUnavailable, and
///    an allowed (not half-open probe) primary with a fallback starts on
///    the fallback when the remaining budget is below its exec-latency p95
///    over at least 32 samples.
/// Null `signals` plans the primary alone, as the cache key needs it.
RoutePlan Route(const QueryRequest& request,
                const DiscoveryEngine::Options& built, bool brownout,
                RouteSignals* signals);

}  // namespace lake::serve

#endif  // LAKE_SERVE_ROUTE_H_
