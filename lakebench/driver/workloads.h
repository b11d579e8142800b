#ifndef LAKEBENCH_DRIVER_WORKLOADS_H_
#define LAKEBENCH_DRIVER_WORKLOADS_H_

// The four benchmark workloads. Each one generates its lake and its
// operation schedule from the seed alone, builds only the modalities its
// traffic (and that traffic's brownout fallbacks) uses, serves the
// schedule through LakeFind's public API, and checks its answers.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "loadgen.h"
#include "trace.h"

namespace lakebench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Scratch directory inside the checkout (WAL and snapshot files).
  std::string work_dir;
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of a correctness gate.
struct Gate {
  std::string name;
  bool passed = true;
  uint64_t checked = 0;
  std::string detail;  // first failure, when !passed
};

struct RunResult {
  std::vector<Metric> metrics;
  std::vector<Gate> gates;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first failure messages
  /// Why the run is invalid (generator fell behind, pool exhausted, too
  /// few samples for a reported quantile); empty when valid.
  std::vector<std::string> invalid;
  /// Workload facts worth recording (lake shape, modalities, policies).
  std::vector<std::pair<std::string, std::string>> facts;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Fact(std::string key, std::string value) {
    facts.emplace_back(std::move(key), std::move(value));
  }
  bool correct() const {
    for (const Gate& g : gates) {
      if (!g.passed) return false;
    }
    return true;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the lake and every input pool from the seed.
  virtual void Generate(uint64_t seed) = 0;

  /// The seeded operation sequence of the warm-up phase (`measured` false)
  /// or of the measured phase. Pool indices never overlap between the two.
  virtual std::vector<Op> Schedule(bool measured, double seconds) const = 0;

  /// Canonical one-line description of an operation's full input (family,
  /// due time and a digest of the request or written bytes), for the
  /// byte-identical schedule check.
  virtual std::string Describe(const Op& op) const = 0;

  /// Builds the serving stack from the in-memory inputs; timed as setup_s.
  virtual void Setup(const RunConfig& config) = 0;
  virtual void Teardown() = 0;

  /// Serves one phase. `measured` enables answer sampling for the gates.
  virtual LoadLog Serve(const std::vector<Op>& ops, double seconds,
                        bool measured) = 0;

  /// Correctness gates and quality metrics over the measured phase's
  /// sampled answers (and, for writes, the final state).
  virtual void Check(RunResult* result) = 0;

  /// Registry-derived per-layer samples after a loaded phase.
  virtual void RecordRegistry(TraceRecorder* trace) = 0;

  /// Serial replay of sampled operations with a span around every layer
  /// call.
  virtual void Replay(const std::vector<Op>& sample, TraceRecorder* trace) = 0;

  /// Lake shape, modalities and policies, recorded with every result.
  virtual void Facts(RunResult* result) const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// CPUs this process may run on (what `nproc` prints); the service's
/// worker count and the closed-loop window.
size_t Nproc();

}  // namespace lakebench

#endif  // LAKEBENCH_DRIVER_WORKLOADS_H_
