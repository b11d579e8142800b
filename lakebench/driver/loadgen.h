#ifndef LAKEBENCH_DRIVER_LOADGEN_H_
#define LAKEBENCH_DRIVER_LOADGEN_H_

// Load generation: a seeded operation schedule and one generator loop that
// drives it either open-loop (each operation has a due time and is sent
// when due, whatever the backlog) or closed-loop (a fixed in-flight window
// is kept full). One generator is one thread.
//
// Latency of an operation counts from its due time: in an open loop a
// generator that falls behind adds its own lag to every late operation, so
// a stall is charged to the requests that waited behind it. In a closed
// loop the due time is the moment the window had room.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace lakebench {

using Clock = std::chrono::steady_clock;

enum class Family : uint8_t {
  kKeyword,
  kJosie,
  kApprox,
  kLshEnsemble,
  kCorrelated,
  kStarmie,
  kTus,
  kAdd,
  kRemove,
};
constexpr size_t kNumFamilies = 9;

inline const char* FamilyName(Family f) {
  switch (f) {
    case Family::kKeyword: return "keyword";
    case Family::kJosie: return "josie";
    case Family::kApprox: return "approx";
    case Family::kLshEnsemble: return "lsh_ensemble";
    case Family::kCorrelated: return "correlated";
    case Family::kStarmie: return "starmie";
    case Family::kTus: return "tus";
    case Family::kAdd: return "add";
    case Family::kRemove: return "remove";
  }
  return "?";
}

/// The query family an operation is reported under.
inline const char* FamilyGroup(Family f) {
  switch (f) {
    case Family::kKeyword: return "keyword";
    case Family::kJosie:
    case Family::kApprox:
    case Family::kLshEnsemble: return "join";
    case Family::kCorrelated: return "correlated";
    case Family::kStarmie:
    case Family::kTus: return "union";
    case Family::kAdd:
    case Family::kRemove: return "write_visible";
  }
  return "?";
}

inline bool IsWrite(Family f) {
  return f == Family::kAdd || f == Family::kRemove;
}

/// One scheduled operation: which family, which entry of the workload's
/// input pool, and (open loop) when it is due relative to phase start.
struct Op {
  Family family = Family::kKeyword;
  uint32_t index = 0;
  int64_t due_ns = 0;
};

/// What one operation produced.
struct Outcome {
  bool ok = false;
  double latency_ms = 0;
  std::string error;  // set when !ok
};

/// Everything one generator measured.
struct LoadLog {
  struct Sample {
    Family family;
    double latency_ms;
    double done_s;  // completion time, seconds after phase start
  };
  std::vector<Sample> ok;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure messages
  std::vector<double> lag_ms;       // open loop: send time minus due time
  bool pool_exhausted = false;
  double elapsed_s = 0;             // phase start to last completion

  void Fail(std::string message) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(message));
  }
  void Merge(const LoadLog& other) {
    ok.insert(ok.end(), other.ok.begin(), other.ok.end());
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
    lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
    pool_exhausted = pool_exhausted || other.pool_exhausted;
    elapsed_s = std::max(elapsed_s, other.elapsed_s);
  }
};

/// Nearest-rank quantile of an unsorted sample (copies; 0 when empty).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

inline double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// Mean of the largest ceil(share * n) values (0 when empty).
inline double TailMean(std::vector<double> v, double share) {
  if (v.empty()) return 0;
  const size_t n = static_cast<size_t>(
      std::ceil(share * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(v.size() - n),
                   v.end());
  double sum = 0;
  for (size_t i = v.size() - n; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(n);
}

/// Runs one generator over `ops` until `duration` has passed (closed loop)
/// or every operation due before `duration` was sent (open loop), then
/// drains what is in flight.
///
/// `submit(op, due)` sends one operation and returns a handle, or nullopt
/// together with a failure recorded through `log->Fail` when the system
/// refused it outright. A handle has `bool Ready()` (non-blocking),
/// `void WaitFor(Clock::duration)` and `Outcome Finish()`.
template <typename Handle, typename SubmitFn>
void RunGenerator(const std::vector<Op>& ops, bool closed_loop, size_t window,
                  Clock::time_point start, Clock::duration duration,
                  SubmitFn submit, LoadLog* log) {
  // Sleep as close to the due time as the kernel allows.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  constexpr auto kPoll = std::chrono::microseconds(100);
  constexpr auto kSpin = std::chrono::microseconds(50);
  const Clock::time_point end = start + duration;
  std::vector<std::optional<Handle>> inflight;
  std::vector<Family> inflight_family;
  size_t next = 0;

  auto finish = [&](size_t i) {
    Outcome out = inflight[i]->Finish();
    if (out.ok) {
      log->ok.push_back(
          {inflight_family[i], out.latency_ms,
           std::chrono::duration<double>(Clock::now() - start).count()});
    } else {
      log->Fail(std::string(FamilyName(inflight_family[i])) + ": " +
                out.error);
    }
    inflight.erase(inflight.begin() + static_cast<ptrdiff_t>(i));
    inflight_family.erase(inflight_family.begin() + static_cast<ptrdiff_t>(i));
  };

  while (true) {
    Clock::time_point now = Clock::now();
    bool sending = false;
    if (closed_loop) {
      sending = now < end;
      while (sending && inflight.size() < window) {
        if (next >= ops.size()) {
          log->pool_exhausted = true;
          sending = false;
          break;
        }
        const Op& op = ops[next++];
        ++log->attempted;
        std::optional<Handle> h = submit(op, now);
        if (h.has_value()) {
          inflight.push_back(std::move(h));
          inflight_family.push_back(op.family);
        }
        now = Clock::now();
      }
    } else {
      while (next < ops.size() && ops[next].due_ns < duration.count() &&
             start + std::chrono::nanoseconds(ops[next].due_ns) <= now) {
        const Op& op = ops[next++];
        const Clock::time_point due =
            start + std::chrono::nanoseconds(op.due_ns);
        ++log->attempted;
        log->lag_ms.push_back(
            std::chrono::duration<double, std::milli>(now - due).count());
        std::optional<Handle> h = submit(op, due);
        if (h.has_value()) {
          inflight.push_back(std::move(h));
          inflight_family.push_back(op.family);
        }
        now = Clock::now();
      }
      sending = next < ops.size() && ops[next].due_ns < duration.count();
    }

    bool reaped = false;
    for (size_t i = 0; i < inflight.size();) {
      if (inflight[i]->Ready()) {
        finish(i);
        reaped = true;
      } else {
        ++i;
      }
    }
    if (!sending && inflight.empty()) break;
    if (reaped) continue;

    // Nothing finished: block on the oldest operation until the next one
    // is due, or at most one poll interval. The last kSpin before a due
    // time is spent polling, since a sleeping thread wakes late on a busy
    // host and that lag would be charged to the operation.
    Clock::duration wait = kPoll;
    if (!closed_loop && sending) {
      const Clock::time_point due =
          start + std::chrono::nanoseconds(ops[next].due_ns);
      wait = std::min<Clock::duration>(wait, due - Clock::now() - kSpin);
    }
    if (wait <= Clock::duration::zero()) {
      std::this_thread::yield();
      continue;
    }
    if (!inflight.empty()) {
      inflight.front()->WaitFor(wait);
    } else {
      std::this_thread::sleep_for(wait);
    }
  }
  log->elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace lakebench

#endif  // LAKEBENCH_DRIVER_LOADGEN_H_
