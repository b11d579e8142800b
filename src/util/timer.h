#ifndef LAKE_UTIL_TIMER_H_
#define LAKE_UTIL_TIMER_H_

#include <chrono>

namespace lake {

/// Wall-clock stopwatch used by the benchmark harnesses.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Resets the start point.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace lake

#endif  // LAKE_UTIL_TIMER_H_
