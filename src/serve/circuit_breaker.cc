#include "serve/circuit_breaker.h"

#include <algorithm>
#include <chrono>

#include "util/backoff.h"

namespace lake::serve {

namespace {
bool IsSet(CircuitBreaker::Clock::time_point t) {
  return t.time_since_epoch().count() != 0;
}
}  // namespace

CircuitBreaker::CircuitBreaker(Options options) : options_(options) {
  options_.window_buckets = std::max<size_t>(1, options_.window_buckets);
  options_.half_open_max_probes =
      std::max<size_t>(1, options_.half_open_max_probes);
  options_.close_after_successes =
      std::max<size_t>(1, options_.close_after_successes);
  buckets_.resize(options_.window_buckets);
}

void CircuitBreaker::RollWindow(Clock::time_point now) {
  if (!IsSet(bucket_start_)) {
    bucket_start_ = now;
    return;
  }
  // Advance (and zero) one bucket per elapsed bucket_width; a gap longer
  // than the whole window just clears it.
  while (now - bucket_start_ >= options_.bucket_width) {
    current_bucket_ = (current_bucket_ + 1) % buckets_.size();
    buckets_[current_bucket_] = Bucket{};
    bucket_start_ += options_.bucket_width;
    if (now - bucket_start_ >=
        options_.bucket_width * static_cast<int>(buckets_.size())) {
      for (Bucket& b : buckets_) b = Bucket{};
      bucket_start_ = now;
      break;
    }
  }
}

double CircuitBreaker::FailureRateLocked() const {
  uint64_t successes = 0, failures = 0;
  for (const Bucket& b : buckets_) {
    successes += b.successes;
    failures += b.failures;
  }
  const uint64_t total = successes + failures;
  if (total < options_.min_volume) return 0;
  return static_cast<double>(failures) / static_cast<double>(total);
}

void CircuitBreaker::TripLocked(Clock::time_point now) {
  state_ = State::kOpen;
  ++trips_;
  const auto base =
      std::chrono::duration_cast<std::chrono::nanoseconds>(options_.open_base);
  const auto max =
      std::chrono::duration_cast<std::chrono::nanoseconds>(options_.open_max);
  reopen_at_ = now + std::chrono::nanoseconds(BackoffDelay(
                         static_cast<uint64_t>(base.count()),
                         static_cast<uint64_t>(max.count()),
                         consecutive_opens_ + 1));
  ++consecutive_opens_;
  probes_in_flight_ = 0;
  probe_successes_ = 0;
  for (Bucket& b : buckets_) b = Bucket{};
  bucket_start_ = {};
}

CircuitBreaker::Permit CircuitBreaker::Allow(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kOpen) {
    if (now < reopen_at_) return Permit::kDenied;
    state_ = State::kHalfOpen;
    probes_in_flight_ = 0;
    probe_successes_ = 0;
  }
  if (state_ == State::kHalfOpen) {
    if (probes_in_flight_ >= options_.half_open_max_probes) {
      return Permit::kDenied;
    }
    ++probes_in_flight_;
    return Permit::kProbe;
  }
  return Permit::kAllowed;
}

void CircuitBreaker::RecordSuccess(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kHalfOpen:
      if (probes_in_flight_ > 0) --probes_in_flight_;
      if (++probe_successes_ >= options_.close_after_successes) {
        state_ = State::kClosed;
        consecutive_opens_ = 0;
        for (Bucket& b : buckets_) b = Bucket{};
        bucket_start_ = {};
      }
      return;
    case State::kClosed:
      RollWindow(now);
      ++buckets_[current_bucket_].successes;
      return;
    case State::kOpen:
      return;  // straggler admitted before the trip: window was reset
  }
}

void CircuitBreaker::RecordFailure(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kHalfOpen:
      // One failed probe reopens with a longer backoff.
      TripLocked(now);
      return;
    case State::kClosed: {
      RollWindow(now);
      ++buckets_[current_bucket_].failures;
      const double rate = FailureRateLocked();
      if (rate >= options_.failure_threshold) TripLocked(now);
      return;
    }
    case State::kOpen:
      return;
  }
}

void CircuitBreaker::RecordNeutral(Clock::time_point now) {
  (void)now;
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kHalfOpen && probes_in_flight_ > 0) {
    --probes_in_flight_;
  }
}

CircuitBreaker::State CircuitBreaker::state(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kOpen && now >= reopen_at_) {
    state_ = State::kHalfOpen;
    probes_in_flight_ = 0;
    probe_successes_ = 0;
  }
  return state_;
}

double CircuitBreaker::failure_rate(Clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kClosed) RollWindow(now);
  return FailureRateLocked();
}

uint64_t CircuitBreaker::trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

CircuitBreaker* BreakerSet::Get(const std::string& modality) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(modality);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(modality, std::make_unique<CircuitBreaker>(options_))
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, CircuitBreaker*>> BreakerSet::All() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, CircuitBreaker*>> out;
  out.reserve(breakers_.size());
  for (const auto& [name, breaker] : breakers_) {
    out.emplace_back(name, breaker.get());
  }
  return out;
}

}  // namespace lake::serve
