#include "util/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lake {

namespace {
inline uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  // SplitMix64 seeding per xoshiro authors' recommendation.
  uint64_t x = seed;
  for (int i = 0; i < 4; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    s_[i] = Mix64(x);
  }
  // Avoid the all-zero state (Mix64 of distinct inputs makes this
  // astronomically unlikely, but be safe).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = RotL(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = RotL(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t n) {
  assert(n > 0);
  // Lemire's nearly-divisionless bounded generation.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = (0 - n) % n;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::NextUnit() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::NextGaussian() {
  // Box-Muller; guard against log(0).
  double u1 = NextUnit();
  while (u1 <= 1e-300) u1 = NextUnit();
  const double u2 = NextUnit();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  assert(total > 0);
  double r = NextUnit() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork(std::string_view tag) const {
  // Fold the full 256-bit state down to one word, then perturb it with the
  // tag hash. Reading (not advancing) the state keeps Fork const and makes
  // fork order irrelevant to the parent's own draws.
  uint64_t folded = s_[0];
  folded = Mix64(folded ^ RotL(s_[1], 13));
  folded = Mix64(folded ^ RotL(s_[2], 29));
  folded = Mix64(folded ^ RotL(s_[3], 43));
  return Rng(Hash64(tag, folded));
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  assert(n > 0);
  cdf_.resize(n);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (size_t i = 0; i < n; ++i) cdf_[i] /= sum;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.NextUnit();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace lake
