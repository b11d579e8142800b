#ifndef LAKE_UTIL_RANDOM_H_
#define LAKE_UTIL_RANDOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.h"

namespace lake {

/// Small, fast, deterministic PRNG (xoshiro256**). Every randomized
/// component in the library takes an explicit seed and draws from this
/// generator so results are reproducible across runs and platforms.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform in [0, n). n must be > 0.
  uint64_t NextBounded(uint64_t n);

  /// Uniform double in [0, 1).
  double NextUnit();

  /// Standard normal via Box-Muller (no cached spare; stateless per call
  /// pair would complicate reseeding).
  double NextGaussian();

  /// Bernoulli with probability p.
  bool NextBool(double p) { return NextUnit() < p; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Picks one index according to non-negative weights (sum must be > 0).
  size_t NextWeighted(const std::vector<double>& weights);

  /// Splittable seeded stream: derives an independent child generator from
  /// the current state and `tag` WITHOUT consuming any parent randomness,
  /// so forking never perturbs the parent's sequence. Two forks with the
  /// same tag at the same parent state are identical; distinct tags give
  /// decorrelated streams. This is how multi-threaded deterministic code
  /// (the chaos WorkloadDriver's burst threads) hands each worker its own
  /// fully seed-determined stream: fork by a stable tag, never share one
  /// Rng across threads. Determinism contract: chaos/simulation code must
  /// derive ALL randomness from one seed via Next*/Fork — never from wall
  /// clocks, `std::random_device`, pointer values, or thread ids.
  Rng Fork(std::string_view tag) const;

 private:
  uint64_t s_[4];
};

/// Zipf(s, n) sampler over {0, .., n-1} using precomputed CDF; models the
/// heavy-tailed value-frequency and column-cardinality distributions found
/// in open-data lakes (the motivating skew for LSH Ensemble).
class ZipfSampler {
 public:
  /// `n` distinct items with exponent `s` (s = 0 is uniform; s ~ 1 typical).
  ZipfSampler(size_t n, double s);

  /// Draws an item rank in [0, n); rank 0 is the most frequent.
  size_t Sample(Rng& rng) const;

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace lake

#endif  // LAKE_UTIL_RANDOM_H_
