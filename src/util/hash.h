#ifndef LAKE_UTIL_HASH_H_
#define LAKE_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lake {

/// 64-bit mixing function (SplitMix64 finalizer). Bijective; good avalanche.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashes `len` bytes at `data` with a 64-bit xxHash64-style algorithm.
/// Deterministic across platforms and runs; used for sketches, LSH, and
/// embeddings so that all randomized structures are reproducible. Named
/// apart from Hash64 so that `Hash64("literal", seed)` cannot bind here and
/// take the seed for a length.
uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 0);

/// Hashes a string's bytes (HashBytes).
inline uint64_t Hash64(std::string_view s, uint64_t seed = 0) {
  return HashBytes(s.data(), s.size(), seed);
}

/// Convenience overload for integers.
inline uint64_t Hash64(uint64_t v, uint64_t seed = 0) {
  return Mix64(v ^ Mix64(seed));
}

/// Combines two 64-bit hashes (order-sensitive).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return Mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Maps a 64-bit hash to a uniform double in [0, 1).
inline double HashToUnit(uint64_t h) {
  // Use the top 53 bits for a full-precision double mantissa.
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

}  // namespace lake

#endif  // LAKE_UTIL_HASH_H_
