#ifndef LAKE_INDEX_VECTOR_OPS_H_
#define LAKE_INDEX_VECTOR_OPS_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace lake {

/// Dense embedding vector. float keeps HNSW/flat index memory at half of
/// double with no measurable quality loss for discovery workloads.
using Vector = std::vector<float>;

inline double Dot(const Vector& a, const Vector& b) {
  double s = 0;
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

inline double Norm(const Vector& a) { return std::sqrt(Dot(a, a)); }

inline double L2DistanceSquared(const Vector& a, const Vector& b) {
  double s = 0;
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return s;
}

/// Cosine of `a` and `b` from their precomputed norms `na` = Norm(a) and
/// `nb` = Norm(b): bit-identical to CosineSimilarity(a, b), for callers
/// that score one vector against many and compute each norm once.
inline double CosineWithNorms(const Vector& a, double na, const Vector& b,
                              double nb) {
  if (na <= 0 || nb <= 0) return 0.0;
  return Dot(a, b) / (na * nb);
}

/// Cosine similarity in [-1, 1]; 0 when either vector is zero.
inline double CosineSimilarity(const Vector& a, const Vector& b) {
  return CosineWithNorms(a, Norm(a), b, Norm(b));
}

/// Scales to unit norm in place (no-op for the zero vector).
inline void NormalizeInPlace(Vector& a) {
  const double n = Norm(a);
  if (n <= 0) return;
  const float inv = static_cast<float>(1.0 / n);
  for (float& x : a) x *= inv;
}

inline void AddInPlace(Vector& a, const Vector& b, float scale = 1.0f) {
  if (a.size() < b.size()) a.resize(b.size(), 0.0f);
  for (size_t i = 0; i < b.size(); ++i) a[i] += scale * b[i];
}

}  // namespace lake

#endif  // LAKE_INDEX_VECTOR_OPS_H_
