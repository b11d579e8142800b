#ifndef LAKE_SKETCH_MINHASH_H_
#define LAKE_SKETCH_MINHASH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace lake {

/// Classic k-permutation MinHash signature (Broder). Permutation i is the
/// ordering induced by Hash64(value, seed_i); signature[i] is the minimum.
/// The fraction of agreeing positions is an unbiased Jaccard estimator,
/// and signatures are the substrate for MinHash-LSH and LSH Ensemble.
class MinHashSignature {
 public:
  MinHashSignature() = default;

  /// Signature with `num_hashes` positions, all initialized to "empty".
  explicit MinHashSignature(size_t num_hashes);

  /// Folds one value hash into every position (streaming build).
  void Update(uint64_t value_hash);

  /// Convenience: builds a signature over a value set.
  static MinHashSignature Build(const std::vector<std::string>& values,
                                size_t num_hashes, uint64_t seed = 0);

  size_t num_hashes() const { return mins_.size(); }
  const std::vector<uint64_t>& values() const { return mins_; }
  uint64_t value(size_t i) const { return mins_[i]; }

  /// Unbiased Jaccard estimate: fraction of matching positions. Signatures
  /// must be the same width (checked).
  Result<double> EstimateJaccard(const MinHashSignature& other) const;

  /// Containment estimate of *this* in `other` derived from the Jaccard
  /// estimate and the exact set cardinalities (|A∩B| = J/(1+J) * (|A|+|B|)).
  Result<double> EstimateContainment(const MinHashSignature& other,
                                     size_t my_cardinality,
                                     size_t other_cardinality) const;

  /// Signature of the union of the underlying sets (pointwise min).
  Result<MinHashSignature> Merge(const MinHashSignature& other) const;

 private:
  std::vector<uint64_t> mins_;
};

}  // namespace lake

#endif  // LAKE_SKETCH_MINHASH_H_
