#include "sketch/minhash.h"

#include <algorithm>
#include <limits>

#include "util/hash.h"

namespace lake {

namespace {
constexpr uint64_t kEmpty = std::numeric_limits<uint64_t>::max();
}  // namespace

MinHashSignature::MinHashSignature(size_t num_hashes)
    : mins_(num_hashes, kEmpty) {}

void MinHashSignature::Update(uint64_t value_hash) {
  // Permutation i rehashes the value hash with seed i. Mix64-based
  // rehashing is a full-avalanche 64-bit function, so the induced orders
  // are effectively independent.
  for (size_t i = 0; i < mins_.size(); ++i) {
    const uint64_t h = Hash64(value_hash, /*seed=*/i + 1);
    mins_[i] = std::min(mins_[i], h);
  }
}

MinHashSignature MinHashSignature::Build(const std::vector<std::string>& values,
                                         size_t num_hashes, uint64_t seed) {
  MinHashSignature sig(num_hashes);
  for (const std::string& v : values) sig.Update(Hash64(v, seed));
  return sig;
}

Result<double> MinHashSignature::EstimateJaccard(
    const MinHashSignature& other) const {
  if (mins_.size() != other.mins_.size()) {
    return Status::InvalidArgument("signature widths differ");
  }
  if (mins_.empty()) return Status::InvalidArgument("empty signature");
  size_t match = 0;
  for (size_t i = 0; i < mins_.size(); ++i) {
    if (mins_[i] == other.mins_[i]) ++match;
  }
  return static_cast<double>(match) / mins_.size();
}

Result<double> MinHashSignature::EstimateContainment(
    const MinHashSignature& other, size_t my_cardinality,
    size_t other_cardinality) const {
  LAKE_ASSIGN_OR_RETURN(double j, EstimateJaccard(other));
  if (my_cardinality == 0) return 0.0;
  // |A∩B| = J * |A∪B| = J/(1+J) * (|A| + |B|).
  const double inter =
      j / (1.0 + j) * static_cast<double>(my_cardinality + other_cardinality);
  return std::min(1.0, inter / static_cast<double>(my_cardinality));
}

Result<MinHashSignature> MinHashSignature::Merge(
    const MinHashSignature& other) const {
  if (mins_.size() != other.mins_.size()) {
    return Status::InvalidArgument("signature widths differ");
  }
  MinHashSignature out(mins_.size());
  for (size_t i = 0; i < mins_.size(); ++i) {
    out.mins_[i] = std::min(mins_[i], other.mins_[i]);
  }
  return out;
}

}  // namespace lake
