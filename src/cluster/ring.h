#ifndef LAKE_CLUSTER_RING_H_
#define LAKE_CLUSTER_RING_H_

#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

namespace lake::cluster {

/// Consistent-hash ring assigning table names to shards. Each shard
/// contributes `virtual_nodes` points on a 64-bit ring; a name is owned by
/// the first point at or clockwise past its hash. Names (not ids) are
/// hashed because names are the stable table identity across generations
/// and compactions — a table never changes owner except when the shard set
/// changes, and adding or removing one shard moves only the ~1/N of names
/// whose owning arc changed (minimal movement).
///
/// Copyable value type; ClusterEngine snapshots it into each published
/// topology, so readers never see a half-updated ring. Not internally
/// synchronized.
class HashRing {
 public:
  struct Options {
    /// Virtual nodes per shard; more points = better balance at the cost
    /// of a larger sorted array (lookup stays O(log(N*vnodes))).
    size_t virtual_nodes = 64;
    /// Ring hash seed; all members of one cluster must agree.
    uint64_t seed = 0x7a11e5;
  };

  HashRing() : HashRing(Options{}) {}
  explicit HashRing(Options options) : options_(options) {}

  /// Adds a shard's virtual nodes. Adding a present shard is a no-op.
  void AddShard(uint32_t shard);

  /// Removes a shard's virtual nodes. Removing an absent shard is a no-op.
  void RemoveShard(uint32_t shard);

  size_t num_shards() const { return shards_.size(); }

  /// Sorted shard ids.
  std::vector<uint32_t> shards() const {
    return std::vector<uint32_t>(shards_.begin(), shards_.end());
  }

  /// Owning shard of a table name. Requires a non-empty ring.
  uint32_t OwnerOf(std::string_view name) const;

  /// Fraction of the hash space each shard owns, aligned with shards()
  /// order (sums to 1; balance diagnostics and tests).
  std::vector<double> OwnershipFractions() const;

  const Options& options() const { return options_; }

 private:
  struct Point {
    uint64_t hash;
    uint32_t shard;
  };

  Options options_;
  std::vector<Point> points_;  // sorted by (hash, shard)
  std::set<uint32_t> shards_;
};

}  // namespace lake::cluster

#endif  // LAKE_CLUSTER_RING_H_
