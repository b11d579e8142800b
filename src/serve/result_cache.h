#ifndef LAKE_SERVE_RESULT_CACHE_H_
#define LAKE_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "search/query.h"
#include "util/serialize.h"
#include "util/status.h"

namespace lake::serve {

/// Payload cached per query: whichever of the two result shapes the query
/// kind produces (tables for keyword/union, columns for join).
struct CachedResult {
  std::vector<TableResult> tables;
  std::vector<ColumnResult> columns;
  /// Cluster-mode provenance, parallel to tables/columns (empty when the
  /// answer came from a single engine): the stable table names and the
  /// shard each hit came from.
  std::vector<std::string> table_names;
  std::vector<uint32_t> shards;

  /// Bytes the cache charges for this value: the size of its packed form
  /// plus a fixed per-entry overhead for the LRU list and map nodes.
  size_t ApproxBytes() const;
};

/// Sharded, memory-bounded LRU cache of query results. Keys are canonical
/// 64-bit hashes of (query, method, k, engine epoch) computed by the
/// serving layer; a key's shard is its low bits, so shards lock
/// independently and concurrent queries rarely contend. Each shard evicts
/// least-recently-used entries once its byte budget (capacity_bytes /
/// num_shards) is exceeded. Hit/miss/eviction/insertion counters are
/// aggregated across shards.
///
/// Each value is stored packed into one heap block (ids, scores and `why`
/// strings back to back, each `why` front-coded against the one before it)
/// and unpacked on Lookup, which copies out anyway: a resident entry costs
/// one allocation instead of a vector plus one per explanation string, an
/// answer's shared explanation prefix is stored once, and the byte bound
/// counts the packed size.
class ResultCache {
 public:
  struct Options {
    size_t num_shards = 8;            // rounded up to a power of two
    size_t capacity_bytes = 32 << 20; // total, across shards
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
    uint64_t entries = 0;  // resident now
    uint64_t bytes = 0;    // resident now
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  explicit ResultCache(Options options);

  /// Copies the cached value into `*out` and promotes the entry to
  /// most-recently-used. Counts a hit or a miss.
  bool Lookup(uint64_t key, CachedResult* out);

  /// Inserts (or replaces) a value, then evicts LRU entries until the
  /// shard fits its budget. Values larger than a whole shard are not
  /// admitted (they would evict everything for one unlikely-reused entry).
  void Insert(uint64_t key, const CachedResult& value);

  /// Drops every entry (epoch bumps route around stale keys; Clear also
  /// returns the memory).
  void Clear();

  Stats GetStats() const;
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    uint64_t key = 0;
    size_t bytes = 0;                // ApproxBytes() of the value
    std::unique_ptr<char[]> packed;  // the value, packed
  };

  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<uint64_t, std::list<Entry>::iterator> map;
    size_t bytes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t insertions = 0;
  };

  Shard& ShardFor(uint64_t key) {
    return *shards_[key & (shards_.size() - 1)];
  }

  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Binary round-trip of the cache stats block (BinaryWriter/BinaryReader).
Status WriteStats(const ResultCache::Stats& stats, BinaryWriter* w);
Result<ResultCache::Stats> ReadStats(BinaryReader* r);

}  // namespace lake::serve

#endif  // LAKE_SERVE_RESULT_CACHE_H_
