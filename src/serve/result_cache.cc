#include "serve/result_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>

namespace lake::serve {

namespace {

// Per-entry bookkeeping besides the packed block: the LRU list node, the
// hash-map node and bucket slot, and their allocator headers.
constexpr size_t kEntryOverheadBytes = 96;

// Packed layout: varint counts of tables, columns, table_names and shards,
// then each table as (varint id, double score, why), each column as
// (varint table id, varint column index, double score, why), each name as
// a string, each shard as a varint. A string is (varint length, bytes).
// A why is front-coded against the previous why of the same list: varint
// length of the prefix it shares with it, then the rest as a string. The
// whys of one answer mostly differ only in their digits ("starmie
// contextual score=0.713", "...=0.555"), so this stores each prefix once.
// One schema serves both sinks below.
size_t SharedPrefix(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

template <typename Sink>
void EncodeWhy(std::string_view prev, std::string_view why, Sink& out) {
  const size_t shared = SharedPrefix(prev, why);
  out.Varint(shared);
  out.String(why.substr(shared));
}

template <typename Sink>
void Encode(const CachedResult& v, Sink& out) {
  out.Varint(v.tables.size());
  out.Varint(v.columns.size());
  out.Varint(v.table_names.size());
  out.Varint(v.shards.size());
  std::string_view prev;
  for (const TableResult& t : v.tables) {
    out.Varint(t.table_id);
    out.Double(t.score);
    EncodeWhy(prev, t.why, out);
    prev = t.why;
  }
  prev = {};
  for (const ColumnResult& c : v.columns) {
    out.Varint(c.column.table_id);
    out.Varint(c.column.column_index);
    out.Double(c.score);
    EncodeWhy(prev, c.why, out);
    prev = c.why;
  }
  for (const std::string& n : v.table_names) out.String(n);
  for (uint32_t s : v.shards) out.Varint(s);
}

struct SizeSink {
  size_t bytes = 0;
  void Varint(uint64_t v) {
    do {
      ++bytes;
      v >>= 7;
    } while (v != 0);
  }
  void Double(double) { bytes += sizeof(double); }
  void String(std::string_view s) {
    Varint(s.size());
    bytes += s.size();
  }
};

struct WriteSink {
  char* p;
  void Varint(uint64_t v) {
    while (v >= 0x80) {
      *p++ = static_cast<char>((v & 0x7f) | 0x80);
      v >>= 7;
    }
    *p++ = static_cast<char>(v);
  }
  void Double(double v) {
    std::memcpy(p, &v, sizeof(v));
    p += sizeof(v);
  }
  void String(std::string_view s) {
    Varint(s.size());
    std::memcpy(p, s.data(), s.size());
    p += s.size();
  }
};

size_t PackedSize(const CachedResult& v) {
  SizeSink size;
  Encode(v, size);
  return size.bytes;
}

// Reads back what WriteSink wrote; the buffer is the cache's own, so it is
// trusted.
struct Reader {
  const char* p;
  uint64_t Varint() {
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const auto byte = static_cast<uint8_t>(*p++);
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
    }
  }
  double Double() {
    double v;
    std::memcpy(&v, p, sizeof(v));
    p += sizeof(v);
    return v;
  }
  std::string String() {
    const size_t n = Varint();
    std::string s(p, n);
    p += n;
    return s;
  }
  // A front-coded why (see Encode), given the previous why of its list.
  std::string Why(std::string_view prev) {
    const size_t shared = Varint();
    const size_t n = Varint();
    std::string s;
    s.reserve(shared + n);
    s.append(prev.substr(0, shared)).append(p, n);
    p += n;
    return s;
  }
};

void Unpack(const char* packed, CachedResult* out) {
  Reader in{packed};
  out->tables.resize(in.Varint());
  out->columns.resize(in.Varint());
  out->table_names.resize(in.Varint());
  out->shards.resize(in.Varint());
  std::string_view prev;
  for (TableResult& t : out->tables) {
    t.table_id = static_cast<TableId>(in.Varint());
    t.score = in.Double();
    t.why = in.Why(prev);
    prev = t.why;
  }
  prev = {};
  for (ColumnResult& c : out->columns) {
    c.column.table_id = static_cast<TableId>(in.Varint());
    c.column.column_index = static_cast<uint32_t>(in.Varint());
    c.score = in.Double();
    c.why = in.Why(prev);
    prev = c.why;
  }
  for (std::string& n : out->table_names) n = in.String();
  for (uint32_t& s : out->shards) s = static_cast<uint32_t>(in.Varint());
}

}  // namespace

size_t CachedResult::ApproxBytes() const {
  return kEntryOverheadBytes + PackedSize(*this);
}

ResultCache::ResultCache(Options options) {
  const size_t shards = std::bit_ceil(std::max<size_t>(1, options.num_shards));
  per_shard_capacity_ = std::max<size_t>(1, options.capacity_bytes / shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool ResultCache::Lookup(uint64_t key, CachedResult* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++shard.misses;
    return false;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  Unpack(it->second->packed.get(), out);
  return true;
}

void ResultCache::Insert(uint64_t key, const CachedResult& value) {
  const size_t packed_size = PackedSize(value);
  const size_t bytes = kEntryOverheadBytes + packed_size;
  if (bytes > per_shard_capacity_) return;  // oversized: never admitted
  auto packed = std::make_unique_for_overwrite<char[]>(packed_size);
  WriteSink sink{packed.get()};
  Encode(value, sink);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.map.erase(it);
  }
  shard.lru.push_front(Entry{key, bytes, std::move(packed)});
  shard.map[key] = shard.lru.begin();
  shard.bytes += bytes;
  ++shard.insertions;
  while (shard.bytes > per_shard_capacity_ && shard.lru.size() > 1) {
    const Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    shard.map.erase(victim.key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->map.clear();
    shard->bytes = 0;
  }
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.evictions += shard->evictions;
    stats.insertions += shard->insertions;
    stats.entries += shard->lru.size();
    stats.bytes += shard->bytes;
  }
  return stats;
}

namespace {
constexpr uint64_t kStatsMagic = 0x3153434c;  // "LCS1"
}  // namespace

Status WriteStats(const ResultCache::Stats& stats, BinaryWriter* w) {
  w->WriteVarint(kStatsMagic);
  w->WriteVarint(stats.hits);
  w->WriteVarint(stats.misses);
  w->WriteVarint(stats.evictions);
  w->WriteVarint(stats.insertions);
  w->WriteVarint(stats.entries);
  w->WriteVarint(stats.bytes);
  if (!w->ok()) return Status::IoError("cache stats write failed");
  return Status::OK();
}

Result<ResultCache::Stats> ReadStats(BinaryReader* r) {
  LAKE_ASSIGN_OR_RETURN(uint64_t magic, r->ReadVarint());
  if (magic != kStatsMagic) return Status::IoError("not a cache stats block");
  ResultCache::Stats stats;
  LAKE_ASSIGN_OR_RETURN(stats.hits, r->ReadVarint());
  LAKE_ASSIGN_OR_RETURN(stats.misses, r->ReadVarint());
  LAKE_ASSIGN_OR_RETURN(stats.evictions, r->ReadVarint());
  LAKE_ASSIGN_OR_RETURN(stats.insertions, r->ReadVarint());
  LAKE_ASSIGN_OR_RETURN(stats.entries, r->ReadVarint());
  LAKE_ASSIGN_OR_RETURN(stats.bytes, r->ReadVarint());
  return stats;
}

}  // namespace lake::serve
