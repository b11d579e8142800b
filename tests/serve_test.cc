#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "lakegen/generator.h"
#include "search/discovery_engine.h"
#include "serve/metrics.h"
#include "serve/query_service.h"
#include "serve/result_cache.h"
#include "serve/route.h"
#include "util/cancel.h"
#include "util/string_util.h"

namespace lake::serve {
namespace {

// ---------------------------------------------------------------- metrics

TEST(LatencyHistogramTest, BucketBoundsAreConsistent) {
  for (uint64_t us : {0ull, 1ull, 3ull, 4ull, 7ull, 100ull, 1023ull, 1024ull,
                      999999ull, 123456789ull}) {
    const size_t index = LatencyHistogram::BucketIndex(us);
    EXPECT_GE(us, LatencyHistogram::BucketLowerBound(index))
        << "us=" << us << " index=" << index;
    if (index + 1 < LatencyHistogram::kNumBuckets) {
      EXPECT_LT(us, LatencyHistogram::BucketLowerBound(index + 1))
          << "us=" << us << " index=" << index;
    }
  }
}

TEST(LatencyHistogramTest, QuantilesOfUniformSamples) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i));
  const LatencyHistogram::Snapshot snap = hist.Snap();
  EXPECT_EQ(snap.count, 1000u);
  // Log-scale buckets bound relative error by ~12.5% per octave plus
  // interpolation; allow a loose band.
  EXPECT_NEAR(snap.Quantile(0.5), 500.0, 150.0);
  EXPECT_NEAR(snap.Quantile(0.95), 950.0, 200.0);
  EXPECT_NEAR(snap.Quantile(0.99), 990.0, 200.0);
  EXPECT_DOUBLE_EQ(snap.max_micros, 1000.0);
  EXPECT_NEAR(snap.mean(), 500.5, 1.0);
}

TEST(LatencyHistogramTest, PercentileOfEmptyHistogramIsZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0.99), 0.0);
}

TEST(LatencyHistogramTest, PercentileOfSingleBucketIsBoundedBySample) {
  LatencyHistogram hist;
  hist.Record(5000);
  EXPECT_EQ(hist.count(), 1u);
  for (double q : {0.0, 0.5, 0.95, 1.0}) {
    EXPECT_LE(hist.Percentile(q), 5000.0) << "q=" << q;
    EXPECT_GT(hist.Percentile(q), 4000.0) << "q=" << q;  // same bucket
  }
}

TEST(LatencyHistogramTest, PercentileInterpolatesAcrossBuckets) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 1000u);
  // Matches Snapshot::Quantile (same code path) within the log-bucket
  // resolution, and quantiles are monotone in q.
  EXPECT_NEAR(hist.Percentile(0.5), 500.0, 150.0);
  EXPECT_NEAR(hist.Percentile(0.95), 950.0, 200.0);
  EXPECT_LE(hist.Percentile(0.5), hist.Percentile(0.9));
  EXPECT_LE(hist.Percentile(0.9), hist.Percentile(0.99));
  EXPECT_LE(hist.Percentile(0.99), 1000.0);
}

TEST(LatencyHistogramTest, SingleSampleQuantiles) {
  LatencyHistogram hist;
  hist.Record(5000);
  const LatencyHistogram::Snapshot snap = hist.Snap();
  EXPECT_LE(snap.Quantile(0.5), 5000.0);
  EXPECT_GT(snap.Quantile(0.5), 4000.0);  // same bucket as the sample
  EXPECT_LE(snap.Quantile(0.99), 5000.0);
}

TEST(LatencyHistogramTest, QuantileEdgeCasesAreExactExtremes) {
  LatencyHistogram hist;
  hist.Record(37);
  hist.Record(5000);
  hist.Record(120);
  const LatencyHistogram::Snapshot snap = hist.Snap();
  // q<=0 is the exact tracked minimum, q>=1 (and out-of-range q) the
  // exact tracked maximum — no bucket interpolation at the extremes.
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 37.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(-1.0), 37.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 5000.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(2.0), 5000.0);
  EXPECT_DOUBLE_EQ(snap.min_micros, 37.0);
  EXPECT_DOUBLE_EQ(snap.max_micros, 5000.0);
  // Interior quantiles never extrapolate past an observed sample.
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_GE(snap.Quantile(q), 37.0) << "q=" << q;
    EXPECT_LE(snap.Quantile(q), 5000.0) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, QuantileOfNanIsMinNotGarbage) {
  LatencyHistogram hist;
  hist.Record(100);
  const LatencyHistogram::Snapshot snap = hist.Snap();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(snap.Quantile(nan), 100.0);  // NaN treated as q=0
  // And an empty histogram stays 0 for every q, NaN included.
  LatencyHistogram empty;
  EXPECT_DOUBLE_EQ(empty.Snap().Quantile(nan), 0.0);
  EXPECT_DOUBLE_EQ(empty.Snap().Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.Snap().Quantile(1.0), 0.0);
}

TEST(MetricsRegistryTest, CountersAndStablePointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("requests");
  c->Add();
  c->Add(4);
  EXPECT_EQ(registry.GetCounter("requests"), c);
  EXPECT_EQ(c->value(), 5u);
  const MetricsRegistry::Snapshot snap = registry.Snap();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "requests");
  EXPECT_EQ(snap.counters[0].second, 5u);
}

TEST(MetricsRegistryTest, TextAndJsonDumps) {
  MetricsRegistry registry;
  registry.GetCounter("a.b")->Add(3);
  registry.GetHistogram("lat")->Record(100);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("a.b: 3"), std::string::npos);
  EXPECT_NE(text.find("lat:"), std::string::npos);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"a.b\":3"), std::string::npos);
  EXPECT_NE(json.find("\"lat\":{\"count\":1"), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotBinaryRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("served")->Add(12);
  registry.GetCounter("rejected")->Add(1);
  LatencyHistogram* hist = registry.GetHistogram("latency");
  for (int i = 0; i < 100; ++i) hist->Record(10.0 * i);
  const MetricsRegistry::Snapshot snap = registry.Snap();

  std::stringstream buffer;
  BinaryWriter writer(&buffer);
  ASSERT_TRUE(WriteSnapshot(snap, &writer).ok());
  BinaryReader reader(&buffer);
  Result<MetricsRegistry::Snapshot> loaded = ReadSnapshot(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  ASSERT_EQ(loaded->counters.size(), snap.counters.size());
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    EXPECT_EQ(loaded->counters[i], snap.counters[i]);
  }
  ASSERT_EQ(loaded->histograms.size(), 1u);
  EXPECT_EQ(loaded->histograms[0].name, "latency");
  EXPECT_EQ(loaded->histograms[0].count, snap.histograms[0].count);
  EXPECT_DOUBLE_EQ(loaded->histograms[0].p95_us, snap.histograms[0].p95_us);
  EXPECT_DOUBLE_EQ(loaded->histograms[0].max_us, snap.histograms[0].max_us);
}

TEST(MetricsRegistryTest, ReadSnapshotRejectsGarbage) {
  std::stringstream buffer("not a snapshot at all");
  BinaryReader reader(&buffer);
  EXPECT_FALSE(ReadSnapshot(&reader).ok());
}

// ------------------------------------------------------------------ cache

CachedResult MakeTables(int n, size_t why_bytes = 8) {
  CachedResult r;
  for (int i = 0; i < n; ++i) {
    r.tables.push_back(
        TableResult{static_cast<TableId>(i), 1.0, std::string(why_bytes, 'x')});
  }
  return r;
}

TEST(ResultCacheTest, LookupMissThenHit) {
  ResultCache cache(ResultCache::Options{4, 1 << 20});
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(7, &out));
  cache.Insert(7, MakeTables(3));
  ASSERT_TRUE(cache.Lookup(7, &out));
  EXPECT_EQ(out.tables.size(), 3u);
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedUnderMemoryBound) {
  // One shard so the LRU order is globally observable; capacity fits only
  // a couple of entries.
  const size_t entry_bytes = MakeTables(1, 256).ApproxBytes();
  ResultCache cache(ResultCache::Options{1, entry_bytes * 3});
  cache.Insert(1, MakeTables(1, 256));
  cache.Insert(2, MakeTables(1, 256));
  cache.Insert(3, MakeTables(1, 256));
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(1, &out));  // promote 1; 2 is now LRU
  cache.Insert(4, MakeTables(1, 256));
  EXPECT_FALSE(cache.Lookup(2, &out));
  EXPECT_TRUE(cache.Lookup(1, &out));
  EXPECT_TRUE(cache.Lookup(3, &out));
  EXPECT_TRUE(cache.Lookup(4, &out));
  EXPECT_GE(cache.GetStats().evictions, 1u);
}

TEST(ResultCacheTest, CapacityBoundHolds) {
  ResultCache cache(ResultCache::Options{2, 4096});
  for (uint64_t key = 0; key < 200; ++key) {
    cache.Insert(key, MakeTables(2, 64));
  }
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.bytes, 4096u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(ResultCacheTest, OversizedValueNotAdmitted) {
  ResultCache cache(ResultCache::Options{1, 512});
  cache.Insert(1, MakeTables(100, 256));  // far larger than the whole cache
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(1, &out));
  EXPECT_EQ(cache.GetStats().insertions, 0u);
}

TEST(ResultCacheTest, ClearDropsEverything) {
  ResultCache cache(ResultCache::Options{4, 1 << 20});
  for (uint64_t key = 0; key < 16; ++key) cache.Insert(key, MakeTables(1));
  cache.Clear();
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

void ExpectSameResult(const CachedResult& got, const CachedResult& want) {
  ASSERT_EQ(got.tables.size(), want.tables.size());
  for (size_t i = 0; i < want.tables.size(); ++i) {
    EXPECT_EQ(got.tables[i].table_id, want.tables[i].table_id);
    EXPECT_EQ(got.tables[i].score, want.tables[i].score);
    EXPECT_EQ(got.tables[i].why, want.tables[i].why);
  }
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (size_t i = 0; i < want.columns.size(); ++i) {
    EXPECT_EQ(got.columns[i].column, want.columns[i].column);
    EXPECT_EQ(got.columns[i].score, want.columns[i].score);
    EXPECT_EQ(got.columns[i].why, want.columns[i].why);
  }
  EXPECT_EQ(got.table_names, want.table_names);
  EXPECT_EQ(got.shards, want.shards);
}

TEST(ResultCacheTest, PackedEntriesRoundTripEveryField) {
  ResultCache cache(ResultCache::Options{2, 1 << 20});

  CachedResult tables;
  tables.tables = {
      TableResult{0, 0.8125, "starmie contextual score=0.812"},
      TableResult{4000000000u, -1.5e-300, ""},
      TableResult{7, std::nextafter(1.0, 2.0), std::string(300, 'w')},
  };
  CachedResult columns;
  columns.columns = {
      ColumnResult{ColumnRef{3, 0}, 12.0, "josie overlap=12"},
      ColumnResult{ColumnRef{0xffffffffu, 0xfffffffeu}, 0.0, ""},
      ColumnResult{ColumnRef{129, 300}, 1.0 / 3.0, std::string(300, 'c')},
  };
  // Cluster mode: names and shards parallel to the hits.
  CachedResult cluster = tables;
  cluster.table_names = {"orders_2024", "", std::string(300, 'n')};
  cluster.shards = {0, 1, 0xffffffffu};
  CachedResult cluster_columns = columns;
  cluster_columns.table_names = {"a", "b", "c"};
  cluster_columns.shards = {1, 128, 2};

  const std::vector<CachedResult> values = {CachedResult{}, tables, columns,
                                            cluster, cluster_columns};
  for (size_t key = 0; key < values.size(); ++key) {
    cache.Insert(key, values[key]);
  }
  for (size_t key = 0; key < values.size(); ++key) {
    SCOPED_TRACE(key);
    // Lookup overwrites whatever `out` held.
    CachedResult out = MakeTables(5);
    out.table_names = {"stale"};
    ASSERT_TRUE(cache.Lookup(key, &out));
    ExpectSameResult(out, values[key]);
  }
}

TEST(ResultCacheTest, FrontCodedWhysRoundTripAndShareTheirPrefix) {
  ResultCache cache(ResultCache::Options{1, 1 << 20});
  // Shared prefixes of every length: identical, extended, cut back to a
  // prefix of the previous, empty in between, and nothing shared.
  const std::vector<std::string> whys = {
      "starmie contextual score=0.713", "starmie contextual score=0.713",
      "starmie contextual score=0.7134", "starmie contextual", "",
      "starmie contextual score=0.555", "tus unionability=0.667", "t"};
  CachedResult value;
  for (size_t i = 0; i < whys.size(); ++i) {
    value.tables.push_back(
        TableResult{static_cast<TableId>(i), 0.5 + static_cast<double>(i),
                    whys[i]});
    value.columns.push_back(ColumnResult{
        ColumnRef{static_cast<TableId>(i), 1}, 1.0, whys[whys.size() - 1 - i]});
  }
  cache.Insert(1, value);
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(1, &out));
  ExpectSameResult(out, value);

  // Ten answers that differ only in their score digits pack into about
  // one explanation plus a few bytes per hit.
  CachedResult union_answer;
  for (int i = 0; i < 10; ++i) {
    union_answer.tables.push_back(TableResult{
        static_cast<TableId>(i), 0.7,
        "starmie contextual score=0.7" + std::to_string(10 + i)});
  }
  EXPECT_LT(union_answer.ApproxBytes(), 96u + 30u + 10u * (2u + 8u + 4u));
}

TEST(ResultCacheTest, ByteBoundCountsPackedSize) {
  // A 300-byte explanation costs about 300 packed bytes, not a separate
  // heap block plus vector and node headers on top of it.
  const CachedResult one = MakeTables(1, 300);
  EXPECT_GE(one.ApproxBytes(), 300u);
  EXPECT_LT(one.ApproxBytes(), 300u + 128u);
  ResultCache cache(ResultCache::Options{1, 1 << 20});
  cache.Insert(1, one);
  cache.Insert(2, MakeTables(10, 30));
  EXPECT_EQ(cache.GetStats().bytes,
            one.ApproxBytes() + MakeTables(10, 30).ApproxBytes());
}

TEST(ResultCacheTest, StatsBinaryRoundTrip) {
  ResultCache cache(ResultCache::Options{2, 1 << 16});
  cache.Insert(1, MakeTables(2));
  CachedResult out;
  cache.Lookup(1, &out);
  cache.Lookup(99, &out);
  const ResultCache::Stats stats = cache.GetStats();

  std::stringstream buffer;
  BinaryWriter writer(&buffer);
  ASSERT_TRUE(WriteStats(stats, &writer).ok());
  BinaryReader reader(&buffer);
  Result<ResultCache::Stats> loaded = ReadStats(&reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->hits, stats.hits);
  EXPECT_EQ(loaded->misses, stats.misses);
  EXPECT_EQ(loaded->insertions, stats.insertions);
  EXPECT_EQ(loaded->entries, stats.entries);
  EXPECT_EQ(loaded->bytes, stats.bytes);
}

// ---------------------------------------------------------- query service

/// Small generated lake + engine shared by the service tests (indexes are
/// immutable; each test builds its own service).
class QueryServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions opts;
    opts.seed = 11;
    opts.num_domains = 6;
    opts.num_templates = 3;
    opts.tables_per_template = 4;
    opts.min_rows = 30;
    opts.max_rows = 60;
    lake_ = new GeneratedLake(LakeGenerator(opts).Generate());

    DiscoveryEngine::Options eopts;
    eopts.build_pexeso = false;
    eopts.build_mate = false;
    eopts.build_santos = false;
    eopts.build_d3l = false;
    eopts.synthesize_kb = false;
    eopts.train_annotator = false;
    engine_ = new DiscoveryEngine(&lake_->catalog, &lake_->kb, eopts);
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete lake_;
    engine_ = nullptr;
    lake_ = nullptr;
  }

  static QueryRequest JoinRequest() {
    QueryRequest req;
    req.kind = QueryKind::kJoin;
    req.join_method = JoinMethod::kJosie;
    req.values = lake_->catalog.table(0).column(0).DistinctStrings();
    req.k = 5;
    return req;
  }

  static QueryRequest UnionRequest() {
    QueryRequest req;
    req.kind = QueryKind::kUnion;
    req.union_method = UnionMethod::kStarmie;
    req.union_table = &lake_->catalog.table(0);
    req.exclude = 0;
    req.k = 5;
    return req;
  }

  static GeneratedLake* lake_;
  static DiscoveryEngine* engine_;
};

GeneratedLake* QueryServiceTest::lake_ = nullptr;
DiscoveryEngine* QueryServiceTest::engine_ = nullptr;

TableId HitId(const TableResult& r) { return r.table_id; }
ColumnRef HitId(const ColumnResult& r) { return r.column; }

/// A served answer must be the direct engine call's answer, bit for bit:
/// the same ids in the same order, the same score bits and the same `why`.
template <typename R>
void ExpectSameAnswer(const std::vector<R>& served,
                      const std::vector<R>& direct, const std::string& label) {
  ASSERT_EQ(served.size(), direct.size()) << label;
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_TRUE(HitId(served[i]) == HitId(direct[i])) << label << " #" << i;
    EXPECT_EQ(std::memcmp(&served[i].score, &direct[i].score,
                          sizeof(double)),
              0)
        << label << " #" << i << ": " << served[i].score << " vs "
        << direct[i].score;
    EXPECT_EQ(served[i].why, direct[i].why) << label << " #" << i;
  }
}

constexpr size_t kParityKs[] = {1, 10, 50};

TEST_F(QueryServiceTest, KeywordMatchesDirectEngineCall) {
  QueryService service(engine_, QueryService::Options{});
  for (size_t k : kParityKs) {
    QueryRequest req;
    req.kind = QueryKind::kKeyword;
    req.keyword = lake_->topic_of[0];
    req.k = k;
    const QueryResponse response = service.Execute(req);
    ASSERT_TRUE(response.status.ok()) << response.status;
    ExpectSameAnswer(response.tables, engine_->Keyword(req.keyword, k),
                     "keyword k=" + std::to_string(k));
  }
}

TEST_F(QueryServiceTest, JoinMatchesDirectEngineCall) {
  QueryService service(engine_, QueryService::Options{});
  size_t built = 0;
  for (JoinMethod method :
       {JoinMethod::kExactJaccard, JoinMethod::kExactContainment,
        JoinMethod::kLshEnsemble, JoinMethod::kJosie, JoinMethod::kPexeso,
        JoinMethod::kApprox}) {
    if (!engine_->Joinable(JoinRequest().values, method, 1).ok()) continue;
    ++built;
    for (size_t k : kParityKs) {
      QueryRequest req = JoinRequest();
      req.join_method = method;
      req.k = k;
      const std::string label =
          QueryService::ModalityName(req) + " k=" + std::to_string(k);
      const QueryResponse response = service.Execute(req);
      ASSERT_TRUE(response.status.ok()) << label << ": " << response.status;
      EXPECT_FALSE(response.degraded) << label;
      const auto direct = engine_->Joinable(req.values, method, k);
      ASSERT_TRUE(direct.ok()) << label << ": " << direct.status();
      ExpectSameAnswer(response.columns, *direct, label);
    }
  }
  EXPECT_EQ(built, 5u);  // every join method except the unbuilt PEXESO
}

TEST_F(QueryServiceTest, UnionExecutes) {
  QueryService service(engine_, QueryService::Options{});
  for (UnionMethod method : {UnionMethod::kStarmie, UnionMethod::kTus}) {
    for (size_t k : kParityKs) {
      QueryRequest req = UnionRequest();
      req.union_method = method;
      req.k = k;
      const std::string label =
          QueryService::ModalityName(req) + " k=" + std::to_string(k);
      const QueryResponse response = service.Execute(req);
      ASSERT_TRUE(response.status.ok()) << label << ": " << response.status;
      EXPECT_FALSE(response.tables.empty()) << label;
      for (const TableResult& t : response.tables) {
        EXPECT_NE(t.table_id, 0u) << label;  // exclude honored
      }
      const auto direct = engine_->Unionable(*req.union_table, method, k,
                                             req.exclude);
      ASSERT_TRUE(direct.ok()) << label << ": " << direct.status();
      ExpectSameAnswer(response.tables, *direct, label);
    }
  }
}

TEST_F(QueryServiceTest, CorrelatedExecutes) {
  QueryService service(engine_, QueryService::Options{});
  const CorrelatedJoinSearch* correlated = engine_->correlated_join();
  ASSERT_NE(correlated, nullptr);
  // Build a correlated query from a lake table: its first string column as
  // key, first numeric column as target.
  const Table& table = lake_->catalog.table(0);
  QueryRequest base;
  base.kind = QueryKind::kCorrelated;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (!table.column(c).IsNumeric() && base.values.empty()) {
      base.values = table.column(c).NonNullStrings();
    }
    if (table.column(c).IsNumeric() && base.numeric_values.empty()) {
      base.numeric_values = table.column(c).Numbers();
    }
  }
  ASSERT_FALSE(base.values.empty());
  ASSERT_FALSE(base.numeric_values.empty());
  const size_t rows =
      std::min(base.values.size(), base.numeric_values.size());
  base.values.resize(rows);
  base.numeric_values.resize(rows);
  for (size_t k : kParityKs) {
    QueryRequest req = base;
    req.k = k;
    const std::string label = "correlated k=" + std::to_string(k);
    const QueryResponse response = service.Execute(req);
    ASSERT_TRUE(response.status.ok()) << label << ": " << response.status;
    const auto raw = correlated->Search(req.values, req.numeric_values, k);
    ASSERT_TRUE(raw.ok()) << label << ": " << raw.status();
    std::vector<ColumnResult> direct;
    for (const CorrelatedJoinSearch::CorrelatedResult& r : *raw) {
      direct.push_back(ColumnResult{
          ColumnRef{r.table_id, r.numeric_column}, r.score,
          StrFormat("corr=%.3f containment=%.3f", r.est_correlation,
                    r.est_containment)});
    }
    EXPECT_FALSE(direct.empty()) << label;
    ExpectSameAnswer(response.columns, direct, label);
  }
}

TEST_F(QueryServiceTest, SecondIdenticalQueryHitsCache) {
  QueryService service(engine_, QueryService::Options{});
  const QueryResponse cold = service.Execute(JoinRequest());
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);
  const QueryResponse warm = service.Execute(JoinRequest());
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_EQ(warm.columns.size(), cold.columns.size());
  for (size_t i = 0; i < cold.columns.size(); ++i) {
    EXPECT_EQ(warm.columns[i].column, cold.columns[i].column);
    EXPECT_DOUBLE_EQ(warm.columns[i].score, cold.columns[i].score);
  }
  const ResultCache::Stats stats = service.cache().GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(QueryServiceTest, BypassCacheSkipsLookupAndInsert) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest req = JoinRequest();
  req.bypass_cache = true;
  EXPECT_FALSE(service.Execute(req).cache_hit);
  EXPECT_FALSE(service.Execute(req).cache_hit);
  const ResultCache::Stats stats = service.cache().GetStats();
  EXPECT_EQ(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
}

TEST_F(QueryServiceTest, CacheKeyIgnoresJoinValueOrder) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest a = JoinRequest();
  QueryRequest b = a;
  std::reverse(b.values.begin(), b.values.end());
  EXPECT_EQ(service.CacheKey(a), service.CacheKey(b));
  b.k = a.k + 1;
  EXPECT_NE(service.CacheKey(a), service.CacheKey(b));
}

TEST_F(QueryServiceTest, InvalidateCacheBumpsEpochAndMisses) {
  QueryService service(engine_, QueryService::Options{});
  const uint64_t key_before = service.CacheKey(JoinRequest());
  ASSERT_TRUE(service.Execute(JoinRequest()).status.ok());
  service.InvalidateCache();
  EXPECT_NE(service.CacheKey(JoinRequest()), key_before);
  const QueryResponse after = service.Execute(JoinRequest());
  ASSERT_TRUE(after.status.ok());
  EXPECT_FALSE(after.cache_hit);
}

TEST_F(QueryServiceTest, ZeroDeadlineReturnsDeadlineExceeded) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest req = JoinRequest();
  req.deadline = std::chrono::milliseconds(0);
  const QueryResponse response = service.Execute(req);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response.columns.empty());
  // The expired query must not have populated the cache.
  EXPECT_EQ(service.cache().GetStats().insertions, 0u);
  // And a later unconstrained run is a miss, not a hit.
  const QueryResponse fresh = service.Execute(JoinRequest());
  ASSERT_TRUE(fresh.status.ok());
  EXPECT_FALSE(fresh.cache_hit);
}

TEST_F(QueryServiceTest, ZeroDeadlineOnEveryKind) {
  QueryService service(engine_, QueryService::Options{});
  for (QueryRequest req :
       {JoinRequest(), UnionRequest()}) {
    req.deadline = std::chrono::milliseconds(0);
    EXPECT_EQ(service.Execute(req).status.code(),
              StatusCode::kDeadlineExceeded);
  }
}

TEST_F(QueryServiceTest, CancelledQueryReturnsCancelledAndSkipsCache) {
  // Deterministic mid-flight cancellation: the worker blocks in the
  // pre-execute hook until the test has cancelled the token.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  QueryService::Options opts;
  bool first = true;
  opts.pre_execute_hook = [&entered, release_future,
                           &first](const QueryRequest&) {
    if (!first) return;
    first = false;
    entered.set_value();
    release_future.wait();
  };
  QueryService service(engine_, opts);
  Result<SubmittedQuery> submitted = service.Submit(JoinRequest());
  ASSERT_TRUE(submitted.ok());
  entered.get_future().wait();
  submitted->cancel->Cancel();
  release.set_value();
  const QueryResponse response = submitted->response.get();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(service.cache().GetStats().insertions, 0u);
}

TEST_F(QueryServiceTest, OverloadedWhenAdmissionQueueFull) {
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  QueryService::Options opts;
  opts.num_workers = 1;
  opts.max_pending = 1;
  bool first = true;
  opts.pre_execute_hook = [&entered, release_future,
                           &first](const QueryRequest&) {
    if (!first) return;
    first = false;
    entered.set_value();
    release_future.wait();
  };
  QueryService service(engine_, opts);
  Result<SubmittedQuery> first_query = service.Submit(JoinRequest());
  ASSERT_TRUE(first_query.ok());
  entered.get_future().wait();
  // The slot is occupied: the next submit must be rejected immediately.
  Result<SubmittedQuery> second_query = service.Submit(JoinRequest());
  ASSERT_FALSE(second_query.ok());
  EXPECT_EQ(second_query.status().code(), StatusCode::kOverloaded);
  release.set_value();
  EXPECT_TRUE(first_query->response.get().status.ok());
  EXPECT_EQ(service.metrics().GetCounter("serve.queries.rejected")->value(),
            1u);
}

TEST_F(QueryServiceTest, InvalidRequestsRejectedUpfront) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest empty_keyword;
  empty_keyword.kind = QueryKind::kKeyword;
  EXPECT_EQ(service.Submit(std::move(empty_keyword)).status().code(),
            StatusCode::kInvalidArgument);
  QueryRequest no_table;
  no_table.kind = QueryKind::kUnion;
  EXPECT_EQ(service.Submit(std::move(no_table)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, JoinWithoutValuesRejected) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest req;
  req.kind = QueryKind::kJoin;
  const Result<SubmittedQuery> submitted = service.Submit(std::move(req));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, CorrelatedWithoutEitherColumnRejected) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest no_numeric;
  no_numeric.kind = QueryKind::kCorrelated;
  no_numeric.values = {"a", "b"};
  EXPECT_EQ(service.Submit(std::move(no_numeric)).status().code(),
            StatusCode::kInvalidArgument);
  QueryRequest no_keys;
  no_keys.kind = QueryKind::kCorrelated;
  no_keys.numeric_values = {1.0, 2.0};
  EXPECT_EQ(service.Submit(std::move(no_keys)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(QueryServiceTest, CorrelatedMismatchedColumnLengthsRejected) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest req;
  req.kind = QueryKind::kCorrelated;
  req.values = {"a", "b", "c"};
  req.numeric_values = {1.0, 2.0};
  const Result<SubmittedQuery> submitted = service.Submit(std::move(req));
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kInvalidArgument);
  // The message names both lengths so the caller can fix the request.
  EXPECT_NE(submitted.status().message().find("3"), std::string::npos);
  EXPECT_NE(submitted.status().message().find("2"), std::string::npos);
}

TEST_F(QueryServiceTest, RejectedRequestsNeverReachExecutionOrMetrics) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest bad;
  bad.kind = QueryKind::kCorrelated;
  bad.values = {"a"};
  ASSERT_FALSE(service.Submit(std::move(bad)).ok());
  EXPECT_EQ(service.metrics().GetCounter("serve.queries.admitted")->value(),
            0u);
  EXPECT_EQ(service.pending(), 0u);
}

TEST_F(QueryServiceTest, ConcurrentMixedWorkloadIsConsistent) {
  QueryService::Options opts;
  opts.num_workers = 4;
  opts.max_pending = 1024;
  QueryService service(engine_, opts);
  const QueryResponse reference = service.Execute(JoinRequest());
  ASSERT_TRUE(reference.status.ok());

  std::vector<SubmittedQuery> inflight;
  for (int i = 0; i < 64; ++i) {
    QueryRequest req;
    if (i % 3 == 0) {
      req = JoinRequest();
    } else if (i % 3 == 1) {
      req.kind = QueryKind::kKeyword;
      req.keyword = lake_->topic_of[i % lake_->topic_of.size()];
      req.k = 5;
    } else {
      req = UnionRequest();
    }
    Result<SubmittedQuery> submitted = service.Submit(std::move(req));
    ASSERT_TRUE(submitted.ok());
    inflight.push_back(std::move(submitted).value());
  }
  size_t join_checked = 0;
  for (size_t i = 0; i < inflight.size(); ++i) {
    const QueryResponse response = inflight[i].response.get();
    ASSERT_TRUE(response.status.ok()) << response.status;
    if (i % 3 == 0) {
      ASSERT_EQ(response.columns.size(), reference.columns.size());
      for (size_t j = 0; j < response.columns.size(); ++j) {
        EXPECT_DOUBLE_EQ(response.columns[j].score,
                         reference.columns[j].score);
      }
      ++join_checked;
    }
  }
  EXPECT_GT(join_checked, 0u);
  EXPECT_GT(service.cache().GetStats().hits, 0u);
  EXPECT_EQ(service.pending(), 0u);
  // Every admitted query was recorded in a latency histogram.
  uint64_t recorded = 0;
  for (const auto& row : service.metrics().Snap().histograms) {
    if (row.name.rfind("serve.latency.", 0) == 0) recorded += row.count;
  }
  EXPECT_EQ(recorded, 65u);  // 64 + the reference query
}

TEST_F(QueryServiceTest, CacheKeyOfApproxOkRequestIsTheRoutedKey) {
  QueryService service(engine_, QueryService::Options{});
  QueryRequest req = JoinRequest();
  req.approx_ok = true;
  const QueryResponse response = service.Execute(req);
  ASSERT_TRUE(response.status.ok()) << response.status;
  ASSERT_EQ(response.served_by, "join.approx");
  CachedResult hit;
  EXPECT_TRUE(service.cache().Lookup(service.CacheKey(req), &hit));
}

// ------------------------------------------------------------------ route

/// Scripted signals: fixed answers, plus a record of what Route asked.
struct FakeSignals : RouteSignals {
  CircuitBreaker::Permit permit = CircuitBreaker::Permit::kAllowed;
  std::optional<std::chrono::nanoseconds> budget;
  LatencyHistogram latency;
  std::vector<std::string> permits_asked;
  int latency_reads = 0;

  CircuitBreaker::Permit Permit(const std::string& modality) override {
    permits_asked.push_back(modality);
    return permit;
  }
  std::optional<std::chrono::nanoseconds> Budget() override { return budget; }
  const LatencyHistogram& ExecLatency(const std::string&) override {
    ++latency_reads;
    return latency;
  }
  /// `n` samples of 1 ms each: p95 is 1 ms.
  void RecordMillis(int n) {
    for (int i = 0; i < n; ++i) latency.Record(1000);
  }
};

QueryRequest RouteJoin(JoinMethod method) {
  QueryRequest req;
  req.kind = QueryKind::kJoin;
  req.join_method = method;
  return req;
}

QueryRequest RouteUnion(UnionMethod method) {
  QueryRequest req;
  req.kind = QueryKind::kUnion;
  req.union_method = method;
  return req;
}

/// Every tier built (the engine default).
const DiscoveryEngine::Options kAllTiers{};

TEST(RouteTest, ApproxOkRoutesToTheSamplingTierWhenBuilt) {
  QueryRequest req = RouteJoin(JoinMethod::kJosie);
  req.approx_ok = true;
  const RoutePlan plan = Route(req, kAllTiers, true, nullptr);
  EXPECT_EQ(plan.primary.join_method, JoinMethod::kApprox);
  EXPECT_EQ(plan.primary.modality, "join.approx");
  EXPECT_FALSE(plan.fallback.has_value());  // kApprox is the floor
  EXPECT_EQ(plan.start, RoutePlan::Start::kPrimary);
}

TEST(RouteTest, ApproxOkKeepsTheRequestedMethodWhenApproxIsUnbuilt) {
  DiscoveryEngine::Options built;
  built.build_approx = false;
  QueryRequest req = RouteJoin(JoinMethod::kJosie);
  req.approx_ok = true;
  const RoutePlan plan = Route(req, built, true, nullptr);
  EXPECT_EQ(plan.primary.modality, "join.josie");
  ASSERT_TRUE(plan.fallback.has_value());
  EXPECT_EQ(plan.fallback->modality, "join.lsh_ensemble");
}

TEST(RouteTest, RequireExactMethodVetoesApproxOkAndBrownout) {
  QueryRequest req = RouteJoin(JoinMethod::kJosie);
  req.approx_ok = true;
  req.require_exact_method = true;
  const RoutePlan plan = Route(req, kAllTiers, true, nullptr);
  EXPECT_EQ(plan.primary.join_method, JoinMethod::kJosie);
  EXPECT_EQ(plan.primary.modality, "join.josie");
  EXPECT_FALSE(plan.fallback.has_value());
}

TEST(RouteTest, LadderRungs) {
  auto fallback_of = [](const QueryRequest& req,
                        const DiscoveryEngine::Options& built) {
    const RoutePlan plan = Route(req, built, true, nullptr);
    return plan.fallback ? plan.fallback->modality : std::string("none");
  };
  DiscoveryEngine::Options no_approx;
  no_approx.build_approx = false;
  DiscoveryEngine::Options no_join_tiers = no_approx;
  no_join_tiers.build_lsh_join = false;
  DiscoveryEngine::Options no_tus;
  no_tus.build_tus = false;

  EXPECT_EQ(fallback_of(RouteUnion(UnionMethod::kStarmie), kAllTiers),
            "union.tus");
  EXPECT_EQ(fallback_of(RouteUnion(UnionMethod::kStarmie), no_tus), "none");
  EXPECT_EQ(fallback_of(RouteUnion(UnionMethod::kTus), kAllTiers), "none");
  EXPECT_EQ(fallback_of(RouteJoin(JoinMethod::kJosie), kAllTiers),
            "join.approx");
  EXPECT_EQ(fallback_of(RouteJoin(JoinMethod::kJosie), no_approx),
            "join.lsh_ensemble");
  EXPECT_EQ(fallback_of(RouteJoin(JoinMethod::kJosie), no_join_tiers),
            "none");
  EXPECT_EQ(fallback_of(RouteJoin(JoinMethod::kApprox), kAllTiers), "none");
  EXPECT_EQ(fallback_of(RouteJoin(JoinMethod::kLshEnsemble), kAllTiers),
            "none");
  QueryRequest keyword;
  keyword.kind = QueryKind::kKeyword;
  EXPECT_EQ(fallback_of(keyword, kAllTiers), "none");
  EXPECT_EQ(Route(keyword, kAllTiers, true, nullptr).primary.modality,
            "keyword");

  // The fallback carries the rung's method, not the request's.
  const RoutePlan plan =
      Route(RouteUnion(UnionMethod::kStarmie), kAllTiers, true, nullptr);
  ASSERT_TRUE(plan.fallback.has_value());
  EXPECT_EQ(plan.fallback->union_method, UnionMethod::kTus);
}

TEST(RouteTest, BrownoutDisabledLeavesNoFallback) {
  FakeSignals signals;
  signals.permit = CircuitBreaker::Permit::kDenied;
  const RoutePlan plan =
      Route(RouteUnion(UnionMethod::kStarmie), kAllTiers, false, &signals);
  EXPECT_FALSE(plan.fallback.has_value());
  EXPECT_EQ(plan.start, RoutePlan::Start::kUnavailable);
}

TEST(RouteTest, BreakerDeniedStartsOnTheFallbackOrFails) {
  FakeSignals signals;
  signals.permit = CircuitBreaker::Permit::kDenied;
  signals.budget = std::chrono::milliseconds(100);
  RoutePlan plan =
      Route(RouteJoin(JoinMethod::kJosie), kAllTiers, true, &signals);
  EXPECT_EQ(plan.start, RoutePlan::Start::kFallbackOnly);
  EXPECT_EQ(plan.permit, CircuitBreaker::Permit::kDenied);
  ASSERT_TRUE(plan.fallback.has_value());
  EXPECT_EQ(plan.fallback->modality, "join.approx");

  plan = Route(RouteJoin(JoinMethod::kApprox), kAllTiers, true, &signals);
  EXPECT_EQ(plan.start, RoutePlan::Start::kUnavailable);
  // Only the primary's breaker is asked; a refusal needs no latency.
  EXPECT_EQ(signals.permits_asked,
            (std::vector<std::string>{"join.josie", "join.approx"}));
  EXPECT_EQ(signals.latency_reads, 0);
}

TEST(RouteTest, BudgetBelowP95StartsOnTheFallbackOnceTrusted) {
  FakeSignals signals;
  signals.budget = std::chrono::microseconds(500);
  signals.RecordMillis(31);
  const QueryRequest req = RouteUnion(UnionMethod::kStarmie);
  // 31 samples: the p95 is not trusted yet.
  EXPECT_EQ(Route(req, kAllTiers, true, &signals).start,
            RoutePlan::Start::kPrimary);
  signals.RecordMillis(1);
  EXPECT_EQ(Route(req, kAllTiers, true, &signals).start,
            RoutePlan::Start::kFallback);
  // A budget above the p95 runs the primary.
  signals.budget = std::chrono::milliseconds(5);
  EXPECT_EQ(Route(req, kAllTiers, true, &signals).start,
            RoutePlan::Start::kPrimary);
}

TEST(RouteTest, NoDeadlineOrNoFallbackNeverReadsLatency) {
  FakeSignals signals;
  signals.RecordMillis(64);
  EXPECT_EQ(
      Route(RouteUnion(UnionMethod::kStarmie), kAllTiers, true, &signals)
          .start,
      RoutePlan::Start::kPrimary);
  signals.budget = std::chrono::microseconds(1);
  EXPECT_EQ(
      Route(RouteUnion(UnionMethod::kTus), kAllTiers, true, &signals).start,
      RoutePlan::Start::kPrimary);
  EXPECT_EQ(signals.latency_reads, 0);
}

TEST(RouteTest, HalfOpenProbeAlwaysRunsThePrimary) {
  FakeSignals signals;
  signals.permit = CircuitBreaker::Permit::kProbe;
  signals.budget = std::chrono::microseconds(1);
  signals.RecordMillis(64);
  const RoutePlan plan =
      Route(RouteJoin(JoinMethod::kJosie), kAllTiers, true, &signals);
  EXPECT_EQ(plan.start, RoutePlan::Start::kPrimary);
  EXPECT_EQ(plan.permit, CircuitBreaker::Permit::kProbe);
  EXPECT_TRUE(plan.fallback.has_value());
  EXPECT_EQ(signals.latency_reads, 0);
}

TEST(RouteTest, WithoutSignalsPlansThePrimaryOnly) {
  const RoutePlan plan =
      Route(RouteJoin(JoinMethod::kJosie), kAllTiers, true, nullptr);
  EXPECT_EQ(plan.start, RoutePlan::Start::kPrimary);
  EXPECT_EQ(plan.permit, CircuitBreaker::Permit::kAllowed);
}

}  // namespace
}  // namespace lake::serve
