#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/compactor.h"
#include "ingest/live_engine.h"
#include "ingest/pipeline.h"
#include "lakegen/generator.h"
#include "serve/query_service.h"
#include "store/snapshot.h"
#include "table/csv.h"
#include "util/failpoint.h"

namespace lake::ingest {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lake_ingest_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

DiscoveryEngine::Options BaseOptions() {
  DiscoveryEngine::Options eopts;
  eopts.build_pexeso = false;
  eopts.build_mate = false;
  eopts.build_correlated = false;
  eopts.build_santos = false;
  eopts.build_d3l = false;
  eopts.synthesize_kb = false;
  eopts.train_annotator = false;
  return eopts;
}

/// Shared immutable base (catalog + fully-built engine) for all tests;
/// each test wraps it in its own LiveEngine, which never mutates it.
class LiveEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions opts;
    opts.seed = 11;
    opts.num_domains = 6;
    opts.num_templates = 3;
    opts.tables_per_template = 3;
    opts.min_rows = 30;
    opts.max_rows = 60;
    lake_ = new GeneratedLake(LakeGenerator(opts).Generate());
    catalog_ = new std::shared_ptr<const DataLakeCatalog>(
        std::make_shared<DataLakeCatalog>(std::move(lake_->catalog)));
    engine_ = new std::shared_ptr<const DiscoveryEngine>(
        std::make_shared<DiscoveryEngine>(catalog_->get(), &lake_->kb,
                                          BaseOptions()));
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete catalog_;
    delete lake_;
    engine_ = nullptr;
    catalog_ = nullptr;
    lake_ = nullptr;
  }

  void TearDown() override { FailpointRegistry::Instance().ClearAll(); }

  static const DataLakeCatalog& base() { return **catalog_; }

  static LiveEngine::Options LiveOptions() {
    LiveEngine::Options opts;
    opts.base_options = BaseOptions();
    opts.kb = &lake_->kb;
    return opts;
  }

  static std::unique_ptr<LiveEngine> MakeLive(LiveEngine::Options opts) {
    return std::make_unique<LiveEngine>(*catalog_, *engine_, std::move(opts));
  }
  static std::unique_ptr<LiveEngine> MakeLive() {
    return MakeLive(LiveOptions());
  }

  /// A copy of a base table under a new name — the ingest payload used
  /// throughout: it overlaps its origin's join columns and is unionable
  /// with its origin's template group by construction.
  static Table Derived(TableId origin, const std::string& name) {
    Table copy = base().table(origin);
    copy.set_name(name);
    return copy;
  }

  static bool ContainsTable(const std::vector<TableResult>& results,
                            TableId id) {
    return std::any_of(results.begin(), results.end(),
                       [&](const TableResult& r) { return r.table_id == id; });
  }
  static bool ContainsColumnOf(const std::vector<ColumnResult>& results,
                               TableId id) {
    return std::any_of(
        results.begin(), results.end(),
        [&](const ColumnResult& r) { return r.column.table_id == id; });
  }

  static GeneratedLake* lake_;
  static std::shared_ptr<const DataLakeCatalog>* catalog_;
  static std::shared_ptr<const DiscoveryEngine>* engine_;
};

GeneratedLake* LiveEngineTest::lake_ = nullptr;
std::shared_ptr<const DataLakeCatalog>* LiveEngineTest::catalog_ = nullptr;
std::shared_ptr<const DiscoveryEngine>* LiveEngineTest::engine_ = nullptr;

// ----------------------------------------------------------- generations

TEST_F(LiveEngineTest, InitialGenerationServesBaseUnchanged) {
  auto live = MakeLive();
  auto gen = live->Acquire();
  ASSERT_NE(gen, nullptr);
  EXPECT_FALSE(gen->has_delta());
  EXPECT_EQ(gen->base_table_count(), base().num_tables());
  EXPECT_EQ(gen->visible_table_count(), base().num_tables());

  const std::vector<TableResult> merged =
      MergedKeyword(*gen, lake_->topic_of[0], 5);
  const std::vector<TableResult> direct =
      gen->base().Keyword(lake_->topic_of[0], 5);
  ASSERT_EQ(merged.size(), direct.size());
  for (size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].table_id, direct[i].table_id);
    EXPECT_DOUBLE_EQ(merged[i].score, direct[i].score);
  }
}

TEST_F(LiveEngineTest, AddedTableIsDiscoverableWithoutRestart) {
  auto live = MakeLive();
  const TableId origin = lake_->unionable_groups[0][0];
  Result<TableId> added = live->AddTable(Derived(origin, "streamed_tbl"));
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_GE(added.value(), base().num_tables());  // delta id range

  auto gen = live->Acquire();
  EXPECT_TRUE(gen->has_delta());
  EXPECT_EQ(gen->visible_table_count(), base().num_tables() + 1);
  ASSERT_TRUE(gen->FindTable("streamed_tbl").ok());
  EXPECT_EQ(gen->FindTable("streamed_tbl").value(), added.value());
  ASSERT_TRUE(gen->TableName(added.value()).ok());
  EXPECT_EQ(gen->TableName(added.value()).value(), "streamed_tbl");

  // Keyword: the topic of the origin's template also matches the copy.
  const int tmpl = lake_->template_of[origin];
  MergeStats stats;
  const std::vector<TableResult> keyword =
      MergedKeyword(*gen, lake_->topic_of[tmpl], 20, &stats);
  EXPECT_TRUE(ContainsTable(keyword, added.value()));
  EXPECT_GT(stats.delta_results, 0u);

  // Joinable: the copy's first column overlaps the origin's exactly.
  const std::vector<std::string> values =
      base().table(origin).column(0).DistinctStrings();
  Result<std::vector<ColumnResult>> join =
      MergedJoinable(*gen, values, JoinMethod::kJosie, 20);
  ASSERT_TRUE(join.ok()) << join.status();
  EXPECT_TRUE(ContainsColumnOf(join.value(), added.value()));

  // Unionable: querying with the copy itself must surface the copy.
  Result<std::vector<TableResult>> uni = MergedUnionable(
      *gen, base().table(origin), UnionMethod::kStarmie, 20);
  ASSERT_TRUE(uni.ok()) << uni.status();
  EXPECT_TRUE(ContainsTable(uni.value(), added.value()));
}

TEST_F(LiveEngineTest, RemovedBaseTableDisappearsImmediately) {
  auto live = MakeLive();
  const TableId victim = lake_->unionable_groups[0][0];
  const std::string name = base().table(victim).name();
  const int tmpl = lake_->template_of[victim];

  // Visible before.
  {
    auto gen = live->Acquire();
    EXPECT_TRUE(
        ContainsTable(MergedKeyword(*gen, lake_->topic_of[tmpl], 50), victim));
  }

  ASSERT_TRUE(live->RemoveTable(name).ok());
  auto gen = live->Acquire();
  EXPECT_EQ(gen->visible_table_count(), base().num_tables() - 1);
  EXPECT_FALSE(gen->FindTable(name).ok());
  EXPECT_FALSE(gen->FindTableById(victim).ok());

  MergeStats stats;
  EXPECT_FALSE(ContainsTable(
      MergedKeyword(*gen, lake_->topic_of[tmpl], 50, &stats), victim));
  EXPECT_GT(stats.tombstone_filtered, 0u);

  const std::vector<std::string> values =
      base().table(victim).column(0).DistinctStrings();
  Result<std::vector<ColumnResult>> join =
      MergedJoinable(*gen, values, JoinMethod::kJosie, 50);
  ASSERT_TRUE(join.ok());
  EXPECT_FALSE(ContainsColumnOf(join.value(), victim));

  // Removing twice reports NotFound.
  EXPECT_EQ(live->RemoveTable(name).code(), StatusCode::kNotFound);
}

TEST_F(LiveEngineTest, NameRulesAndShadowing) {
  auto live = MakeLive();
  // Duplicate of a live base name is rejected.
  const std::string taken = base().table(0).name();
  EXPECT_EQ(live->AddTable(Derived(0, taken)).status().code(),
            StatusCode::kAlreadyExists);
  // Invalid names are rejected (section naming owns '/').
  EXPECT_EQ(live->AddTable(Derived(0, "")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live->AddTable(Derived(0, "a/b")).status().code(),
            StatusCode::kInvalidArgument);
  // A tombstoned base name can be re-used; the delta shadows the corpse.
  ASSERT_TRUE(live->RemoveTable(taken).ok());
  Result<TableId> readd = live->AddTable(Derived(1, taken));
  ASSERT_TRUE(readd.ok()) << readd.status();
  auto gen = live->Acquire();
  ASSERT_TRUE(gen->FindTable(taken).ok());
  EXPECT_EQ(gen->FindTable(taken).value(), readd.value());
  EXPECT_TRUE(gen->IsDeltaId(gen->FindTable(taken).value()));
}

TEST_F(LiveEngineTest, BatchPublishesOneGeneration) {
  auto live = MakeLive();
  const uint64_t before = live->version();
  LiveEngine::Batch batch;
  batch.adds.push_back(Derived(0, "batch_a"));
  batch.adds.push_back(Derived(1, "batch_b"));
  batch.removes.push_back(base().table(2).name());
  LiveEngine::BatchOutcome outcome = live->ApplyBatch(std::move(batch));
  EXPECT_TRUE(outcome.published);
  ASSERT_EQ(outcome.adds.size(), 2u);
  ASSERT_EQ(outcome.removes.size(), 1u);
  EXPECT_TRUE(outcome.adds[0].ok());
  EXPECT_TRUE(outcome.adds[1].ok());
  EXPECT_TRUE(outcome.removes[0].ok());
  EXPECT_EQ(live->version(), before + 1);  // one publish for the whole batch
  EXPECT_EQ(live->Acquire()->visible_table_count(), base().num_tables() + 1);
}

// ------------------------------------------------------------ compaction

TEST_F(LiveEngineTest, CompactionMatchesColdRebuildBitForBit) {
  auto live = MakeLive();
  const TableId origin = lake_->unionable_groups[0][0];
  ASSERT_TRUE(live->AddTable(Derived(origin, "zz_streamed")).ok());
  ASSERT_TRUE(live->AddTable(Derived(origin, "aa_streamed")).ok());
  const std::string removed = base().table(lake_->unionable_groups[1][0]).name();
  ASSERT_TRUE(live->RemoveTable(removed).ok());

  Result<LiveEngine::CompactionStats> stats = live->Compact();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->input_delta_tables, 2u);
  EXPECT_EQ(stats->tombstones_cleared, 1u);
  EXPECT_EQ(stats->output_tables, base().num_tables() + 1);
  EXPECT_EQ(live->num_delta_tables(), 0u);
  EXPECT_EQ(live->num_tombstones(), 0u);
  EXPECT_EQ(live->compactions(), 1u);

  auto gen = live->Acquire();
  EXPECT_FALSE(gen->has_delta());
  EXPECT_EQ(gen->number(), 1u);

  // Cold rebuild over the surviving corpus in sorted-name order — the
  // exact procedure a from-scratch boot would run.
  std::vector<const Table*> survivors;
  for (TableId id : base().AllTables()) {
    if (base().table(id).name() != removed) {
      survivors.push_back(&base().table(id));
    }
  }
  Table zz = Derived(origin, "zz_streamed");
  Table aa = Derived(origin, "aa_streamed");
  survivors.push_back(&zz);
  survivors.push_back(&aa);
  std::sort(survivors.begin(), survivors.end(),
            [](const Table* a, const Table* b) { return a->name() < b->name(); });
  DataLakeCatalog cold_catalog;
  for (const Table* t : survivors) {
    ASSERT_TRUE(cold_catalog.AddTable(*t).ok());
  }
  DiscoveryEngine cold(&cold_catalog, &lake_->kb, BaseOptions());

  // Identical id assignment...
  ASSERT_EQ(gen->base_catalog().num_tables(), cold_catalog.num_tables());
  for (TableId id : cold_catalog.AllTables()) {
    EXPECT_EQ(gen->base_catalog().table(id).name(),
              cold_catalog.table(id).name());
  }

  // ...and bit-identical answers across modalities (merged == base here,
  // since the delta is empty).
  const std::vector<TableResult> k1 =
      MergedKeyword(*gen, lake_->topic_of[0], 10);
  const std::vector<TableResult> k2 = cold.Keyword(lake_->topic_of[0], 10);
  ASSERT_EQ(k1.size(), k2.size());
  for (size_t i = 0; i < k1.size(); ++i) {
    EXPECT_EQ(k1[i].table_id, k2[i].table_id);
    EXPECT_DOUBLE_EQ(k1[i].score, k2[i].score);
  }

  const std::vector<std::string> values =
      base().table(origin).column(0).DistinctStrings();
  Result<std::vector<ColumnResult>> j1 =
      MergedJoinable(*gen, values, JoinMethod::kJosie, 10);
  Result<std::vector<ColumnResult>> j2 =
      cold.Joinable(values, JoinMethod::kJosie, 10);
  ASSERT_TRUE(j1.ok());
  ASSERT_TRUE(j2.ok());
  ASSERT_EQ(j1->size(), j2->size());
  for (size_t i = 0; i < j1->size(); ++i) {
    EXPECT_EQ((*j1)[i].column, (*j2)[i].column);
    EXPECT_DOUBLE_EQ((*j1)[i].score, (*j2)[i].score);
  }

  Result<std::vector<TableResult>> u1 = MergedUnionable(
      *gen, base().table(origin), UnionMethod::kStarmie, 10);
  Result<std::vector<TableResult>> u2 =
      cold.Unionable(base().table(origin), UnionMethod::kStarmie, 10);
  ASSERT_TRUE(u1.ok());
  ASSERT_TRUE(u2.ok());
  ASSERT_EQ(u1->size(), u2->size());
  for (size_t i = 0; i < u1->size(); ++i) {
    EXPECT_EQ((*u1)[i].table_id, (*u2)[i].table_id);
    EXPECT_DOUBLE_EQ((*u1)[i].score, (*u2)[i].score);
  }
}

TEST_F(LiveEngineTest, CompactionNeededThresholds) {
  auto live = MakeLive();
  EXPECT_FALSE(live->CompactionNeeded(2, 0.5));
  ASSERT_TRUE(live->AddTable(Derived(0, "cn_a")).ok());
  EXPECT_FALSE(live->CompactionNeeded(2, 0.5));
  ASSERT_TRUE(live->AddTable(Derived(0, "cn_b")).ok());
  EXPECT_TRUE(live->CompactionNeeded(2, 0.5));  // delta size trips
  auto live2 = MakeLive();
  ASSERT_TRUE(live2->RemoveTable(base().table(0).name()).ok());
  // 1 tombstone / 9 base tables ≈ 0.11.
  EXPECT_TRUE(live2->CompactionNeeded(100, 0.1));
  EXPECT_FALSE(live2->CompactionNeeded(100, 0.5));
}

// ------------------------------------------------------------ failpoints

TEST_F(LiveEngineTest, PublishFailpointRejectsWholeBatchAtomically) {
  auto live = MakeLive();
  const uint64_t version = live->version();
  FailpointRegistry::Instance().Arm(
      "ingest.publish.swap", FaultSpec{FaultSpec::Kind::kError});
  LiveEngine::Batch batch;
  batch.adds.push_back(Derived(0, "fp_add"));
  batch.removes.push_back(base().table(1).name());
  LiveEngine::BatchOutcome outcome = live->ApplyBatch(std::move(batch));
  EXPECT_FALSE(outcome.published);
  ASSERT_EQ(outcome.adds.size(), 1u);
  EXPECT_EQ(outcome.adds[0].status().code(), StatusCode::kIoError);
  EXPECT_EQ(outcome.removes[0].code(), StatusCode::kIoError);
  EXPECT_EQ(live->version(), version);
  EXPECT_EQ(live->num_delta_tables(), 0u);
  EXPECT_EQ(live->num_tombstones(), 0u);
  // One-shot fault: the retry succeeds.
  EXPECT_TRUE(live->AddTable(Derived(0, "fp_add")).ok());
}

TEST_F(LiveEngineTest, CompactionFailpointsAbortWithStateUnchanged) {
  for (const char* site : {"ingest.compact.build", "ingest.compact.swap"}) {
    auto live = MakeLive();
    ASSERT_TRUE(live->AddTable(Derived(0, "fp_delta")).ok());
    const uint64_t version = live->version();
    FailpointRegistry::Instance().Arm(site,
                                      FaultSpec{FaultSpec::Kind::kError});
    Result<LiveEngine::CompactionStats> stats = live->Compact();
    EXPECT_FALSE(stats.ok()) << site;
    EXPECT_EQ(live->version(), version) << site;
    EXPECT_EQ(live->num_delta_tables(), 1u) << site;
    EXPECT_EQ(live->compactions(), 0u) << site;
    EXPECT_EQ(live->Acquire()->number(), 0u) << site;
    FailpointRegistry::Instance().Clear();
    // The delta is still intact and compactable.
    ASSERT_TRUE(live->Compact().ok()) << site;
    EXPECT_EQ(live->num_delta_tables(), 0u) << site;
  }
}

// ------------------------------------------------------------ durability

TEST_F(LiveEngineTest, CheckpointRecoverRoundTrip) {
  const std::string dir = TestDir("roundtrip");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  auto live = MakeLive(opts);
  const TableId origin = lake_->unionable_groups[0][0];
  ASSERT_TRUE(live->AddTable(Derived(origin, "persisted_delta")).ok());
  const std::string removed = base().table(lake_->unionable_groups[1][0]).name();
  ASSERT_TRUE(live->RemoveTable(removed).ok());
  ASSERT_TRUE(live->Checkpoint().ok());

  LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<LiveEngine>> recovered =
      LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.tables_loaded, base().num_tables());
  EXPECT_EQ(report.index_sections_loaded, 2u);  // josie + starmie.hnsw
  EXPECT_EQ(report.index_sections_rebuilt, 0u);
  EXPECT_EQ(report.deltas_replayed, 1u);
  EXPECT_EQ(report.deltas_dropped, 0u);
  EXPECT_EQ(report.tombstones_replayed, 1u);

  auto orig = live->Acquire();
  auto gen = (*recovered)->Acquire();
  EXPECT_EQ(gen->visible_table_count(), orig->visible_table_count());
  EXPECT_TRUE(gen->FindTable("persisted_delta").ok());
  EXPECT_FALSE(gen->FindTable(removed).ok());

  // Merged answers from the recovered engine match the original live one.
  const std::vector<TableResult> k1 =
      MergedKeyword(*orig, lake_->topic_of[0], 10);
  const std::vector<TableResult> k2 =
      MergedKeyword(*gen, lake_->topic_of[0], 10);
  ASSERT_EQ(k1.size(), k2.size());
  for (size_t i = 0; i < k1.size(); ++i) {
    EXPECT_EQ(k1[i].table_id, k2[i].table_id);
    EXPECT_DOUBLE_EQ(k1[i].score, k2[i].score);
  }
}

TEST_F(LiveEngineTest, PersistFailpointKeepsPreviousCommittedGeneration) {
  const std::string dir = TestDir("persist_fp");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  auto live = MakeLive(opts);
  ASSERT_TRUE(live->AddTable(Derived(0, "gen1_delta")).ok());
  ASSERT_TRUE(live->Checkpoint().ok());

  ASSERT_TRUE(live->AddTable(Derived(1, "gen2_delta")).ok());
  FailpointRegistry::Instance().Arm("ingest.delta.persist",
                                    FaultSpec{FaultSpec::Kind::kError});
  EXPECT_EQ(live->Checkpoint().code(), StatusCode::kIoError);

  // Recovery sees the last committed generation: gen1_delta only.
  Result<std::unique_ptr<LiveEngine>> recovered =
      LiveEngine::Recover(&store, opts, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto gen = (*recovered)->Acquire();
  EXPECT_TRUE(gen->FindTable("gen1_delta").ok());
  EXPECT_FALSE(gen->FindTable("gen2_delta").ok());
}

TEST_F(LiveEngineTest, RecoverDropsCorruptDeltaButKeepsBaseConsistent) {
  const std::string dir = TestDir("corrupt_delta");
  store::SnapshotStore store(dir);
  LiveEngine::Options opts = LiveOptions();
  opts.store = &store;
  auto live = MakeLive(opts);
  ASSERT_TRUE(live->AddTable(Derived(0, "doomed_delta")).ok());
  ASSERT_TRUE(live->AddTable(Derived(1, "healthy_delta")).ok());
  ASSERT_TRUE(live->Checkpoint().ok());

  // Flip one byte inside the doomed delta section's payload.
  const std::string snap_path =
      dir + "/" + store::SnapshotStore::SnapshotFileName(1);
  std::ifstream in(snap_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = std::move(buf).str();
  in.close();
  Result<store::SnapshotReader> reader = store::SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());
  bool flipped = false;
  for (const auto& section : reader->sections()) {
    if (section.name == std::string(LiveEngine::kDeltaPrefix) +
                            "doomed_delta") {
      bytes[section.offset + section.size / 2] ^= 0x40;
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  std::ofstream out(snap_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  LiveEngine::RecoveryReport report;
  Result<std::unique_ptr<LiveEngine>> recovered =
      LiveEngine::Recover(&store, opts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(report.deltas_replayed, 1u);
  EXPECT_EQ(report.deltas_dropped, 1u);
  EXPECT_EQ(report.index_sections_rebuilt, 0u);  // base untouched
  auto gen = (*recovered)->Acquire();
  EXPECT_FALSE(gen->FindTable("doomed_delta").ok());
  EXPECT_TRUE(gen->FindTable("healthy_delta").ok());
  EXPECT_EQ(gen->base_table_count(), base().num_tables());
}

// -------------------------------------------------------------- pipeline

TEST_F(LiveEngineTest, PipelinePublishesSubmittedTables) {
  auto live = MakeLive();
  IngestPipeline::Options popts;
  popts.batch_max_tables = 4;
  popts.batch_max_delay_ms = 1;
  IngestPipeline pipeline(live.get(), popts);

  const Table origin = base().table(0);
  std::future<Result<TableId>> via_table =
      pipeline.SubmitTable(Derived(0, "pipe_table"));
  std::future<Result<TableId>> via_csv = pipeline.SubmitCsvString(
      WriteCsvString(origin), "pipe_csv");
  std::future<Result<TableId>> bad_name =
      pipeline.SubmitTable(Derived(0, "pipe/slash"));
  std::future<Status> remove = pipeline.SubmitRemove(origin.name());

  Result<TableId> id1 = via_table.get();
  Result<TableId> id2 = via_csv.get();
  ASSERT_TRUE(id1.ok()) << id1.status();
  ASSERT_TRUE(id2.ok()) << id2.status();
  EXPECT_EQ(bad_name.get().status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(remove.get().ok());
  pipeline.Flush();

  auto gen = live->Acquire();
  EXPECT_TRUE(gen->FindTable("pipe_table").ok());
  EXPECT_TRUE(gen->FindTable("pipe_csv").ok());
  EXPECT_FALSE(gen->FindTable(origin.name()).ok());
  EXPECT_EQ(pipeline.queue_depth(), 0u);
}

TEST_F(LiveEngineTest, PipelineFailsFastWhenQueueFull) {
  auto live = MakeLive();
  IngestPipeline::Options popts;
  popts.queue_capacity = 0;  // everything rejects immediately
  IngestPipeline pipeline(live.get(), popts);
  std::future<Result<TableId>> f = pipeline.SubmitTable(Derived(0, "nope"));
  EXPECT_EQ(f.get().status().code(), StatusCode::kOverloaded);
  std::future<Status> r = pipeline.SubmitRemove("whatever");
  EXPECT_EQ(r.get().code(), StatusCode::kOverloaded);
}

TEST_F(LiveEngineTest, CompactorTriggersOnDeltaThreshold) {
  auto live = MakeLive();
  Compactor::Options copts;
  copts.max_delta_tables = 2;
  copts.poll_interval_ms = 5;
  Compactor compactor(live.get(), copts);
  ASSERT_TRUE(live->AddTable(Derived(0, "auto_a")).ok());
  ASSERT_TRUE(live->AddTable(Derived(0, "auto_b")).ok());
  // The compactor polls every 5ms; give the heavy rebuild generous time.
  for (int i = 0; i < 1000 && live->compactions() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  compactor.Stop();
  EXPECT_GE(live->compactions(), 1u);
  EXPECT_EQ(live->num_delta_tables(), 0u);
  EXPECT_GE(compactor.runs(), 1u);
  auto gen = live->Acquire();
  EXPECT_TRUE(gen->FindTable("auto_a").ok());
  EXPECT_TRUE(gen->FindTable("auto_b").ok());
  EXPECT_FALSE(gen->has_delta());
}

// --------------------------------------------------- service integration

TEST_F(LiveEngineTest, QueryServiceServesLiveEngineAcrossMutations) {
  auto live = MakeLive();
  serve::QueryService service(live.get(), serve::QueryService::Options{});

  const TableId origin = lake_->unionable_groups[0][0];
  const int tmpl = lake_->template_of[origin];
  serve::QueryRequest req;
  req.kind = serve::QueryKind::kKeyword;
  req.keyword = lake_->topic_of[tmpl];
  req.k = 50;

  serve::QueryResponse before = service.Execute(req);
  ASSERT_TRUE(before.status.ok()) << before.status;
  const size_t visible_before = before.tables.size();

  // Add through the live engine: the service picks it up with no restart,
  // and the stale cached answer is version-keyed away.
  ASSERT_TRUE(live->AddTable(Derived(origin, "service_delta")).ok());
  serve::QueryResponse after = service.Execute(req);
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_FALSE(after.cache_hit);
  auto gen = live->Acquire();
  const TableId delta_id = gen->FindTable("service_delta").value();
  EXPECT_TRUE(ContainsTable(after.tables, delta_id));
  EXPECT_GE(after.tables.size(), visible_before);
  EXPECT_GT(
      service.metrics().GetCounter("serve.ingest.delta_hits")->value(), 0u);

  // Same request again (no mutation in between) is a cache hit.
  serve::QueryResponse cached = service.Execute(req);
  ASSERT_TRUE(cached.status.ok());
  EXPECT_TRUE(cached.cache_hit);

  // Remove the origin: it disappears from served results immediately.
  ASSERT_TRUE(live->RemoveTable(base().table(origin).name()).ok());
  serve::QueryResponse removed = service.Execute(req);
  ASSERT_TRUE(removed.status.ok());
  EXPECT_FALSE(removed.cache_hit);
  EXPECT_FALSE(ContainsTable(removed.tables, origin));

  // Join and union also serve merged answers through the service.
  serve::QueryRequest join;
  join.kind = serve::QueryKind::kJoin;
  join.join_method = JoinMethod::kJosie;
  join.values = base().table(origin).column(0).DistinctStrings();
  join.k = 20;
  serve::QueryResponse jr = service.Execute(join);
  ASSERT_TRUE(jr.status.ok()) << jr.status;
  EXPECT_TRUE(ContainsColumnOf(jr.columns, delta_id));

  serve::QueryRequest uni;
  uni.kind = serve::QueryKind::kUnion;
  uni.union_method = UnionMethod::kStarmie;
  uni.union_table = &base().table(origin);
  uni.k = 20;
  serve::QueryResponse ur = service.Execute(uni);
  ASSERT_TRUE(ur.status.ok()) << ur.status;
  EXPECT_TRUE(ContainsTable(ur.tables, delta_id));
}

// Correlated search is base-only (the delta never builds it), but a
// removed base table must still leave it at once, as it leaves every other
// query kind — not only at the next compaction.
TEST_F(LiveEngineTest, RemovedTableLeavesCorrelatedSearchImmediately) {
  DiscoveryEngine::Options eopts = BaseOptions();
  eopts.build_correlated = true;
  LiveEngine::Options lopts = LiveOptions();
  lopts.base_options = eopts;
  LiveEngine live(*catalog_,
                  std::make_shared<const DiscoveryEngine>(catalog_->get(),
                                                          &lake_->kb, eopts),
                  lopts);
  serve::QueryService service(&live, serve::QueryService::Options{});

  const Table& origin = base().table(0);
  serve::QueryRequest corr;
  corr.kind = serve::QueryKind::kCorrelated;
  corr.k = 5;
  for (size_t c = 0; c < origin.num_columns(); ++c) {
    if (!origin.column(c).IsNumeric() && corr.values.empty()) {
      corr.values = origin.column(c).NonNullStrings();
    }
    if (origin.column(c).IsNumeric() && corr.numeric_values.empty()) {
      corr.numeric_values = origin.column(c).Numbers();
    }
  }
  const size_t rows =
      std::min(corr.values.size(), corr.numeric_values.size());
  ASSERT_GT(rows, 0u);
  corr.values.resize(rows);
  corr.numeric_values.resize(rows);

  const serve::QueryResponse before = service.Execute(corr);
  ASSERT_TRUE(before.status.ok()) << before.status;
  ASSERT_FALSE(before.columns.empty());
  const TableId top = before.columns[0].column.table_id;
  serve::QueryRequest wide_req = corr;
  wide_req.k = 50;
  const serve::QueryResponse wide = service.Execute(wide_req);
  ASSERT_TRUE(wide.status.ok()) << wide.status;

  ASSERT_TRUE(live.RemoveTable(base().table(top).name()).ok());
  const serve::QueryResponse after = service.Execute(corr);
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_FALSE(after.cache_hit);
  EXPECT_FALSE(ContainsColumnOf(after.columns, top));

  // The survivors keep their order: the removed table's hits are filtered
  // out of a ranking that is otherwise unchanged.
  std::vector<ColumnResult> survivors;
  for (const ColumnResult& r : wide.columns) {
    if (r.column.table_id != top) survivors.push_back(r);
  }
  ASSERT_FALSE(after.columns.empty());
  ASSERT_LE(after.columns.size(), survivors.size());
  for (size_t i = 0; i < after.columns.size(); ++i) {
    EXPECT_TRUE(after.columns[i].column == survivors[i].column) << i;
    EXPECT_EQ(after.columns[i].why, survivors[i].why) << i;
  }

  // A join on the same service agrees that the table is gone.
  serve::QueryRequest join;
  join.kind = serve::QueryKind::kJoin;
  join.join_method = JoinMethod::kJosie;
  join.values = corr.values;
  join.k = 50;
  const serve::QueryResponse jr = service.Execute(join);
  ASSERT_TRUE(jr.status.ok()) << jr.status;
  EXPECT_FALSE(ContainsColumnOf(jr.columns, top));
}

}  // namespace
}  // namespace lake::ingest
