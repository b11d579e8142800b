#include <gtest/gtest.h>

#include <unordered_set>

#include "lakegen/benchmark_lakes.h"
#include "search/discovery_engine.h"
#include "table/csv.h"
#include "util/logging.h"

namespace lake {
namespace {

/// End-to-end test of the full Figure-1 pipeline: generate a lake, build
/// every index through the DiscoveryEngine facade, and run every query
/// type against ground truth. One engine is shared across tests because
/// construction builds ~10 indexes.
class DiscoveryEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lake_ = new GeneratedLake(MakeUnionBenchmarkLake(
        /*seed=*/31, /*tables_per_template=*/5, /*distractors=*/6));
    engine_ = new DiscoveryEngine(&lake_->catalog, &lake_->kb,
                                  DiscoveryEngine::Options{});
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete lake_;
  }

  static GeneratedLake* lake_;
  static DiscoveryEngine* engine_;
};

GeneratedLake* DiscoveryEngineTest::lake_ = nullptr;
DiscoveryEngine* DiscoveryEngineTest::engine_ = nullptr;

TEST_F(DiscoveryEngineTest, AllEnginesBuilt) {
  EXPECT_NE(engine_->keyword_engine(), nullptr);
  EXPECT_NE(engine_->exact_join(), nullptr);
  EXPECT_NE(engine_->lsh_join(), nullptr);
  EXPECT_NE(engine_->josie_join(), nullptr);
  EXPECT_NE(engine_->pexeso_join(), nullptr);
  EXPECT_NE(engine_->mate_join(), nullptr);
  EXPECT_NE(engine_->correlated_join(), nullptr);
  EXPECT_NE(engine_->tus(), nullptr);
  EXPECT_NE(engine_->santos(), nullptr);
  EXPECT_NE(engine_->starmie(), nullptr);
  // Curated KB was augmented with synthesized facts.
  EXPECT_GT(engine_->kb().num_relation_instances(),
            lake_->kb.num_relation_instances());
}

TEST_F(DiscoveryEngineTest, KeywordSearchFindsTopicTables) {
  const std::string& topic = lake_->topic_of[0];
  const auto results = engine_->Keyword(topic, 5);
  ASSERT_FALSE(results.empty());
  // Relevant = every table whose template is about this topic (several
  // templates can share a subject topic, and distractors are topical too).
  std::vector<TableId> relevant;
  for (const auto& [t, tmpl] : lake_->template_of) {
    if (lake_->topic_of[tmpl] == topic) relevant.push_back(t);
  }
  EXPECT_GT(PrecisionAtK(results, relevant, 5), 0.3);
}

TEST_F(DiscoveryEngineTest, JoinableMethodsAgreeOnStrongSignal) {
  // Query column: the subject column of a template table.
  const TableId q = lake_->unionable_groups[0][0];
  const auto values =
      lake_->catalog.table(q).column(0).DistinctStrings();

  for (JoinMethod method :
       {JoinMethod::kExactJaccard, JoinMethod::kExactContainment,
        JoinMethod::kJosie}) {
    const auto results = engine_->Joinable(values, method, 10).value();
    ASSERT_FALSE(results.empty());
    // The query table's own column is indexed, so the top hit must be a
    // same-domain column with a near-perfect score.
    EXPECT_EQ(results[0].column.table_id, q)
        << "method " << static_cast<int>(method);
  }
}

TEST_F(DiscoveryEngineTest, LshEnsembleFindsSubjectColumn) {
  const TableId q = lake_->unionable_groups[1][0];
  const auto values = lake_->catalog.table(q).column(0).DistinctStrings();
  const auto results =
      engine_->Joinable(values, JoinMethod::kLshEnsemble, 10).value();
  ASSERT_FALSE(results.empty());
  bool found_self = false;
  for (const auto& r : results) {
    if (r.column.table_id == q && r.column.column_index == 0) {
      found_self = true;
    }
  }
  EXPECT_TRUE(found_self);
}

TEST_F(DiscoveryEngineTest, PexesoReturnsResults) {
  const TableId q = lake_->unionable_groups[2][0];
  const auto values = lake_->catalog.table(q).column(0).DistinctStrings();
  const auto results =
      engine_->Joinable(values, JoinMethod::kPexeso, 5).value();
  ASSERT_FALSE(results.empty());
  EXPECT_GT(results[0].score, 0.5);
}

TEST_F(DiscoveryEngineTest, UnionMethodsFindTemplatePartners) {
  const TableId q = lake_->unionable_groups[0][0];
  const Table& query = lake_->catalog.table(q);
  const auto truth = [&] {
    std::vector<TableId> out;
    for (TableId t : lake_->unionable_groups[0]) {
      if (t != q) out.push_back(t);
    }
    return out;
  }();
  for (UnionMethod method :
       {UnionMethod::kTus, UnionMethod::kSantos, UnionMethod::kStarmie}) {
    const auto results = engine_->Unionable(query, method, 4, q).value();
    ASSERT_FALSE(results.empty()) << static_cast<int>(method);
    EXPECT_GT(PrecisionAtK(results, truth, 4), 0.4)
        << "method " << static_cast<int>(method);
  }
}

TEST_F(DiscoveryEngineTest, SelectiveBuildRespectsOptions) {
  DiscoveryEngine::Options opts;
  opts.build_keyword = false;
  opts.build_pexeso = false;
  opts.build_starmie = false;
  opts.build_mate = false;
  opts.build_correlated = false;
  opts.synthesize_kb = false;
  DiscoveryEngine engine(&lake_->catalog, nullptr, opts);
  EXPECT_EQ(engine.keyword_engine(), nullptr);
  EXPECT_EQ(engine.pexeso_join(), nullptr);
  EXPECT_TRUE(engine.Keyword("anything", 3).empty());
  EXPECT_FALSE(
      engine.Joinable({"x"}, JoinMethod::kPexeso, 3).ok());
  EXPECT_FALSE(engine
                   .Unionable(lake_->catalog.table(0),
                              UnionMethod::kStarmie, 3)
                   .ok());
  // Remaining engines still answer.
  EXPECT_TRUE(engine.Joinable({"x"}, JoinMethod::kExactJaccard, 3).ok());
}

TEST_F(DiscoveryEngineTest, QueryTimeAnnotation) {
  ASSERT_TRUE(engine_->annotator_ready());
  // Annotate a fresh value column drawn from a known domain: the subject
  // values of template 0's first table.
  const TableId t = lake_->unionable_groups[0][0];
  std::vector<std::string> values;
  const Column& subject = lake_->catalog.table(t).column(0);
  for (size_t r = 0; r < 20 && r < subject.size(); ++r) {
    values.push_back(subject.cell(r).ToString());
  }
  const auto ann = engine_->AnnotateValues(values).value();
  // Labels come from distant supervision over the merged KB, so either the
  // curated ("type:<topic>") or the synthesized ("synth:<topic> ...")
  // vocabulary may win the vote; both identify the same topic.
  EXPECT_NE(ann.type_label.find(lake_->topic_of[0]), std::string::npos)
      << ann.type_label;
  EXPECT_GT(ann.confidence, 0.3);

  // Without a trained annotator, annotation reports the precondition.
  DiscoveryEngine::Options opts;
  opts.build_keyword = opts.build_exact_join = opts.build_lsh_join = false;
  opts.build_josie = opts.build_pexeso = opts.build_mate = false;
  opts.build_approx = opts.build_correlated = false;
  opts.build_tus = opts.build_santos = opts.build_starmie = false;
  opts.build_d3l = false;
  opts.synthesize_kb = false;
  opts.train_annotator = false;
  DiscoveryEngine none(&lake_->catalog, nullptr, opts);
  EXPECT_FALSE(none.annotator_ready());
  EXPECT_FALSE(none.AnnotateValues(values).ok());
}

TEST_F(DiscoveryEngineTest, EndToEndCsvIngestToSearch) {
  // A user-facing flow: CSV text -> catalog -> engine -> query.
  DataLakeCatalog catalog;
  const char* csvs[] = {
      "city,population\nkelora,100\nkelavi,200\nkeluna,300\n",
      "city,mayor\nkelora,morvan\nkelavi,morlen\nkeluna,morzal\n",
      "movie,year\nstarfall,1999\nmoonrise,2005\n",
  };
  const char* names[] = {"cities_pop", "cities_mayors", "movies"};
  for (int i = 0; i < 3; ++i) {
    auto t = ReadCsvString(csvs[i], names[i]);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(catalog.AddTable(std::move(t).value()).ok());
  }
  DiscoveryEngine engine(&catalog);
  const auto join_results =
      engine.Joinable({"kelora", "kelavi"}, JoinMethod::kJosie, 3).value();
  ASSERT_GE(join_results.size(), 2u);
  std::unordered_set<std::string> tables;
  for (const auto& r : join_results) {
    tables.insert(catalog.table(r.column.table_id).name());
  }
  EXPECT_TRUE(tables.count("cities_pop"));
  EXPECT_TRUE(tables.count("cities_mayors"));
  EXPECT_FALSE(tables.count("movies"));
}

}  // namespace
}  // namespace lake
