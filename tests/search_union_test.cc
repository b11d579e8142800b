#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <unordered_set>

#include "annotate/kb_synthesis.h"
#include "lakegen/benchmark_lakes.h"
#include "search/bipartite_matching.h"
#include "search/union_santos.h"
#include "search/union_starmie.h"
#include "search/union_tus.h"
#include "sketch/set_ops.h"
#include "text/normalizer.h"
#include "util/cancel.h"
#include "util/logging.h"
#include "util/random.h"

namespace lake {
namespace {

std::string Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return buf;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// A row sample of `table` (each row kept with probability 0.8): the
/// shape of the union-wide benchmark's query tables.
Table SampleRows(const Table& table, Rng& rng, const std::string& name) {
  std::vector<size_t> rows;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (rng.NextUnit() < 0.8) rows.push_back(r);
  }
  Table out(name);
  for (const Column& col : table.columns()) {
    std::vector<Value> cells;
    for (size_t r : rows) cells.push_back(col.cell(r));
    LAKE_CHECK(
        out.AddColumn(Column(col.name(), col.type(), std::move(cells))).ok());
  }
  return out;
}

Column StringColumn(const std::string& name,
                    const std::vector<std::string>& values) {
  std::vector<Value> cells;
  for (const std::string& v : values) cells.emplace_back(v);
  return Column(name, DataType::kString, std::move(cells));
}

/// TUS attribute and table scoring as it was before the ScanCount index,
/// kept verbatim: a sorted merge per attribute pair for the set measure
/// and CosineSimilarity (both norms recomputed) for the NL measure. The
/// index must reproduce it bit for bit.
class MergeReferenceTus {
 public:
  MergeReferenceTus(const DataLakeCatalog* catalog,
                    const ColumnEncoder* encoder, const KnowledgeBase* kb,
                    TusUnionSearch::Options options)
      : encoder_(encoder), kb_(kb), options_(options) {
    for (TableId t : catalog->AllTables()) {
      tables_.push_back(Prepare(catalog->table(t)));
    }
  }

  double ScoreTable(const Table& query, TableId candidate) const {
    return ScorePrepared(Prepare(query), tables_[candidate]);
  }

 private:
  struct ColumnInfo {
    HashedSet set;
    Vector embedding;
    std::string kb_type;
    double kb_coverage = 0;
  };

  static std::vector<std::string> SampledValues(const Column& col,
                                                size_t cap) {
    std::vector<std::string> out;
    for (const std::string& v : col.DistinctStrings()) {
      if (out.size() >= cap) break;
      const std::string norm = NormalizeValue(v);
      if (!norm.empty()) out.push_back(norm);
    }
    return out;
  }

  std::vector<ColumnInfo> Prepare(const Table& table) const {
    std::vector<ColumnInfo> out;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      ColumnInfo q;
      const std::vector<std::string> values =
          SampledValues(table.column(c), options_.max_values);
      q.set = HashedSet::FromValues(values);
      q.embedding = encoder_->Encode(table.column(c));
      if (kb_ != nullptr && options_.use_semantic_measure && !values.empty()) {
        auto vote = kb_->ColumnType(values);
        if (vote.ok()) {
          q.kb_type = vote.value().type;
          q.kb_coverage = vote.value().coverage;
        }
      }
      out.push_back(std::move(q));
    }
    return out;
  }

  double AttributeScore(const ColumnInfo& q, const ColumnInfo& c) const {
    double score = 0;
    if (options_.use_set_measure) {
      score = std::max(score, q.set.Jaccard(c.set));
    }
    if (options_.use_semantic_measure && !q.kb_type.empty() &&
        q.kb_type == c.kb_type) {
      score = std::max(score, std::min(q.kb_coverage, c.kb_coverage));
    }
    if (options_.use_nl_measure) {
      const double cos = CosineSimilarity(q.embedding, c.embedding);
      score = std::max(score, std::max(0.0, cos) * std::max(0.0, cos));
    }
    return score < options_.min_attribute_score ? 0.0 : score;
  }

  double ScorePrepared(const std::vector<ColumnInfo>& q,
                       const std::vector<ColumnInfo>& cand_cols) const {
    if (q.empty() || cand_cols.empty()) return 0.0;
    std::vector<std::vector<double>> weights(
        q.size(), std::vector<double>(cand_cols.size(), 0.0));
    for (size_t i = 0; i < q.size(); ++i) {
      for (size_t j = 0; j < cand_cols.size(); ++j) {
        weights[i][j] = AttributeScore(q[i], cand_cols[j]);
      }
    }
    const MatchingResult match = MaxWeightBipartiteMatching(weights);
    return match.total_weight / static_cast<double>(q.size());
  }

  const ColumnEncoder* encoder_;
  const KnowledgeBase* kb_;
  TusUnionSearch::Options options_;
  std::vector<std::vector<ColumnInfo>> tables_;
};

/// Shared fixture: one mid-size generated lake with unionable ground truth
/// and relationship-violating distractors. Built once for the whole suite
/// (construction costs dominate otherwise).
class UnionSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lake_ = new GeneratedLake(MakeUnionBenchmarkLake(
        /*seed=*/13, /*tables_per_template=*/6, /*distractors=*/8));
    words_ = new WordEmbedding(WordEmbedding::Options{.dim = 64});
    encoder_ = new ColumnEncoder(words_);
    contextual_ = new ContextualColumnEncoder(encoder_);
    kb_ = new KnowledgeBase(lake_->kb);
    KbSynthesizer().AugmentInPlace(lake_->catalog, kb_);
  }
  static void TearDownTestSuite() {
    delete contextual_;
    delete encoder_;
    delete words_;
    delete kb_;
    delete lake_;
    lake_ = nullptr;
  }

  /// True unionable partners of `query_table` (same template, excluding
  /// itself and excluding distractors).
  static std::vector<TableId> TrueUnionables(TableId query_table) {
    const int tmpl = lake_->template_of.at(query_table);
    std::vector<TableId> out;
    for (TableId t : lake_->unionable_groups[tmpl]) {
      if (t != query_table) out.push_back(t);
    }
    return out;
  }

  /// Four row-sampled query tables drawn with a fixed seed, each paired
  /// with the lake table it was sampled from (to exclude).
  static std::vector<std::pair<Table, TableId>> SeededQueries() {
    std::vector<std::pair<Table, TableId>> out;
    Rng rng(2024);
    for (size_t i = 0; i < 4; ++i) {
      const TableId t = static_cast<TableId>(
          rng.NextBounded(lake_->catalog.num_tables()));
      out.emplace_back(SampleRows(lake_->catalog.table(t), rng,
                                  "query_" + std::to_string(i)),
                       t);
    }
    return out;
  }

  /// Ids, score bits and `why` of `search` on the seeded queries (k = 10,
  /// source table excluded), one line per result.
  template <typename Search>
  static std::string SearchGolden(const Search& search) {
    std::ostringstream got;
    const auto queries = SeededQueries();
    for (size_t q = 0; q < queries.size(); ++q) {
      const auto& [query, source] = queries[q];
      const std::vector<TableResult> results =
          search.Search(query, 10, static_cast<int64_t>(source)).value();
      for (const TableResult& r : results) {
        got << "q" << q << " t" << r.table_id << " " << Bits(r.score) << " "
            << r.why << "\n";
      }
    }
    return got.str();
  }

  static double MeanPrecisionAtK(
      const std::function<std::vector<TableResult>(TableId)>& run, size_t k,
      size_t num_queries) {
    double total = 0;
    size_t done = 0;
    for (size_t g = 0; g < lake_->unionable_groups.size() &&
                       done < num_queries;
         ++g, ++done) {
      const TableId q = lake_->unionable_groups[g][0];
      total += PrecisionAtK(run(q), TrueUnionables(q), k);
    }
    return done == 0 ? 0.0 : total / done;
  }

  static GeneratedLake* lake_;
  static WordEmbedding* words_;
  static ColumnEncoder* encoder_;
  static ContextualColumnEncoder* contextual_;
  static KnowledgeBase* kb_;
};

GeneratedLake* UnionSearchTest::lake_ = nullptr;
WordEmbedding* UnionSearchTest::words_ = nullptr;
ColumnEncoder* UnionSearchTest::encoder_ = nullptr;
ContextualColumnEncoder* UnionSearchTest::contextual_ = nullptr;
KnowledgeBase* UnionSearchTest::kb_ = nullptr;

// --- TUS ------------------------------------------------------------------

TEST_F(UnionSearchTest, TusFindsSameTemplateTables) {
  TusUnionSearch tus(&lake_->catalog, encoder_, kb_);
  const TableId q = lake_->unionable_groups[0][0];
  const auto results =
      tus.Search(lake_->catalog.table(q), 5, /*exclude=*/q).value();
  ASSERT_FALSE(results.empty());
  const double p = PrecisionAtK(results, TrueUnionables(q), 5);
  EXPECT_GE(p, 0.6);
}

TEST_F(UnionSearchTest, TusExcludeDropsSelf) {
  TusUnionSearch tus(&lake_->catalog, encoder_, kb_);
  const TableId q = lake_->unionable_groups[1][0];
  const auto results =
      tus.Search(lake_->catalog.table(q), 10, /*exclude=*/q).value();
  for (const auto& r : results) EXPECT_NE(r.table_id, q);
  // Without exclusion, the query table itself is the best match.
  const auto with_self =
      tus.Search(lake_->catalog.table(q), 1, /*exclude=*/-1).value();
  ASSERT_FALSE(with_self.empty());
  EXPECT_EQ(with_self[0].table_id, q);
}

TEST_F(UnionSearchTest, TusExhaustiveAtLeastAsGoodAsLsh) {
  TusUnionSearch::Options ex_opts;
  ex_opts.exhaustive = true;
  TusUnionSearch exhaustive(&lake_->catalog, encoder_, kb_, ex_opts);
  TusUnionSearch pruned(&lake_->catalog, encoder_, kb_);
  const TableId q = lake_->unionable_groups[2][0];
  const auto pe = PrecisionAtK(
      exhaustive.Search(lake_->catalog.table(q), 5, q).value(),
      TrueUnionables(q), 5);
  const auto pp =
      PrecisionAtK(pruned.Search(lake_->catalog.table(q), 5, q).value(),
                   TrueUnionables(q), 5);
  EXPECT_GE(pe + 1e-9, pp);
}

TEST_F(UnionSearchTest, TusMeasureAblation) {
  // Disabling all measures yields nothing.
  TusUnionSearch::Options none;
  none.use_set_measure = false;
  none.use_semantic_measure = false;
  none.use_nl_measure = false;
  TusUnionSearch empty_measures(&lake_->catalog, encoder_, kb_, none);
  const TableId q = lake_->unionable_groups[0][0];
  EXPECT_TRUE(
      empty_measures.Search(lake_->catalog.table(q), 5, q).value().empty());
}

// The ScanCount index and precomputed norms must reproduce the per-pair
// merge scoring bit for bit: every table, several queries, each option set
// that changes which measures run or what is hashed. The edge lake adds
// columns whose sets are empty (all null, values normalizing to empty);
// the edge query adds case/whitespace variants of lake values and values
// absent from the lake.
TEST_F(UnionSearchTest, TusScoresMatchMergeReferenceBitForBit) {
  DataLakeCatalog edge_lake;
  for (TableId t = 0; t < 24; ++t) {
    ASSERT_TRUE(edge_lake.AddTable(lake_->catalog.table(t)).ok());
  }
  const Column& source = lake_->catalog.table(0).column(0);
  std::vector<std::string> variants, absent, blanks, mixed;
  const std::vector<std::string> lake_values = source.DistinctStrings();
  for (size_t i = 0; i < 12; ++i) {
    const std::string& v = lake_values[i % lake_values.size()];
    std::string upper = v;
    for (char& ch : upper) ch = static_cast<char>(std::toupper(ch));
    variants.push_back(i % 2 == 0 ? "  " + upper + " " : upper);
    absent.push_back("zz absent value " + std::to_string(i));
    blanks.push_back(i % 3 == 0 ? "" : std::string(i % 3, ' '));
    mixed.push_back(i % 2 == 0 ? v : absent.back());
  }
  Table edge_table("edge_lake_table");
  ASSERT_TRUE(edge_table
                  .AddColumn(Column("nulls", DataType::kString,
                                    std::vector<Value>(12, Value::Null())))
                  .ok());
  ASSERT_TRUE(edge_table.AddColumn(StringColumn("blanks", blanks)).ok());
  ASSERT_TRUE(edge_table.AddColumn(StringColumn("values", variants)).ok());
  ASSERT_TRUE(edge_lake.AddTable(edge_table).ok());

  Table edge_query("edge_query");
  ASSERT_TRUE(edge_query
                  .AddColumn(Column("nulls", DataType::kString,
                                    std::vector<Value>(12, Value::Null())))
                  .ok());
  ASSERT_TRUE(edge_query.AddColumn(StringColumn("blanks", blanks)).ok());
  ASSERT_TRUE(edge_query.AddColumn(StringColumn("variants", variants)).ok());
  ASSERT_TRUE(edge_query.AddColumn(StringColumn("absent", absent)).ok());
  ASSERT_TRUE(edge_query.AddColumn(StringColumn("mixed", mixed)).ok());

  std::vector<Table> queries;
  queries.push_back(edge_query);
  for (auto& [query, source_table] : SeededQueries()) {
    queries.push_back(std::move(query));
  }
  queries.push_back(lake_->catalog.table(5));

  struct Config {
    std::string name;
    TusUnionSearch::Options options;
    const KnowledgeBase* kb;
  };
  std::vector<Config> configs;
  configs.push_back({"default", {}, kb_});
  configs.push_back({"exhaustive", {}, kb_});
  configs.back().options.exhaustive = true;
  configs.push_back({"set-only", {}, kb_});
  configs.back().options.use_semantic_measure = false;
  configs.back().options.use_nl_measure = false;
  configs.push_back({"nl-only", {}, kb_});
  configs.back().options.use_set_measure = false;
  configs.back().options.use_semantic_measure = false;
  configs.push_back({"no-kb", {}, nullptr});
  configs.push_back({"max-values-8", {}, kb_});
  configs.back().options.max_values = 8;

  for (const Config& config : configs) {
    for (const DataLakeCatalog* catalog :
         std::vector<const DataLakeCatalog*>{&lake_->catalog, &edge_lake}) {
      const TusUnionSearch tus(catalog, encoder_, config.kb, config.options);
      const MergeReferenceTus reference(catalog, encoder_, config.kb,
                                        config.options);
      size_t positive = 0;
      for (size_t q = 0; q < queries.size(); ++q) {
        for (TableId t : catalog->AllTables()) {
          const double got = tus.ScoreTable(queries[q], t);
          const double want = reference.ScoreTable(queries[q], t);
          ASSERT_TRUE(SameBits(got, want))
              << config.name << " query " << q << " table " << t << ": "
              << Bits(got) << " vs " << Bits(want);
          if (got > 0) ++positive;
        }
      }
      EXPECT_GT(positive, 0u) << config.name;
    }
  }
}

// Search answers pinned bit for bit on four seeded row-sampled queries:
// ids, score bits and `why`, captured before the ScanCount index.
TEST_F(UnionSearchTest, TusGoldenAnswers) {
  TusUnionSearch tus(&lake_->catalog, encoder_, kb_);
  const char* const kGolden =
      "q0 t30 3fe5555555555555 tus unionability=0.667\n"
      "q0 t31 3fe5555555555555 tus unionability=0.667\n"
      "q0 t33 3fe5555555555555 tus unionability=0.667\n"
      "q0 t34 3fe5555555555555 tus unionability=0.667\n"
      "q0 t17 3fd5555555555555 tus unionability=0.333\n"
      "q0 t18 3fce93429bd8e18c tus unionability=0.239\n"
      "q0 t11 3fce162cbfc72895 tus unionability=0.235\n"
      "q0 t23 3fcba97f5471c740 tus unionability=0.216\n"
      "q0 t8 3fc95d5b9d31e827 tus unionability=0.198\n"
      "q0 t39 3fc71bc4ee23f8c4 tus unionability=0.181\n"
      "q1 t19 3fe8000000000000 tus unionability=0.750\n"
      "q1 t20 3fe8000000000000 tus unionability=0.750\n"
      "q1 t21 3fe8000000000000 tus unionability=0.750\n"
      "q1 t22 3fe8000000000000 tus unionability=0.750\n"
      "q1 t23 3fe8000000000000 tus unionability=0.750\n"
      "q1 t39 3fe8000000000000 tus unionability=0.750\n"
      "q1 t34 3fd2af21228d2862 tus unionability=0.292\n"
      "q1 t30 3fd29e6cdd93197d tus unionability=0.291\n"
      "q1 t4 3fd182c39c9191ab tus unionability=0.274\n"
      "q1 t5 3fc9e744e8c49bd8 tus unionability=0.202\n"
      "q2 t30 3fe5555555555555 tus unionability=0.667\n"
      "q2 t31 3fe5555555555555 tus unionability=0.667\n"
      "q2 t32 3fe5555555555555 tus unionability=0.667\n"
      "q2 t33 3fe5555555555555 tus unionability=0.667\n"
      "q2 t34 3fe5555555555555 tus unionability=0.667\n"
      "q2 t41 3fe5555555555555 tus unionability=0.667\n"
      "q2 t13 3fd5555555555555 tus unionability=0.333\n"
      "q2 t17 3fd5555555555555 tus unionability=0.333\n"
      "q2 t18 3fcebada9a1b4190 tus unionability=0.240\n"
      "q2 t11 3fcd042bf63e3dbb tus unionability=0.227\n"
      "q3 t41 3fe9456831511b3f tus unionability=0.790\n"
      "q3 t34 3fe942ded5b588f1 tus unionability=0.789\n"
      "q3 t32 3fe8af497dc45a08 tus unionability=0.771\n"
      "q3 t30 3fe89a04992f658f tus unionability=0.769\n"
      "q3 t35 3fe5555555555555 tus unionability=0.667\n"
      "q3 t18 3fced4c8b6161208 tus unionability=0.241\n"
      "q3 t11 3fcda26b68a2863b tus unionability=0.232\n"
      "q3 t23 3fcce6fd3dfb2774 tus unionability=0.226\n"
      "q3 t21 3fcb788a4dc79c4b tus unionability=0.215\n"
      "q3 t8 3fcb222026688948 tus unionability=0.212\n";
  EXPECT_EQ(SearchGolden(tus), kGolden);
}

TEST_F(UnionSearchTest, TusCancelledTokenAborts) {
  TusUnionSearch tus(&lake_->catalog, encoder_, kb_);
  CancelToken token;
  token.Cancel();
  const auto results = tus.Search(lake_->catalog.table(0), 5, 0, &token);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kCancelled);
}

// --- SANTOS -----------------------------------------------------------------

TEST_F(UnionSearchTest, SantosRanksTrueUnionablesAboveDistractors) {
  SantosUnionSearch santos(&lake_->catalog, kb_);
  size_t checked = 0;
  double true_better = 0;
  for (size_t g = 0; g < lake_->unionable_groups.size(); ++g) {
    const TableId q = lake_->unionable_groups[g][0];
    const Table& query = lake_->catalog.table(q);
    // Mean score of true partners vs distractors of the same template.
    double true_sum = 0;
    size_t true_n = 0;
    for (TableId t : TrueUnionables(q)) {
      true_sum += santos.ScoreTable(query, t);
      ++true_n;
    }
    double distract_sum = 0;
    size_t distract_n = 0;
    for (TableId d : lake_->distractors) {
      if (lake_->template_of.at(d) != static_cast<int>(g)) continue;
      distract_sum += santos.ScoreTable(query, d);
      ++distract_n;
    }
    if (true_n == 0 || distract_n == 0) continue;
    ++checked;
    if (true_sum / true_n > distract_sum / distract_n) ++true_better;
  }
  ASSERT_GT(checked, 0u);
  // SANTOS's relationship semantics should separate them in most groups.
  EXPECT_GE(true_better / checked, 0.75);
}

TEST_F(UnionSearchTest, SantosSearchPrecision) {
  SantosUnionSearch santos(&lake_->catalog, kb_);
  const double p = MeanPrecisionAtK(
      [&](TableId q) {
        return santos.Search(lake_->catalog.table(q), 5, q).value();
      },
      5, 4);
  EXPECT_GE(p, 0.5);
}

// --- Starmie -----------------------------------------------------------------

TEST_F(UnionSearchTest, StarmiePrecision) {
  StarmieUnionSearch starmie(&lake_->catalog, contextual_);
  const double p = MeanPrecisionAtK(
      [&](TableId q) {
        return starmie.Search(lake_->catalog.table(q), 5, q).value();
      },
      5, 4);
  EXPECT_GE(p, 0.6);
}

TEST_F(UnionSearchTest, StarmieHnswMatchesLinearScan) {
  StarmieUnionSearch::Options hnsw_opts;
  hnsw_opts.use_hnsw = true;
  StarmieUnionSearch with_hnsw(&lake_->catalog, contextual_, hnsw_opts);
  StarmieUnionSearch::Options flat_opts;
  flat_opts.use_hnsw = false;
  StarmieUnionSearch with_flat(&lake_->catalog, contextual_, flat_opts);

  const TableId q = lake_->unionable_groups[0][0];
  const auto a = with_hnsw.Search(lake_->catalog.table(q), 5, q).value();
  const auto b = with_flat.Search(lake_->catalog.table(q), 5, q).value();
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  // The verified top result should agree (ANN may differ in the tail).
  EXPECT_EQ(a[0].table_id, b[0].table_id);
}

TEST_F(UnionSearchTest, StarmieScoreTableConsistentWithSearch) {
  StarmieUnionSearch starmie(&lake_->catalog, contextual_);
  const TableId q = lake_->unionable_groups[1][0];
  const auto results =
      starmie.Search(lake_->catalog.table(q), 3, q).value();
  ASSERT_FALSE(results.empty());
  EXPECT_NEAR(
      starmie.ScoreTable(lake_->catalog.table(q), results[0].table_id),
      results[0].score, 1e-9);
}

// Search answers pinned bit for bit on four seeded row-sampled queries,
// captured before the lake-vector norms were precomputed.
TEST_F(UnionSearchTest, StarmieGoldenAnswers) {
  StarmieUnionSearch starmie(&lake_->catalog, contextual_);
  const char* const kGolden =
      "q0 t30 3fe6cd57d773d5cf starmie contextual score=0.713\n"
      "q0 t34 3fe1c25eca5788eb starmie contextual score=0.555\n"
      "q0 t33 3fe13480a6c9587d starmie contextual score=0.538\n"
      "q0 t31 3fe0c8539b8c07f5 starmie contextual score=0.524\n"
      "q0 t32 3fdfd8794900cf20 starmie contextual score=0.498\n"
      "q0 t41 3fdcd90c58c2aab3 starmie contextual score=0.451\n"
      "q0 t18 3fd035f1167476b1 starmie contextual score=0.253\n"
      "q0 t11 3fd007838b36dd7f starmie contextual score=0.250\n"
      "q0 t19 3fd0040bb60653c5 starmie contextual score=0.250\n"
      "q0 t22 3fcfea43ce684c6b starmie contextual score=0.249\n"
      "q1 t22 3fe94b37526a9f6e starmie contextual score=0.790\n"
      "q1 t20 3fe87106d46a382b starmie contextual score=0.764\n"
      "q1 t23 3fe4c651f387208c starmie contextual score=0.649\n"
      "q1 t19 3fe4c639c0dc3148 starmie contextual score=0.649\n"
      "q1 t21 3fe49b6a745a7cdf starmie contextual score=0.644\n"
      "q1 t39 3fe2ecb5e26379c8 starmie contextual score=0.591\n"
      "q1 t43 3fd6c0f8dbc61899 starmie contextual score=0.356\n"
      "q1 t34 3fd6bbfef398b726 starmie contextual score=0.355\n"
      "q1 t4 3fd6169e75df0cf0 starmie contextual score=0.345\n"
      "q1 t32 3fd5bc8584c66bcc starmie contextual score=0.340\n"
      "q2 t30 3fe7effd986b89b1 starmie contextual score=0.748\n"
      "q2 t34 3fe20137647b6019 starmie contextual score=0.563\n"
      "q2 t33 3fe18682a8aef523 starmie contextual score=0.548\n"
      "q2 t32 3fe0b2a4ded7e4e7 starmie contextual score=0.522\n"
      "q2 t31 3fe066eed6664d44 starmie contextual score=0.513\n"
      "q2 t41 3fdde73ceb10e073 starmie contextual score=0.467\n"
      "q2 t21 3fdc368b0cd5371d starmie contextual score=0.441\n"
      "q2 t22 3fdb985b227d3021 starmie contextual score=0.431\n"
      "q2 t18 3fd062af50c257d2 starmie contextual score=0.256\n"
      "q2 t11 3fd012a7bca650ab starmie contextual score=0.251\n"
      "q3 t34 3fe7b2d5636c5fcc starmie contextual score=0.741\n"
      "q3 t30 3fe78b18e4f7b960 starmie contextual score=0.736\n"
      "q3 t32 3fe6f231a32673a4 starmie contextual score=0.717\n"
      "q3 t41 3fe5654e13601a05 starmie contextual score=0.669\n"
      "q3 t35 3fe128e6e4c5a993 starmie contextual score=0.536\n"
      "q3 t31 3fe0fed0825ef6ab starmie contextual score=0.531\n"
      "q3 t37 3fdd49751a611e7b starmie contextual score=0.458\n"
      "q3 t20 3fdcae4060398df7 starmie contextual score=0.448\n"
      "q3 t22 3fdc8eae938a18b3 starmie contextual score=0.446\n"
      "q3 t18 3fdbbe21ba8f0f41 starmie contextual score=0.433\n";
  EXPECT_EQ(SearchGolden(starmie), kGolden);
}

// A restored search recomputes the lake-vector norms (they are not in
// the snapshot) and must answer bit for bit like the one it was saved from.
TEST_F(UnionSearchTest, StarmieSnapshotRestoresIdenticalAnswers) {
  StarmieUnionSearch built(&lake_->catalog, contextual_);
  std::ostringstream payload;
  ASSERT_TRUE(built.SaveSnapshot(&payload).ok());
  auto restored = StarmieUnionSearch::FromSnapshot(
      &lake_->catalog, contextual_, payload.str());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SearchGolden(*restored.value()), SearchGolden(built));
}

TEST_F(UnionSearchTest, EmptyQueryTableHandled) {
  TusUnionSearch tus(&lake_->catalog, encoder_, kb_);
  StarmieUnionSearch starmie(&lake_->catalog, contextual_);
  Table empty("empty");
  EXPECT_TRUE(tus.Search(empty, 5).value().empty());
  EXPECT_TRUE(starmie.Search(empty, 5).value().empty());
}

}  // namespace
}  // namespace lake
