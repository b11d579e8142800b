// Unit and integration tests for the sampling-based approximate discovery
// tier (src/approx): estimator intervals, adaptive verification with exact
// fallback, top-k search against the brute-force oracle, sample-quality
// checks, and the serving-layer plumbing (approx_ok routing, cache keying,
// approx.* metrics, brownout interplay, live and cluster modes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "approx_quality.h"
#include "approx/approx_search.h"
#include "approx/estimator.h"
#include "approx/oracle.h"
#include "approx/verifier.h"
#include "cluster/cluster_engine.h"
#include "ingest/live_engine.h"
#include "lakegen/benchmark_lakes.h"
#include "lakegen/generator.h"
#include "search/discovery_engine.h"
#include "serve/query_service.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/logging.h"

namespace lake {
namespace {

using approx::AdaptiveVerifier;
using approx::ApproxEstimator;
using approx::ApproxJoinSearch;
using approx::ApproxQueryStats;
using approx::DiscoveryOracle;
using approx::IntervalEstimate;
using approx::Verdict;

Column MakeColumn(const std::string& name,
                  const std::vector<std::string>& vals) {
  Column c(name, DataType::kString);
  for (const auto& v : vals) c.Append(Value(v));
  return c;
}

std::vector<std::string> Values(size_t begin, size_t end,
                                const std::string& prefix = "v") {
  std::vector<std::string> out;
  for (size_t i = begin; i < end; ++i) {
    out.push_back(prefix + std::to_string(i));
  }
  return out;
}

DataLakeCatalog OneColumnLake(
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        tables) {
  DataLakeCatalog cat;
  for (const auto& [name, vals] : tables) {
    Table t(name);
    LAKE_CHECK(t.AddColumn(MakeColumn("key", vals)).ok());
    LAKE_CHECK(cat.AddTable(std::move(t)).ok());
  }
  return cat;
}

/// Skewed-sets lake whose largest columns dwarf the sample width, so the
/// estimator genuinely samples instead of degenerating to exact.
DataLakeCatalog SkewedLake(SkewedSetsWorkload* workload) {
  SkewedSetsOptions opts;
  opts.seed = 29;
  opts.num_sets = 120;
  opts.min_set_size = 16;
  opts.max_set_size = 4096;
  opts.num_queries = 6;
  opts.query_size = 128;
  opts.universe_size = 30000;
  *workload = MakeSkewedSetsWorkload(opts);
  DataLakeCatalog cat;
  for (size_t s = 0; s < workload->sets.size(); ++s) {
    Table t("set" + std::to_string(s));
    LAKE_CHECK(t.AddColumn(MakeColumn("values", workload->sets[s])).ok());
    LAKE_CHECK(cat.AddTable(std::move(t)).ok());
  }
  return cat;
}

/// The join-skewed recipe: 400 power-law sets of 8..4096 values (about a
/// fifth above the default 1024-hash sample width) and 64-value queries
/// drawn mostly from one host set.
DataLakeCatalog PowerLawLake(SkewedSetsWorkload* workload) {
  SkewedSetsOptions opts;
  opts.num_queries = 30;
  *workload = MakeSkewedSetsWorkload(opts);
  DataLakeCatalog cat;
  for (size_t s = 0; s < workload->sets.size(); ++s) {
    Table t("set" + std::to_string(s));
    LAKE_CHECK(t.AddColumn(MakeColumn("values", workload->sets[s])).ok());
    LAKE_CHECK(cat.AddTable(std::move(t)).ok());
  }
  return cat;
}

/// Columns below, at and above a 64-hash sample width, values that only
/// normalize together (case, whitespace), values that normalize to empty,
/// a column that is ineligible after normalization, and a numeric column
/// with a null cell.
DataLakeCatalog EdgeLake() {
  std::vector<std::string> at_after_normalizing = Values(100, 164);
  for (size_t i = 100; i < 110; ++i) {
    at_after_normalizing.push_back(" V" + std::to_string(i) + "\t");
  }
  DataLakeCatalog cat = OneColumnLake({
      {"below", Values(0, 40)},
      {"at", Values(20, 84)},
      {"above", Values(0, 300)},
      {"at_after_normalizing", at_after_normalizing},
      {"variants",
       {"Apple", " apple ", "APPLE", "Banana", "banana\t", "Cherry  Pie",
        "cherry pie", "V5", " v6 "}},
      {"empties", {"", "   ", "\t", "v7", "V8 ", "kiwi"}},
      {"one_value", {"only", " ONLY "}},
  });
  std::vector<Value> cells;
  for (int64_t i = 0; i < 100; ++i) cells.emplace_back(i);
  cells.emplace_back(int64_t{7});
  cells.emplace_back();  // null: not a value
  Table numeric("numeric");
  LAKE_CHECK(
      numeric.AddColumn(Column("n", DataType::kInt, std::move(cells))).ok());
  LAKE_CHECK(cat.AddTable(std::move(numeric)).ok());
  return cat;
}

/// Differential check: the estimator's exact containment (and distinct
/// count) of every query in every indexed column equals the string-set
/// oracle's, and exhaustive samples estimate exactly that value.
void ExpectExactMatchesOracle(
    const DataLakeCatalog& cat, const ApproxEstimator::Options& opts,
    const std::vector<std::vector<std::string>>& queries) {
  ApproxEstimator est(&cat, opts);
  DiscoveryOracle oracle(&cat);
  ASSERT_EQ(est.indexed_columns(), oracle.indexed_columns());
  for (size_t i = 0; i < est.num_indexed_columns(); ++i) {
    EXPECT_EQ(est.cardinality(i), oracle.cardinality(i)) << "column " << i;
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    const HashedSet query = est.QuerySet(queries[q]);
    for (size_t i = 0; i < est.num_indexed_columns(); ++i) {
      const double exact = est.ExactContainment(query, i);
      EXPECT_EQ(exact, oracle.ContainmentOf(queries[q], i))
          << "query " << q << " column " << i;
      if (est.cardinality(i) <= opts.max_sample) {
        const IntervalEstimate e =
            est.EstimateContainment(query, i, opts.max_sample, 0.1);
        EXPECT_TRUE(e.exact);
        EXPECT_EQ(e.point, exact) << "query " << q << " column " << i;
      }
    }
  }
}

// --- Hoeffding bound ------------------------------------------------------

TEST(HoeffdingTest, HalfWidthMatchesClosedFormAndShrinks) {
  // sqrt(ln(2/0.05) / (2 * 100)) = sqrt(ln(40) / 200)
  EXPECT_NEAR(approx::HoeffdingHalfWidth(100, 0.05),
              std::sqrt(std::log(40.0) / 200.0), 1e-12);
  EXPECT_EQ(approx::HoeffdingHalfWidth(0, 0.05), 1.0);
  double prev = 1.0;
  for (size_t trials : {16, 64, 256, 1024}) {
    const double hw = approx::HoeffdingHalfWidth(trials, 0.1);
    EXPECT_LT(hw, prev);
    prev = hw;
  }
  // Tighter confidence (smaller delta) costs width.
  EXPECT_GT(approx::HoeffdingHalfWidth(100, 0.01),
            approx::HoeffdingHalfWidth(100, 0.1));
}

// --- ApproxEstimator ------------------------------------------------------

TEST(ApproxEstimatorTest, SmallColumnsDegenerateToExact) {
  DataLakeCatalog cat = OneColumnLake({
      {"full", Values(0, 50)},
      {"half", Values(25, 75)},
      {"disjoint", Values(100, 150)},
  });
  ApproxEstimator est(&cat);  // max_sample 1024 >> 50: samples are exhaustive
  ASSERT_EQ(est.num_indexed_columns(), 3u);
  const HashedSet query = est.QuerySet(Values(0, 50));
  for (size_t i = 0; i < 3; ++i) {
    const IntervalEstimate e = est.EstimateContainment(query, i, 1024, 0.05);
    EXPECT_TRUE(e.exact);
    EXPECT_EQ(e.lo, e.hi);
    EXPECT_EQ(e.point, est.ExactContainment(query, i));
  }
}

TEST(ApproxEstimatorTest, IntervalCoversTruthOnLargeColumn) {
  // 8000 distinct values, half shared with the query's 400: containment of
  // the query is 1.0 for "super" and ~0 for "far".
  std::vector<std::string> big = Values(0, 8000);
  DataLakeCatalog cat = OneColumnLake({
      {"super", big},
      {"far", Values(20000, 28000)},
  });
  ApproxEstimator::Options opts;
  opts.max_sample = 256;
  ApproxEstimator est(&cat, opts);
  const HashedSet query = est.QuerySet(Values(0, 400));
  const IntervalEstimate sup = est.EstimateContainment(query, 0, 256, 0.05);
  EXPECT_FALSE(sup.exact);
  EXPECT_GT(sup.trials, 0u);
  EXPECT_LE(sup.lo, 1.0);
  EXPECT_EQ(sup.hi, 1.0);  // every sampled trial matches
  EXPECT_GE(sup.point, 0.99);

  const IntervalEstimate far = est.EstimateContainment(query, 1, 256, 0.05);
  EXPECT_EQ(far.point, 0.0);
  EXPECT_LE(far.lo, 0.0);
  EXPECT_LT(far.hi, 1.0);
}

TEST(ApproxEstimatorTest, DoublingTheSampleTightensTheInterval) {
  DataLakeCatalog cat = OneColumnLake({{"big", Values(0, 10000)}});
  ApproxEstimator::Options opts;
  opts.max_sample = 1024;
  ApproxEstimator est(&cat, opts);
  const HashedSet query = est.QuerySet(Values(5000, 6000));
  double prev_width = 2.0;
  size_t prev_trials = 0;
  for (size_t s : {64, 128, 256, 512, 1024}) {
    const IntervalEstimate e = est.EstimateContainment(query, 0, s, 0.05);
    EXPECT_GE(e.trials, prev_trials);
    EXPECT_LT(e.width(), prev_width);
    prev_width = e.width();
    prev_trials = e.trials;
  }
}

TEST(ApproxEstimatorTest, DeterministicAcrossRebuilds) {
  SkewedSetsWorkload w;
  DataLakeCatalog cat = SkewedLake(&w);
  ApproxEstimator::Options opts;
  opts.max_sample = 128;
  ApproxEstimator a(&cat, opts);
  ApproxEstimator b(&cat, opts);
  EXPECT_EQ(a.hash_seed(), b.hash_seed());
  const HashedSet qa = a.QuerySet(w.queries[0]);
  const HashedSet qb = b.QuerySet(w.queries[0]);
  for (size_t i = 0; i < a.num_indexed_columns(); ++i) {
    const IntervalEstimate ea = a.EstimateContainment(qa, i, 64, 0.1);
    const IntervalEstimate eb = b.EstimateContainment(qb, i, 64, 0.1);
    EXPECT_EQ(ea.point, eb.point);
    EXPECT_EQ(ea.lo, eb.lo);
    EXPECT_EQ(ea.hi, eb.hi);
    EXPECT_EQ(ea.trials, eb.trials);
  }
}

TEST(ApproxEstimatorTest, EmptyQueryIsExactZero) {
  DataLakeCatalog cat = OneColumnLake({{"t", Values(0, 100)}});
  ApproxEstimator est(&cat);
  const HashedSet query = est.QuerySet({});
  const IntervalEstimate e = est.EstimateContainment(query, 0, 64, 0.1);
  EXPECT_TRUE(e.exact);
  EXPECT_EQ(e.point, 0.0);
}

TEST(ApproxEstimatorTest, ExactContainmentMatchesOracleOnEdgeColumns) {
  DataLakeCatalog cat = EdgeLake();
  ApproxEstimator::Options opts;
  opts.max_sample = 64;
  {
    // The lake really spans the sample width, and normalization decides
    // eligibility: "one_value" has two raw values but one normalized.
    ApproxEstimator est(&cat, opts);
    std::set<size_t> sizes;
    for (size_t i = 0; i < est.num_indexed_columns(); ++i) {
      sizes.insert(est.cardinality(i));
      EXPECT_NE(cat.table(est.indexed_columns()[i].table_id).name(),
                "one_value");
    }
    EXPECT_TRUE(sizes.count(40) && sizes.count(64) && sizes.count(300));
  }
  std::vector<std::vector<std::string>> queries = {
      Values(0, 50),
      Values(250, 320),
      {"apple", "BANANA ", "kiwi", "V7", "v8", "0", "99", "100", "v299",
       "V300", "cherry   pie"},
      {"", "  ", "\t"},
      {},
  };
  std::vector<std::string> mixed = Values(30, 90);
  for (const char* v : {"APPLE", "", " V101 ", "42", "7", "v163"}) {
    mixed.push_back(v);
  }
  queries.push_back(mixed);
  ExpectExactMatchesOracle(cat, opts, queries);
}

TEST(ApproxEstimatorTest, ExactContainmentMatchesOracleOnPowerLawLake) {
  SkewedSetsWorkload w;
  DataLakeCatalog cat = PowerLawLake(&w);
  ExpectExactMatchesOracle(cat, ApproxEstimator::Options{}, w.queries);
}

// --- AdaptiveVerifier -----------------------------------------------------

TEST(AdaptiveVerifierTest, ClearMarginDecidesByIntervalAlone) {
  DataLakeCatalog cat = OneColumnLake({{"super", Values(0, 8000)}});
  ApproxEstimator::Options eopts;
  eopts.max_sample = 1024;
  ApproxEstimator est(&cat, eopts);
  AdaptiveVerifier verifier(&est);
  const HashedSet query = est.QuerySet(Values(0, 400));  // containment 1.0
  ApproxQueryStats stats;
  const Verdict v =
      verifier.VerifyContainment(query, 0, 0.3, &stats).value();
  EXPECT_TRUE(v.accepted);
  EXPECT_FALSE(v.exact);
  EXPECT_EQ(stats.exact_fallbacks, 0u);
  EXPECT_EQ(stats.interval_decisions, 1u);
  EXPECT_GT(stats.estimates, 0u);
}

TEST(AdaptiveVerifierTest, StraddlingIntervalFallsBackToExact) {
  // Containment is exactly 0.5; a threshold of 0.5 sits inside every
  // nondegenerate interval, so only exact verification can settle it.
  std::vector<std::string> column = Values(0, 4000);
  std::vector<std::string> query = Values(2000, 6000);  // half inside
  DataLakeCatalog cat = OneColumnLake({{"half", column}});
  ApproxEstimator::Options eopts;
  eopts.max_sample = 512;
  ApproxEstimator est(&cat, eopts);
  AdaptiveVerifier::Options vopts;
  vopts.min_sample = 64;
  vopts.max_sample = 512;
  AdaptiveVerifier verifier(&est, vopts);
  ApproxQueryStats stats;
  const Verdict v =
      verifier.VerifyContainment(est.QuerySet(query), 0, 0.5, &stats)
          .value();
  EXPECT_TRUE(v.exact);
  EXPECT_EQ(v.estimate.lo, v.estimate.hi);
  EXPECT_EQ(v.estimate.point, 0.5);
  EXPECT_TRUE(v.accepted);  // 0.5 >= 0.5
  EXPECT_EQ(stats.exact_fallbacks, 1u);
  EXPECT_GT(stats.rounds, 1u);  // the sample doubled before giving up
}

TEST(AdaptiveVerifierTest, VerdictsMatchOracleAcrossThresholds) {
  SkewedSetsWorkload w;
  DataLakeCatalog cat = SkewedLake(&w);
  ApproxEstimator::Options eopts;
  eopts.max_sample = 256;
  ApproxEstimator est(&cat, eopts);
  AdaptiveVerifier verifier(&est);
  DiscoveryOracle oracle(&cat);
  // Map estimator column order onto oracle truth by ColumnRef.
  for (double threshold : {0.25, 0.5, 0.75}) {
    for (size_t q = 0; q < w.queries.size(); ++q) {
      const HashedSet query = est.QuerySet(w.queries[q]);
      for (size_t i = 0; i < est.num_indexed_columns(); ++i) {
        const Verdict v =
            verifier.VerifyContainment(query, i, threshold).value();
        const double truth =
            oracle.ContainmentOf(w.queries[q],
                                 i);  // same eligibility order
        if (v.exact) {
          EXPECT_EQ(v.accepted, truth >= threshold);
        } else if (v.accepted) {
          // Interval-accepted: the lower bound cleared the threshold, so
          // with the advertised confidence the truth does too. These
          // deterministic seeds happen to be well inside the bound.
          EXPECT_GE(truth + 1e-9, threshold - v.estimate.width());
        }
      }
    }
  }
}

TEST(AdaptiveVerifierTest, FailpointsCoverBothPhases) {
  DataLakeCatalog cat = OneColumnLake({{"half", Values(0, 4000)}});
  ApproxEstimator::Options eopts;
  eopts.max_sample = 256;
  ApproxEstimator est(&cat, eopts);
  AdaptiveVerifier verifier(&est);
  const HashedSet query = est.QuerySet(Values(2000, 6000));

  {
    ScopedFailpoint scoped(
        "approx.sample",
        FaultSpec{FaultSpec::Kind::kError, 0, 0, /*max_fires=*/0, 1.0});
    EXPECT_FALSE(verifier.VerifyContainment(query, 0, 0.5).ok());
  }
  {
    // Sampling proceeds; the exact fallback errors out.
    ScopedFailpoint scoped(
        "approx.verify",
        FaultSpec{FaultSpec::Kind::kError, 0, 0, /*max_fires=*/0, 1.0});
    EXPECT_FALSE(verifier.VerifyContainment(query, 0, 0.5).ok());
  }
  // Unarmed: the same call succeeds.
  EXPECT_TRUE(verifier.VerifyContainment(query, 0, 0.5).ok());
}

// --- ApproxJoinSearch vs DiscoveryOracle ---------------------------------

TEST(ApproxJoinSearchTest, TopKRecallAgainstOracle) {
  SkewedSetsWorkload w;
  DataLakeCatalog cat = SkewedLake(&w);
  ApproxJoinSearch::Options opts;
  opts.estimator.max_sample = 256;
  opts.min_sample = 64;
  opts.max_sample = 256;
  ApproxJoinSearch search(&cat, opts);
  DiscoveryOracle oracle(&cat);
  const size_t k = 10;
  double recall_sum = 0;
  size_t recall_n = 0;
  for (size_t q = 0; q < w.queries.size(); ++q) {
    const std::vector<ColumnResult> approx_top =
        search.Search(w.queries[q], k).value();
    const std::vector<ColumnResult> exact_top =
        oracle.TopKByContainment(w.queries[q], k);
    if (exact_top.empty()) continue;
    std::set<TableId> got;
    for (const ColumnResult& r : approx_top) got.insert(r.column.table_id);
    size_t hit = 0;
    for (const ColumnResult& r : exact_top) {
      if (got.count(r.column.table_id)) ++hit;
    }
    recall_sum += static_cast<double>(hit) /
                  static_cast<double>(exact_top.size());
    ++recall_n;
  }
  ASSERT_GT(recall_n, 0u);
  EXPECT_GE(recall_sum / static_cast<double>(recall_n), 0.95);
}

TEST(ApproxJoinSearchTest, RefinementPoolIsCappedAtKTimesFactor) {
  // 40 columns of 3000 values, each holding a different 1000-value half of
  // the 2000-value query: every true containment is 0.5, so every screening
  // interval reaches the top-k boundary.
  const std::vector<std::string> query = Values(0, 2000, "q");
  std::vector<std::pair<std::string, std::vector<std::string>>> tables;
  const size_t num_columns = 40;
  for (size_t i = 0; i < num_columns; ++i) {
    std::vector<std::string> vals = Values(0, 2000, "c" + std::to_string(i) +
                                                        "_");
    for (size_t j = 0; j < 1000; ++j) {
      vals.push_back(query[(j * 2 + i) % query.size()]);
    }
    tables.emplace_back("t" + std::to_string(i), std::move(vals));
  }
  DataLakeCatalog cat = OneColumnLake(tables);
  ApproxJoinSearch::Options opts;
  opts.estimator.max_sample = 256;
  opts.min_sample = 64;
  opts.max_sample = 256;
  ApproxJoinSearch search(&cat, opts);
  const size_t k = 2;
  const size_t cap = k * ApproxJoinSearch::kCandidateFactor;

  // More than k * kCandidateFactor columns reach the screening boundary.
  const HashedSet qset = search.estimator().QuerySet(query);
  std::vector<IntervalEstimate> screened;
  std::vector<double> los;
  for (size_t i = 0; i < search.num_indexed_columns(); ++i) {
    screened.push_back(search.estimator().EstimateContainment(
        qset, i, opts.min_sample, opts.error_budget));
    los.push_back(screened.back().lo);
  }
  ASSERT_EQ(screened.size(), num_columns);
  std::sort(los.begin(), los.end(), std::greater<double>());
  size_t reaching = 0;
  for (const IntervalEstimate& e : screened) {
    if (!e.exact && e.hi >= los[k - 1]) ++reaching;
  }
  ASSERT_GT(reaching, cap);

  // The documented cap: after screening every column once, each
  // refinement round re-estimates at most k * kCandidateFactor of them.
  ApproxQueryStats stats;
  const std::vector<ColumnResult> results =
      search.Search(query, k, opts.error_budget, &stats).value();
  EXPECT_EQ(results.size(), k);
  ASSERT_GT(stats.rounds, 1u);
  EXPECT_GT(stats.estimates, num_columns);
  EXPECT_LE(stats.estimates, num_columns + cap * (stats.rounds - 1));
  EXPECT_LE(stats.decisions(), cap);
}

TEST(ApproxJoinSearchTest, EveryAnswerCarriesIntervalOrExactTag) {
  SkewedSetsWorkload w;
  DataLakeCatalog cat = SkewedLake(&w);
  ApproxJoinSearch::Options opts;
  opts.estimator.max_sample = 128;
  opts.min_sample = 32;
  opts.max_sample = 128;
  ApproxJoinSearch search(&cat, opts);
  ApproxQueryStats stats;
  const std::vector<ColumnResult> results =
      search.Search(w.queries[0], 8, /*error_budget=*/0.1, &stats).value();
  ASSERT_FALSE(results.empty());
  for (const ColumnResult& r : results) {
    const bool interval = r.why.find("ci=[") != std::string::npos;
    const bool exact = r.why.find("(exact)") != std::string::npos;
    EXPECT_TRUE(interval || exact) << r.why;
  }
  EXPECT_GT(stats.estimates, 0u);
  EXPECT_GT(stats.decisions(), 0u);
}

TEST(ApproxJoinSearchTest, ThresholdSearchAgreesWithOracleAfterFallback) {
  SkewedSetsWorkload w;
  DataLakeCatalog cat = SkewedLake(&w);
  ApproxJoinSearch::Options opts;
  opts.estimator.max_sample = 256;
  ApproxJoinSearch search(&cat, opts);
  DiscoveryOracle oracle(&cat);
  const double threshold = 0.5;
  for (size_t q = 0; q < 3; ++q) {
    ApproxQueryStats stats;
    const std::vector<ColumnResult> accepted =
        search
            .SearchThreshold(w.queries[q], threshold, /*k=*/64,
                             /*error_budget=*/0.05, &stats)
            .value();
    // Exact-fallback verdicts are ground truth; interval verdicts hold at
    // 95% per decision. Check the exact ones strictly.
    for (const ColumnResult& r : accepted) {
      if (r.why.find("(exact)") == std::string::npos) continue;
      // Recover the oracle index for this table (one column per table).
      for (size_t i = 0; i < oracle.num_indexed_columns(); ++i) {
        if (oracle.indexed_columns()[i].table_id == r.column.table_id) {
          EXPECT_GE(oracle.ContainmentOf(w.queries[q], i), threshold);
        }
      }
    }
  }
}

TEST(ApproxJoinSearchTest, SearchIsDeterministic) {
  SkewedSetsWorkload w;
  DataLakeCatalog cat = SkewedLake(&w);
  ApproxJoinSearch a(&cat);
  ApproxJoinSearch b(&cat);
  for (size_t q = 0; q < 2; ++q) {
    const auto ra = a.Search(w.queries[q], 10).value();
    const auto rb = b.Search(w.queries[q], 10).value();
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].column, rb[i].column);
      EXPECT_EQ(ra[i].score, rb[i].score);
      EXPECT_EQ(ra[i].why, rb[i].why);
    }
  }
}

std::string Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, bits);
  return buf;
}

// Answers and work on the join-skewed shape are pinned bit for bit: ids,
// score bits, `why` strings and every ApproxQueryStats field. Exact
// fallback and interval estimation may change cost, never answers.
TEST(ApproxJoinSearchTest, GoldenAnswersOnPowerLawLake) {
  SkewedSetsWorkload w;
  DataLakeCatalog cat = PowerLawLake(&w);
  ApproxJoinSearch search(&cat);
  std::ostringstream got;
  for (size_t q = 0; q < 4; ++q) {
    ApproxQueryStats st;
    const std::vector<ColumnResult> results =
        search.Search(w.queries[q], 10, /*error_budget=*/-1, &st).value();
    for (const ColumnResult& r : results) {
      got << "q" << q << " t" << r.column.table_id << "."
          << r.column.column_index << " " << Bits(r.score) << " " << r.why
          << "\n";
    }
    got << "q" << q << " estimates=" << st.estimates
        << " fallbacks=" << st.exact_fallbacks
        << " intervals=" << st.interval_decisions << " rounds=" << st.rounds
        << " sum_width=" << Bits(st.sum_width)
        << " max_width=" << Bits(st.max_width)
        << " sum_sample=" << st.sum_sample_size << "\n";
  }
  const char* const kGolden =
      "q0 t218.0 3fe8000000000000 containment=0.750 (exact)\n"
      "q0 t328.0 3fe3b13b13b13b14 ~containment=0.615 ci=[0.276,0.955] n=1024\n"
      "q0 t100.0 3fd3b13b13b13b14 ~containment=0.308 ci=[0.000,0.647] n=1024\n"
      "q0 t286.0 3fd3b13b13b13b14 ~containment=0.308 ci=[0.000,0.647] n=1024\n"
      "q0 t5.0 3fd2d2d2d2d2d2d3 ~containment=0.294 ci=[0.000,0.591] n=1024\n"
      "q0 t86.0 3fd0b21642c8590b ~containment=0.261 ci=[0.006,0.516] n=1024\n"
      "q0 t264.0 3fd0000000000000 ~containment=0.250 ci=[0.000,0.603] n=1024\n"
      "q0 t146.0 3fce79e79e79e79e ~containment=0.238 ci=[0.000,0.505] n=1024\n"
      "q0 t155.0 3fcd89d89d89d89e ~containment=0.231 ci=[0.000,0.570] n=1024\n"
      "q0 t377.0 3fcd89d89d89d89e ~containment=0.231 ci=[0.000,0.570] n=1024\n"
      "q0 estimates=716 fallbacks=0 intervals=80 rounds=5 "
      "sum_width=403adae70e440483 max_width=3fe5b96878abc53e sum_sample=79737\n"
      "q1 t382.0 3fe8000000000000 containment=0.750 (exact)\n"
      "q1 t328.0 3fde50d79435e50d ~containment=0.474 ci=[0.193,0.754] n=1024\n"
      "q1 t8.0 3fd4b4b4b4b4b4b5 ~containment=0.324 ci=[0.114,0.533] n=1024\n"
      "q1 t155.0 3fd435e50d79435e ~containment=0.316 ci=[0.035,0.597] n=1024\n"
      "q1 t5.0 3fd1eb851eb851ec ~containment=0.280 ci=[0.035,0.525] n=1024\n"
      "q1 t100.0 3fd0000000000000 containment=0.250 (exact)\n"
      "q1 t264.0 3fd0000000000000 containment=0.250 (exact)\n"
      "q1 t59.0 3fce000000000000 containment=0.234 (exact)\n"
      "q1 t43.0 3fca000000000000 containment=0.203 (exact)\n"
      "q1 t61.0 3fca000000000000 containment=0.203 (exact)\n"
      "q1 estimates=717 fallbacks=67 intervals=12 rounds=5 "
      "sum_width=4000426eb9d395b1 max_width=3fe1f83b22ae3ba8 sum_sample=78501\n"
      "q2 t78.0 3fe8000000000000 containment=0.750 (exact)\n"
      "q2 t10.0 3fd1a7b9611a7b96 ~containment=0.276 ci=[0.049,0.503] n=1024\n"
      "q2 t255.0 3fd13b13b13b13b1 ~containment=0.269 ci=[0.029,0.509] n=1024\n"
      "q2 t100.0 3fd0000000000000 containment=0.250 (exact)\n"
      "q2 t155.0 3fce000000000000 containment=0.234 (exact)\n"
      "q2 t216.0 3fce000000000000 containment=0.234 (exact)\n"
      "q2 t152.0 3fca000000000000 containment=0.203 (exact)\n"
      "q2 t273.0 3fca000000000000 containment=0.203 (exact)\n"
      "q2 t61.0 3fc8000000000000 containment=0.188 (exact)\n"
      "q2 t68.0 3fc8000000000000 containment=0.188 (exact)\n"
      "q2 estimates=720 fallbacks=69 intervals=11 rounds=5 "
      "sum_width=3fede80fc08ee531 max_width=3fdeb904ccb5476a sum_sample=79825\n"
      "q3 t328.0 3fe71c71c71c71c7 ~containment=0.722 ci=[0.434,1.000] n=1024\n"
      "q3 t155.0 3fd1000000000000 containment=0.266 (exact)\n"
      "q3 t240.0 3fce000000000000 containment=0.234 (exact)\n"
      "q3 t264.0 3fce000000000000 containment=0.234 (exact)\n"
      "q3 t5.0 3fcc000000000000 containment=0.219 (exact)\n"
      "q3 t216.0 3fcc000000000000 containment=0.219 (exact)\n"
      "q3 t302.0 3fcc000000000000 containment=0.219 (exact)\n"
      "q3 t152.0 3fca000000000000 containment=0.203 (exact)\n"
      "q3 t61.0 3fc8000000000000 containment=0.188 (exact)\n"
      "q3 t281.0 3fc8000000000000 containment=0.188 (exact)\n"
      "q3 estimates=718 fallbacks=66 intervals=13 rounds=5 "
      "sum_width=3fe21eb31826b716 max_width=3fe21eb31826b716 sum_sample=77212\n";
  EXPECT_EQ(got.str(), kGolden);
}

// --- DiscoveryOracle ------------------------------------------------------

TEST(DiscoveryOracleTest, SetMeasuresAreExact) {
  const std::vector<std::string> a = Values(0, 100);
  const std::vector<std::string> b = Values(50, 150);
  EXPECT_EQ(DiscoveryOracle::ExactDistinct(a), 100u);
  EXPECT_EQ(DiscoveryOracle::ExactOverlap(a, b), 50u);
  EXPECT_DOUBLE_EQ(DiscoveryOracle::ExactContainment(a, b), 0.5);
  EXPECT_DOUBLE_EQ(DiscoveryOracle::ExactJaccard(a, b), 50.0 / 150.0);
  // Normalization: case and duplicates collapse like the engines'.
  EXPECT_EQ(DiscoveryOracle::ExactDistinct({"A", "a", "a ", "b"}), 2u);
}

TEST(DiscoveryOracleTest, TopKByContainmentIsBruteForce) {
  DataLakeCatalog cat = OneColumnLake({
      {"best", Values(0, 100)},     // containment 1.0
      {"half", Values(50, 150)},    // 0.5
      {"none", Values(500, 600)},   // 0.0 -> excluded
  });
  DiscoveryOracle oracle(&cat);
  DiscoveryOracle::Stats stats;
  const auto top = oracle.TopKByContainment(Values(0, 100), 5, &stats);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_DOUBLE_EQ(top[0].score, 1.0);
  EXPECT_DOUBLE_EQ(top[1].score, 0.5);
  EXPECT_EQ(stats.candidates_checked, 3u);
  EXPECT_GT(stats.probes, 0u);
}

// --- Sample-quality checks ------------------------------------------------

TEST(QualityTest, SeededHashesLookUniform) {
  std::vector<uint64_t> hashes;
  for (size_t i = 0; i < 5000; ++i) {
    hashes.push_back(Hash64("value" + std::to_string(i), /*seed=*/1234));
  }
  const approx::QualityCheck chi = approx::ChiSquareUniformity(hashes);
  EXPECT_TRUE(chi.passed) << chi.statistic << " vs " << chi.critical_value;
  const approx::QualityCheck ks = approx::KolmogorovSmirnovUniform(hashes);
  EXPECT_TRUE(ks.passed) << ks.statistic << " vs " << ks.critical_value;
}

TEST(QualityTest, SkewedSampleFailsBothChecks) {
  // Raw small integers are nowhere near uniform on [0, 2^64).
  std::vector<uint64_t> skewed;
  for (uint64_t i = 0; i < 5000; ++i) skewed.push_back(i);
  EXPECT_FALSE(approx::ChiSquareUniformity(skewed).passed);
  EXPECT_FALSE(approx::KolmogorovSmirnovUniform(skewed).passed);
}

// --- Engine + serving integration ----------------------------------------

DiscoveryEngine::Options LeanEngineOptions() {
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

class ApproxServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions opts;
    opts.seed = 37;
    opts.num_domains = 4;
    opts.num_templates = 2;
    opts.tables_per_template = 3;
    opts.min_rows = 30;
    opts.max_rows = 60;
    lake_ = new GeneratedLake(LakeGenerator(opts).Generate());
    engine_ = new DiscoveryEngine(&lake_->catalog, &lake_->kb,
                                  LeanEngineOptions());
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete lake_;
    engine_ = nullptr;
    lake_ = nullptr;
  }
  void TearDown() override { FailpointRegistry::Instance().ClearAll(); }

  static serve::QueryRequest ApproxJoin() {
    serve::QueryRequest req;
    req.kind = serve::QueryKind::kJoin;
    req.join_method = JoinMethod::kJosie;
    req.approx_ok = true;
    req.values = lake_->catalog.table(0).column(0).DistinctStrings();
    req.k = 5;
    return req;
  }

  static GeneratedLake* lake_;
  static DiscoveryEngine* engine_;
};

GeneratedLake* ApproxServeTest::lake_ = nullptr;
DiscoveryEngine* ApproxServeTest::engine_ = nullptr;

TEST_F(ApproxServeTest, EngineDispatchesKApprox) {
  const auto results =
      engine_->Joinable(lake_->catalog.table(0).column(0).DistinctStrings(),
                        JoinMethod::kApprox, 5)
          .value();
  ASSERT_FALSE(results.empty());
  // The query column itself is in the lake: containment 1.0 at the top.
  EXPECT_GE(results[0].score, 0.99);
}

TEST_F(ApproxServeTest, ServiceRoutesApproxOkAndRecordsMetrics) {
  serve::QueryService service(engine_, {});
  const serve::QueryResponse response = service.Execute(ApproxJoin());
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_TRUE(response.approx);
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.served_by, "join.approx");
  EXPECT_FALSE(response.columns.empty());
  EXPECT_EQ(service.metrics().GetCounter("approx.queries")->value(), 1u);
  EXPECT_GT(service.metrics().GetCounter("approx.estimates")->value(), 0u);
  const uint64_t decisions =
      service.metrics().GetCounter("approx.interval_decisions")->value() +
      service.metrics().GetCounter("approx.exact_fallbacks")->value();
  EXPECT_GT(decisions, 0u);
  EXPECT_GE(service.metrics().GetHistogram("approx.sample_size")->count(), 1u);
}

TEST_F(ApproxServeTest, RequireExactMethodVetoesApproxRouting) {
  serve::QueryService service(engine_, {});
  serve::QueryRequest req = ApproxJoin();
  req.require_exact_method = true;
  const serve::QueryResponse response = service.Execute(req);
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_FALSE(response.approx);
  EXPECT_EQ(response.served_by, "join.josie");
}

TEST_F(ApproxServeTest, ApproxAndExactAreCachedSeparately) {
  serve::QueryService service(engine_, {});
  serve::QueryRequest exact = ApproxJoin();
  exact.approx_ok = false;

  const serve::QueryResponse first = service.Execute(ApproxJoin());
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);

  // The exact variant misses the approx entry (different join_method after
  // routing => different key).
  const serve::QueryResponse exact_resp = service.Execute(exact);
  ASSERT_TRUE(exact_resp.status.ok());
  EXPECT_FALSE(exact_resp.cache_hit);
  EXPECT_FALSE(exact_resp.approx);

  // Same approx query again: cache hit, still flagged approximate.
  const serve::QueryResponse again = service.Execute(ApproxJoin());
  ASSERT_TRUE(again.status.ok());
  EXPECT_TRUE(again.cache_hit);
  EXPECT_TRUE(again.approx);

  // A different error budget is a different answer: its own entry.
  serve::QueryRequest tight = ApproxJoin();
  tight.error_budget = 0.01;
  const serve::QueryResponse tight_resp = service.Execute(tight);
  ASSERT_TRUE(tight_resp.status.ok());
  EXPECT_FALSE(tight_resp.cache_hit);
}

TEST_F(ApproxServeTest, ErrorBudgetIsValidated) {
  serve::QueryService service(engine_, {});
  serve::QueryRequest req = ApproxJoin();
  req.error_budget = 1.5;
  EXPECT_EQ(service.Execute(req).status.code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ApproxServeTest, JosieBrownoutPrefersApproxTier) {
  serve::QueryService::Options opts;
  opts.enable_cache = false;
  serve::QueryService service(engine_, opts);
  ScopedFailpoint scoped(
      "serve.exec.join.josie",
      FaultSpec{FaultSpec::Kind::kError, 0, 0, /*max_fires=*/0, 1.0});
  serve::QueryRequest req = ApproxJoin();
  req.approx_ok = false;  // not opted in: brownout, not routing
  const serve::QueryResponse response = service.Execute(req);
  ASSERT_TRUE(response.status.ok()) << response.status;
  EXPECT_TRUE(response.degraded);
  EXPECT_TRUE(response.approx);
  EXPECT_EQ(response.served_by, "join.approx");
}

TEST_F(ApproxServeTest, LiveModeServesApproxOverBaseAndDelta) {
  // The shared fixture catalog stays put (DataLakeCatalog is move-only);
  // this test builds its own small lake to hand to the live engine.
  GeneratorOptions gopts;
  gopts.seed = 39;
  gopts.num_domains = 3;
  gopts.num_templates = 2;
  gopts.tables_per_template = 2;
  gopts.min_rows = 30;
  gopts.max_rows = 50;
  GeneratedLake local = LakeGenerator(gopts).Generate();
  const Table origin = local.catalog.table(0);
  auto catalog =
      std::make_shared<const DataLakeCatalog>(std::move(local.catalog));
  auto base_engine = std::make_shared<const DiscoveryEngine>(
      catalog.get(), &local.kb, LeanEngineOptions());
  ingest::LiveEngine::Options lopts;
  lopts.base_options = LeanEngineOptions();
  lopts.kb = &local.kb;
  ingest::LiveEngine live(catalog, base_engine, lopts);

  // Ingest a copy of table 0 under a new name; its join column overlaps
  // table 0's completely, so the approx tier must surface the delta table.
  Table derived = origin;
  derived.set_name("derived_copy");
  ingest::LiveEngine::Batch batch;
  batch.adds.push_back(std::move(derived));
  const auto outcome = live.ApplyBatch(std::move(batch));
  ASSERT_EQ(outcome.adds.size(), 1u);
  ASSERT_TRUE(outcome.adds[0].ok());

  auto gen = live.Acquire();
  ApproxQueryStats stats;
  const auto results =
      ingest::MergedJoinable(*gen, origin.column(0).DistinctStrings(),
                             JoinMethod::kApprox, 10, nullptr, nullptr,
                             /*error_budget=*/0.1, &stats)
          .value();
  ASSERT_FALSE(results.empty());
  EXPECT_GT(stats.decisions(), 0u);
  const TableId delta_id = outcome.adds[0].value();
  EXPECT_TRUE(std::any_of(results.begin(), results.end(),
                          [&](const ColumnResult& r) {
                            return r.column.table_id == delta_id;
                          }));
}

TEST_F(ApproxServeTest, ClusterModeScattersApprox) {
  cluster::ClusterEngine::Options copts;
  copts.num_shards = 2;
  copts.engine.base_options = LeanEngineOptions();
  copts.engine.kb = &lake_->kb;
  cluster::ClusterEngine cluster(lake_->catalog, copts);
  const auto response = cluster.Joinable(
      lake_->catalog.table(0).column(0).DistinctStrings(),
      JoinMethod::kApprox, 5);
  ASSERT_TRUE(response.status.ok()) << response.status;
  ASSERT_FALSE(response.hits.empty());
  EXPECT_GE(response.hits[0].score, 0.99);

  serve::QueryService service(&cluster, {});
  const serve::QueryResponse served = service.Execute(ApproxJoin());
  ASSERT_TRUE(served.status.ok()) << served.status;
  EXPECT_TRUE(served.approx);
  EXPECT_EQ(served.served_by, "join.approx");
  EXPECT_FALSE(served.columns.empty());
}

}  // namespace
}  // namespace lake
