#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "index/josie.h"
#include "lakegen/benchmark_lakes.h"
#include "util/cancel.h"
#include "util/logging.h"
#include "util/random.h"

namespace lake {
namespace {

std::vector<std::string> Values(size_t begin, size_t end) {
  std::vector<std::string> out;
  for (size_t i = begin; i < end; ++i) out.push_back("v" + std::to_string(i));
  return out;
}

// --- JOSIE ------------------------------------------------------------

TEST(JosieTest, ExactTopKSimple) {
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(0, Values(0, 100)).ok());   // overlap 50
  ASSERT_TRUE(idx.AddSet(1, Values(40, 90)).ok());   // overlap 50 (all)
  ASSERT_TRUE(idx.AddSet(2, Values(45, 55)).ok());   // overlap 10
  ASSERT_TRUE(idx.AddSet(3, Values(500, 600)).ok()); // overlap 0
  ASSERT_TRUE(idx.Build().ok());

  const auto hits = idx.TopK(Values(40, 90), 2).value();
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].overlap, 50u);
  EXPECT_EQ(hits[1].overlap, 50u);
  // Zero-overlap sets never surface.
  const auto all = idx.TopK(Values(40, 90), 10).value();
  for (const auto& h : all) EXPECT_NE(h.id, 3u);
}

TEST(JosieTest, LifecycleErrors) {
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(0, Values(0, 5)).ok());
  EXPECT_FALSE(idx.TopK(Values(0, 5), 1).ok());  // not built
  ASSERT_TRUE(idx.Build().ok());
  EXPECT_FALSE(idx.AddSet(1, Values(0, 5)).ok());  // already built
  EXPECT_FALSE(idx.Build().ok());
}

TEST(JosieTest, EmptyAndUnseenQueries) {
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(0, Values(0, 5)).ok());
  ASSERT_TRUE(idx.Build().ok());
  EXPECT_TRUE(idx.TopK({}, 3).value().empty());
  EXPECT_TRUE(idx.TopK(Values(1000, 1010), 3).value().empty());
  EXPECT_TRUE(idx.TopK(Values(0, 5), 0).value().empty());
}

TEST(JosieTest, NormalizationApplied) {
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(0, {"  Apple ", "BANANA"}).ok());
  ASSERT_TRUE(idx.Build().ok());
  const auto hits = idx.TopK({"apple", "banana"}, 1).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].overlap, 2u);
}

TEST(JosieTest, StatsShowPruning) {
  JosieIndex idx;
  // One dominant set and many sets sharing only a few common tokens.
  ASSERT_TRUE(idx.AddSet(0, Values(0, 200)).ok());
  for (size_t s = 1; s <= 60; ++s) {
    auto set = Values(0, 3);  // 3 very frequent tokens
    auto rare = Values(10000 + s * 100, 10000 + s * 100 + 50);
    set.insert(set.end(), rare.begin(), rare.end());
    ASSERT_TRUE(idx.AddSet(s, set).ok());
  }
  ASSERT_TRUE(idx.Build().ok());
  JosieIndex::QueryStats stats;
  const auto hits = idx.TopK(Values(0, 200), 1, &stats).value();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 0u);
  EXPECT_EQ(hits[0].overlap, 200u);
  // The rare-first order defers the frequent tokens; with k=1 the scan
  // should terminate before reading every list.
  EXPECT_LT(stats.lists_read, 200u);
}

TEST(JosieSerializationTest, SaveLoadRoundTrip) {
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(10, Values(0, 100)).ok());
  ASSERT_TRUE(idx.AddSet(20, Values(40, 90)).ok());
  ASSERT_TRUE(idx.AddSet(30, Values(500, 600)).ok());
  ASSERT_TRUE(idx.Build().ok());

  std::stringstream buffer;
  ASSERT_TRUE(idx.Save(&buffer).ok());

  JosieIndex loaded;
  ASSERT_TRUE(loaded.Load(&buffer).ok());
  EXPECT_TRUE(loaded.built());
  EXPECT_EQ(loaded.num_sets(), idx.num_sets());
  EXPECT_EQ(loaded.vocabulary_size(), idx.vocabulary_size());

  const auto a = idx.TopK(Values(40, 90), 3).value();
  const auto b = loaded.TopK(Values(40, 90), 3).value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].overlap, b[i].overlap);
  }
}

TEST(JosieSerializationTest, Errors) {
  JosieIndex unbuilt;
  ASSERT_TRUE(unbuilt.AddSet(0, Values(0, 5)).ok());
  std::stringstream buffer;
  EXPECT_FALSE(unbuilt.Save(&buffer).ok());  // must be built

  std::stringstream garbage("not an index");
  JosieIndex target;
  EXPECT_FALSE(target.Load(&garbage).ok());

  // Truncated stream.
  JosieIndex idx;
  ASSERT_TRUE(idx.AddSet(0, Values(0, 50)).ok());
  ASSERT_TRUE(idx.Build().ok());
  std::stringstream full;
  ASSERT_TRUE(idx.Save(&full).ok());
  const std::string bytes = full.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(target.Load(&truncated).ok());
}

// Property: JOSIE's filtered top-k matches brute force on random inputs
// (exactness is JOSIE's contract — the filters must only save work).
class JosieExactness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JosieExactness, MatchesBruteForce) {
  Rng rng(GetParam());
  JosieIndex idx;
  const size_t num_sets = 60 + rng.NextBounded(60);
  const size_t universe = 500;
  for (size_t s = 0; s < num_sets; ++s) {
    const size_t size = 5 + rng.NextBounded(80);
    std::vector<std::string> set;
    for (size_t i = 0; i < size; ++i) {
      set.push_back("v" + std::to_string(rng.NextBounded(universe)));
    }
    ASSERT_TRUE(idx.AddSet(s, set).ok());
  }
  ASSERT_TRUE(idx.Build().ok());

  for (int q = 0; q < 5; ++q) {
    const size_t qsize = 5 + rng.NextBounded(60);
    std::vector<std::string> query;
    for (size_t i = 0; i < qsize; ++i) {
      query.push_back("v" + std::to_string(rng.NextBounded(universe)));
    }
    const size_t k = 1 + rng.NextBounded(10);
    const auto fast = idx.TopK(query, k).value();
    const auto slow = idx.TopKBruteForce(query, k).value();
    ASSERT_EQ(fast.size(), slow.size());
    // Overlap multiset must match exactly (ids may permute within ties).
    std::vector<uint32_t> fo, so;
    for (const auto& h : fast) fo.push_back(h.overlap);
    for (const auto& h : slow) so.push_back(h.overlap);
    EXPECT_EQ(fo, so);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JosieExactness,
                         ::testing::Range<uint64_t>(1, 13));

// The join-skewed shape: power-law sets of 8..4096 values, 64-value
// queries drawn mostly from one host set. Long posting lists, a heavy
// tail of tiny sets and host sets far larger than the query exercise the
// early stop and the suffix verification that 5..85-value sets never do.
class JosieSkewedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SkewedSetsOptions opts;  // 400 sets, 8..4096 values, 64-value queries
    opts.num_queries = 8;
    workload_ = new SkewedSetsWorkload(MakeSkewedSetsWorkload(opts));
    index_ = new JosieIndex();
    std::set<std::string> lake_values;
    for (size_t s = 0; s < workload_->sets.size(); ++s) {
      LAKE_CHECK(index_->AddSet(s, workload_->sets[s]).ok());
      lake_values.insert(workload_->sets[s].begin(),
                         workload_->sets[s].end());
    }
    LAKE_CHECK(index_->Build().ok());
    // A query reads every list iff it reads one per distinct query value
    // present in the lake (generated values are already normalized).
    for (const auto& query : workload_->queries) {
      size_t present = 0;
      for (const std::string& v : std::set<std::string>(query.begin(),
                                                        query.end())) {
        present += lake_values.count(v);
      }
      present_lists_.push_back(present);
    }
  }
  static void TearDownTestSuite() {
    delete index_;
    delete workload_;
  }

  static SkewedSetsWorkload* workload_;
  static JosieIndex* index_;
  static std::vector<size_t> present_lists_;
};

SkewedSetsWorkload* JosieSkewedTest::workload_ = nullptr;
JosieIndex* JosieSkewedTest::index_ = nullptr;
std::vector<size_t> JosieSkewedTest::present_lists_;

// k = 400 (every set) never fills the top-k, so every list is read; the
// smaller k stop early on this shape.
constexpr size_t kSkewedKs[] = {1, 10, 50, 400};

TEST_F(JosieSkewedTest, MatchesBruteForce) {
  size_t full_reads = 0;
  for (size_t k : kSkewedKs) {
    for (size_t q = 0; q < workload_->queries.size(); ++q) {
      SCOPED_TRACE("k=" + std::to_string(k) + " q=" + std::to_string(q));
      JosieIndex::QueryStats stats;
      const auto fast = index_->TopK(workload_->queries[q], k, &stats).value();
      const auto slow =
          index_->TopKBruteForce(workload_->queries[q], k).value();
      ASSERT_EQ(fast.size(), slow.size());
      const bool all_lists_read = stats.lists_read == present_lists_[q];
      full_reads += all_lists_read;
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].overlap, slow[i].overlap) << "rank " << i;
        // With every list read, ties at rank k break by set index exactly
        // as in the brute-force scan.
        if (all_lists_read) {
          EXPECT_EQ(fast[i].id, slow[i].id) << "rank " << i;
        }
      }
    }
  }
  // Both branches are exercised: the k = 400 queries read every list, the
  // others stop early.
  EXPECT_EQ(full_reads, workload_->queries.size());
}

// Work counters are deterministic; a kernel rewrite must leave them as
// they are (a change here means the filters prune differently).
TEST_F(JosieSkewedTest, WorkCountersArePinned) {
  std::ostringstream got;
  for (size_t k : kSkewedKs) {
    for (size_t q = 0; q < workload_->queries.size(); ++q) {
      JosieIndex::QueryStats st;
      ASSERT_TRUE(index_->TopK(workload_->queries[q], k, &st).ok());
      got << "k=" << k << " q=" << q << " postings=" << st.posting_entries_read
          << " lists=" << st.lists_read << " seen=" << st.candidates_seen
          << " verified=" << st.candidates_verified << "\n";
    }
  }
  const char* const kGolden =
      "k=1 q=0 postings=428 lists=39 seen=158 verified=1\n"
      "k=1 q=1 postings=404 lists=37 seen=132 verified=1\n"
      "k=1 q=2 postings=408 lists=38 seen=151 verified=1\n"
      "k=1 q=3 postings=409 lists=38 seen=135 verified=1\n"
      "k=1 q=4 postings=423 lists=39 seen=141 verified=1\n"
      "k=1 q=5 postings=434 lists=39 seen=153 verified=1\n"
      "k=1 q=6 postings=371 lists=36 seen=143 verified=1\n"
      "k=1 q=7 postings=391 lists=36 seen=147 verified=1\n"
      "k=10 q=0 postings=650 lists=54 seen=181 verified=111\n"
      "k=10 q=1 postings=678 lists=54 seen=161 verified=64\n"
      "k=10 q=2 postings=656 lists=54 seen=184 verified=87\n"
      "k=10 q=3 postings=650 lists=54 seen=164 verified=84\n"
      "k=10 q=4 postings=661 lists=55 seen=172 verified=58\n"
      "k=10 q=5 postings=663 lists=54 seen=175 verified=83\n"
      "k=10 q=6 postings=648 lists=55 seen=167 verified=89\n"
      "k=10 q=7 postings=658 lists=53 seen=173 verified=69\n"
      "k=50 q=0 postings=739 lists=59 seen=186 verified=120\n"
      "k=50 q=1 postings=770 lists=59 seen=173 verified=90\n"
      "k=50 q=2 postings=748 lists=59 seen=188 verified=120\n"
      "k=50 q=3 postings=738 lists=59 seen=170 verified=119\n"
      "k=50 q=4 postings=714 lists=58 seen=174 verified=173\n"
      "k=50 q=5 postings=750 lists=59 seen=180 verified=128\n"
      "k=50 q=6 postings=714 lists=59 seen=172 verified=121\n"
      "k=50 q=7 postings=767 lists=59 seen=183 verified=124\n"
      "k=400 q=0 postings=838 lists=64 seen=191 verified=0\n"
      "k=400 q=1 postings=877 lists=64 seen=185 verified=0\n"
      "k=400 q=2 postings=847 lists=64 seen=196 verified=0\n"
      "k=400 q=3 postings=830 lists=64 seen=181 verified=0\n"
      "k=400 q=4 postings=834 lists=64 seen=185 verified=0\n"
      "k=400 q=5 postings=852 lists=64 seen=189 verified=0\n"
      "k=400 q=6 postings=814 lists=64 seen=181 verified=0\n"
      "k=400 q=7 postings=866 lists=64 seen=192 verified=0\n";
  EXPECT_EQ(got.str(), kGolden);
}

TEST_F(JosieSkewedTest, ExpiredCancelTokenAborts) {
  CancelToken expired(std::chrono::nanoseconds(0));
  const auto deadline =
      index_->TopK(workload_->queries[0], 10, nullptr, &expired);
  ASSERT_FALSE(deadline.ok());
  EXPECT_EQ(deadline.status().code(), StatusCode::kDeadlineExceeded);

  CancelToken cancelled;
  cancelled.Cancel();
  const auto aborted =
      index_->TopK(workload_->queries[0], 10, nullptr, &cancelled);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace lake
