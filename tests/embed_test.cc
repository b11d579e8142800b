#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "embed/column_encoder.h"
#include "embed/contextual_encoder.h"
#include "embed/table_encoder.h"
#include "embed/word_embedding.h"
#include "table/table.h"
#include "util/hash.h"
#include "util/logging.h"

namespace lake {
namespace {

Column MakeColumn(const std::string& name,
                  const std::vector<std::string>& vals) {
  Column c(name, DataType::kString);
  for (const auto& v : vals) c.Append(Value(v));
  return c;
}

TEST(WordEmbeddingTest, DeterministicUnitNorm) {
  WordEmbedding words;
  const Vector a = words.EmbedToken("london");
  const Vector b = words.EmbedToken("london");
  EXPECT_EQ(a, b);
  EXPECT_NEAR(Norm(a), 1.0, 1e-5);
}

TEST(WordEmbeddingTest, EmptyTokenIsZero) {
  WordEmbedding words;
  EXPECT_DOUBLE_EQ(Norm(words.EmbedToken("")), 0.0);
  EXPECT_DOUBLE_EQ(Norm(words.EmbedTokens({})), 0.0);
}

TEST(WordEmbeddingTest, SharedMorphologyMoreSimilar) {
  WordEmbedding words;
  // Same "domain" morphology (shared syllables) vs unrelated surface.
  const double same =
      CosineSimilarity(words.EmbedToken("kelomira"), words.EmbedToken("kelomina"));
  const double diff =
      CosineSimilarity(words.EmbedToken("kelomira"), words.EmbedToken("ztvprqx"));
  EXPECT_GT(same, diff);
  EXPECT_GT(same, 0.3);
}

TEST(WordEmbeddingTest, SeedChangesSpace) {
  WordEmbedding a(WordEmbedding::Options{.seed = 1});
  WordEmbedding b(WordEmbedding::Options{.seed = 2});
  EXPECT_NE(a.EmbedToken("x"), b.EmbedToken("x"));
}

TEST(WordEmbeddingTest, TextAveragesTokens) {
  WordEmbedding words;
  const Vector t = words.EmbedText("london paris");
  EXPECT_NEAR(Norm(t), 1.0, 1e-5);
  EXPECT_GT(CosineSimilarity(t, words.EmbedToken("london")), 0.2);
}

// The straightforward per-feature algorithm the fused kernel replaced,
// kept verbatim as the exactness reference: every feature adds a +-1.0f
// sign vector, one Hash64(base, i + 1) per 4 components, to a float
// accumulator over the whole token and the n-grams of "<token>".
Vector ReferenceEmbedToken(std::string_view token, size_t dim,
                           size_t min_gram = 3, size_t max_gram = 5,
                           uint64_t seed = 0x5eedbeef) {
  auto accumulate = [&](std::string_view feature, double weight, Vector& acc) {
    const uint64_t base = Hash64(feature, seed);
    for (size_t i = 0; i < dim; i += 4) {
      uint64_t h = Hash64(base, /*seed=*/i + 1);
      for (size_t j = i; j < i + 4 && j < dim; ++j) {
        acc[j] += static_cast<float>(weight * (((h & 1) != 0) ? 1.0 : -1.0));
        h >>= 1;
      }
    }
  };
  Vector acc(dim, 0.0f);
  if (token.empty()) return acc;
  accumulate(token, 1.0, acc);
  std::string marked = "<";
  marked += token;
  marked += ">";
  for (size_t g = min_gram; g <= max_gram; ++g) {
    if (marked.size() < g) break;
    for (size_t i = 0; i + g <= marked.size(); ++i) {
      accumulate(std::string_view(marked).substr(i, g), 1.0, acc);
    }
  }
  NormalizeInPlace(acc);
  return acc;
}

bool SameBytes(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(WordEmbeddingTest, KernelIsBitExactAgainstReference) {
  std::mt19937_64 rng(20230618);
  std::vector<std::string> tokens = {"", "a", "z9", "<", ">", "<>", "ab",
                                     "0", "42", "2024", "1234567890"};
  for (int n = 0; n < 3000; ++n) {
    const size_t len = rng() % 20;
    const bool digits = n % 5 == 0;
    std::string t;
    for (size_t k = 0; k < len; ++k) {
      t += digits ? static_cast<char>('0' + rng() % 10)
                  : static_cast<char>('a' + rng() % 26);
    }
    tokens.push_back(t);
  }
  tokens.push_back(std::string(700, 'q'));
  for (size_t dim : {16, 48, 64, 100}) {
    const WordEmbedding words(WordEmbedding::Options{.dim = dim});
    for (const std::string& t : tokens) {
      ASSERT_TRUE(SameBytes(words.EmbedToken(t), ReferenceEmbedToken(t, dim)))
          << "dim " << dim << " token '" << t << "'";
    }
  }
  // A partial last block, a non-default gram range (1- and 2-grams) and seed.
  const WordEmbedding words(WordEmbedding::Options{
      .dim = 37, .min_gram = 1, .max_gram = 2, .seed = 7});
  for (size_t n = 0; n < 500; ++n) {
    const std::string& t = tokens[n];
    ASSERT_TRUE(SameBytes(words.EmbedToken(t),
                          ReferenceEmbedToken(t, 37, 1, 2, 7)))
        << "token '" << t << "'";
  }
}

TEST(WordEmbeddingTest, TokensAverageBitExactReferenceTokens) {
  const WordEmbedding words;
  const std::vector<std::string> tokens = {"london", "", "paris", "2024"};
  Vector expected(64, 0.0f);
  for (const std::string& t : tokens) {
    AddInPlace(expected, ReferenceEmbedToken(t, 64));
  }
  NormalizeInPlace(expected);
  EXPECT_TRUE(SameBytes(words.EmbedTokens(tokens), expected));
}

uint32_t FloatBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// Float bit patterns of the embeddings the reference algorithm produced;
// any drift here changes every ranked union answer.
TEST(WordEmbeddingTest, GoldenBytes) {
  const WordEmbedding d64;
  const Vector london = d64.EmbedToken("london");
  EXPECT_EQ(FloatBits(london[7]), 0xbe400000u);
  EXPECT_EQ(FloatBits(london[15]), 0x3e000000u);
  EXPECT_EQ(FloatBits(d64.EmbedToken("a")[1]), 0x3e2d166cu);
  EXPECT_EQ(FloatBits(d64.EmbedText("London Paris 2024")[3]), 0xbdb39ba4u);

  const Vector year =
      WordEmbedding(WordEmbedding::Options{.dim = 48}).EmbedToken("2024");
  EXPECT_EQ(FloatBits(year[0]), 0x3e659cb0u);
  EXPECT_EQ(FloatBits(year[2]), 0xbd991320u);
  EXPECT_EQ(FloatBits(WordEmbedding(WordEmbedding::Options{.dim = 16})
                          .EmbedToken("kelomira")[2]),
            0xbe8f6381u);
  EXPECT_EQ(FloatBits(WordEmbedding(WordEmbedding::Options{.dim = 100})
                          .EmbedToken("ab")[1]),
            0x3e5e2305u);
}

TEST(ColumnEncoderTest, SimilarColumnsCloser) {
  WordEmbedding words;
  ColumnEncoder enc(&words);
  const Column a = MakeColumn("city", {"kelora", "kelavi", "keluna"});
  const Column b = MakeColumn("town", {"kelora", "kelavi", "keluva"});
  const Column c = MakeColumn("metric", {"zzt991", "qqp442", "wwx13"});
  const Vector va = enc.Encode(a);
  EXPECT_GT(CosineSimilarity(va, enc.Encode(b)),
            CosineSimilarity(va, enc.Encode(c)));
}

TEST(ColumnEncoderTest, NameWeightMixesIn) {
  WordEmbedding words;
  ColumnEncoder with_name(&words, ColumnEncoder::Options{256, 0.5});
  ColumnEncoder without_name(&words, ColumnEncoder::Options{256, 0.0});
  const Column a = MakeColumn("population", {"x1", "x2"});
  const Column b = MakeColumn("elevation", {"x1", "x2"});
  // Without names the embeddings agree; with names they diverge.
  EXPECT_NEAR(
      CosineSimilarity(without_name.Encode(a), without_name.Encode(b)), 1.0,
      1e-5);
  EXPECT_LT(CosineSimilarity(with_name.Encode(a), with_name.Encode(b)), 0.999);
}

TEST(ColumnEncoderTest, AllNullColumnIsZeroVector) {
  WordEmbedding words;
  ColumnEncoder enc(&words, ColumnEncoder::Options{256, 0.0});
  Column c("x", DataType::kString);
  c.Append(Value::Null());
  EXPECT_DOUBLE_EQ(Norm(enc.Encode(c)), 0.0);
}

Table TwoColumnTable(const std::string& name,
                     const std::vector<std::string>& col1,
                     const std::vector<std::string>& col1_vals,
                     const std::vector<std::string>& col2_vals) {
  Table t(name);
  LAKE_CHECK(t.AddColumn(MakeColumn(col1[0], col1_vals)).ok());
  LAKE_CHECK(t.AddColumn(MakeColumn(col1[1], col2_vals)).ok());
  return t;
}

TEST(ContextualEncoderTest, ContextDisambiguatesIdenticalColumns) {
  WordEmbedding words;
  ColumnEncoder base(&words, ColumnEncoder::Options{256, 0.0});
  ContextualColumnEncoder ctx(&base);

  // The same "name" column in two very different table contexts.
  const std::vector<std::string> shared = {"kelora", "kelavi", "keluna"};
  Table t1 = TwoColumnTable("animals", {"name", "species"}, shared,
                            {"lionas", "tigras", "pumava"});
  Table t2 = TwoColumnTable("cars", {"name", "engine"}, shared,
                            {"v8motor", "v6motor", "turbov12"});
  const Vector v1 = ctx.EncodeTable(t1)[0];
  const Vector v2 = ctx.EncodeTable(t2)[0];
  // Context-free embeddings of the shared column are identical...
  EXPECT_NEAR(CosineSimilarity(base.Encode(t1.column(0)),
                               base.Encode(t2.column(0))),
              1.0, 1e-5);
  // ...contextual ones differ (Starmie's disambiguation property).
  EXPECT_LT(CosineSimilarity(v1, v2), 0.999);
}

TEST(ContextualEncoderTest, AlphaZeroReducesToContextFree) {
  WordEmbedding words;
  ColumnEncoder base(&words, ColumnEncoder::Options{256, 0.0});
  ContextualColumnEncoder ctx(&base,
                              ContextualColumnEncoder::Options{0.0, 0.25});
  Table t = TwoColumnTable("t", {"a", "b"}, {"x1", "x2"}, {"y1", "y2"});
  const auto vecs = ctx.EncodeTable(t);
  EXPECT_NEAR(CosineSimilarity(vecs[0], base.Encode(t.column(0))), 1.0, 1e-5);
}

TEST(ContextualEncoderTest, SingleColumnUnchanged) {
  WordEmbedding words;
  ColumnEncoder base(&words, ColumnEncoder::Options{256, 0.0});
  ContextualColumnEncoder ctx(&base);
  Table t("t");
  LAKE_CHECK(t.AddColumn(MakeColumn("only", {"a", "b"})).ok());
  const auto vecs = ctx.EncodeTable(t);
  EXPECT_NEAR(CosineSimilarity(vecs[0], base.Encode(t.column(0))), 1.0, 1e-5);
}

TEST(TableEncoderTest, SameTopicTablesCloser) {
  WordEmbedding words;
  ColumnEncoder cols(&words);
  TableEncoder enc(&cols, &words);
  Table a = TwoColumnTable("cities of kel", {"city", "mayor"},
                           {"kelora", "kelavi"}, {"morvan", "morlen"});
  Table b = TwoColumnTable("more kel cities", {"city", "mayor"},
                           {"keluna", "kelora"}, {"morzal", "morvan"});
  Table c = TwoColumnTable("engines", {"engine", "power"},
                           {"v8motor", "turbov12"}, {"450", "820"});
  const Vector va = enc.Encode(a);
  EXPECT_GT(CosineSimilarity(va, enc.Encode(b)),
            CosineSimilarity(va, enc.Encode(c)));
  EXPECT_NEAR(Norm(va), 1.0, 1e-5);
}

}  // namespace
}  // namespace lake
