#include "embed/word_embedding.h"

#include "text/tokenizer.h"
#include "util/hash.h"

namespace lake {

WordEmbedding::WordEmbedding(Options options) : options_(options) {
  for (size_t i = 0; i < options_.dim; i += 4) {
    block_seeds_.push_back(Mix64(i + 1));
  }
}

void WordEmbedding::AccumulateFeature(std::string_view feature,
                                      uint64_t* lanes) const {
  // Each feature expands to a deterministic Rademacher-like vector: one
  // hash per 4 components, Hash64(base, i + 1), keeps hashing cost low
  // while remaining full-rank in expectation. Bit k of the hash is the
  // sign of component i + k (set = +1). Only the +1s are counted, in
  // 32-bit lanes: word 2b holds components 4b and 4b+1, word 2b+1 holds
  // 4b+2 and 4b+3.
  const uint64_t base = Hash64(feature, options_.seed);
  for (size_t b = 0; b < block_seeds_.size(); ++b) {
    const uint64_t h = Mix64(base ^ block_seeds_[b]);
    lanes[2 * b] += (h & 1) | ((h & 2) << 31);
    lanes[2 * b + 1] += ((h >> 2) & 1) | ((h & 8) << 29);
  }
}

void WordEmbedding::EmbedTokenInto(std::string_view token,
                                   std::vector<uint64_t>& lanes,
                                   Vector& out) const {
  out.assign(options_.dim, 0.0f);
  if (token.empty()) return;
  lanes.assign(2 * block_seeds_.size(), 0);

  AccumulateFeature(token, lanes.data());
  int64_t features = 1;

  // Boundary-marked n-grams, fastText style: "<to", "tok", ..., "en>",
  // walked over "<" + token + ">" without building it. Interior grams are
  // views into the token; only the few touching a marker are copied.
  const size_t marked = token.size() + 2;
  std::string edge;
  for (size_t g = options_.min_gram; g <= options_.max_gram && g <= marked;
       ++g) {
    for (size_t i = 0; i + g <= marked; ++i, ++features) {
      if (i > 0 && i + g < marked) {
        AccumulateFeature(token.substr(i - 1, g), lanes.data());
        continue;
      }
      edge.clear();
      for (size_t p = i; p < i + g; ++p) {
        edge += p == 0 ? '<' : p == marked - 1 ? '>' : token[p - 1];
      }
      AccumulateFeature(edge, lanes.data());
    }
  }

  // Every contribution is +-1, so component j is exactly 2 * plus - features:
  // the same float the sequential sum of +-1.0f gives (exact below 2^24).
  for (size_t j = 0; j < options_.dim; ++j) {
    const int64_t plus = (lanes[j / 2] >> (32 * (j % 2))) & 0xffffffffULL;
    out[j] = static_cast<float>(2 * plus - features);
  }
  NormalizeInPlace(out);
}

Vector WordEmbedding::EmbedToken(std::string_view token) const {
  Vector out;
  std::vector<uint64_t> lanes;
  EmbedTokenInto(token, lanes, out);
  return out;
}

Vector WordEmbedding::EmbedTokens(const std::vector<std::string>& tokens) const {
  Vector acc(options_.dim, 0.0f);
  Vector token_vec;
  std::vector<uint64_t> lanes;
  for (const std::string& t : tokens) {
    EmbedTokenInto(t, lanes, token_vec);
    AddInPlace(acc, token_vec);
  }
  NormalizeInPlace(acc);
  return acc;
}

Vector WordEmbedding::EmbedText(std::string_view text) const {
  return EmbedTokens(TokenizeWordsNoStopwords(text));
}

}  // namespace lake
