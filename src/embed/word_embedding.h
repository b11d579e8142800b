#ifndef LAKE_EMBED_WORD_EMBEDDING_H_
#define LAKE_EMBED_WORD_EMBEDDING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "index/vector_ops.h"

namespace lake {

/// Deterministic fastText-style word embeddings — the library's substitute
/// for pre-trained language models (see DESIGN.md, substitution 1).
///
/// A token's vector is the normalized sum of pseudo-random sign vectors of
/// (a) the whole token and (b) its character n-grams (default 3..5, with
/// boundary markers), each derived purely from a hash. Tokens that share
/// surface structure — same domain morphology, shared words, common
/// prefixes — therefore land near each other, which is exactly the
/// property discovery algorithms (PEXESO, TUS-NL, Starmie) rely on, while
/// requiring no model file and staying bit-reproducible.
class WordEmbedding {
 public:
  struct Options {
    size_t dim = 64;
    size_t min_gram = 3;
    size_t max_gram = 5;
    uint64_t seed = 0x5eedbeef;
  };

  WordEmbedding() : WordEmbedding(Options{}) {}
  explicit WordEmbedding(Options options);

  size_t dim() const { return options_.dim; }

  /// Unit-norm embedding of one token. Deterministic. The empty token maps
  /// to the zero vector.
  Vector EmbedToken(std::string_view token) const;

  /// Normalized mean of token embeddings (the empty list gives zero).
  Vector EmbedTokens(const std::vector<std::string>& tokens) const;

  /// Embedding of free text: tokenize, drop stopwords, average.
  Vector EmbedText(std::string_view text) const;

 private:
  /// Writes EmbedToken(token) into `out` (dim floats). `lanes` is scratch
  /// of two words per 4-component block, reused across calls.
  void EmbedTokenInto(std::string_view token, std::vector<uint64_t>& lanes,
                      Vector& out) const;

  /// Adds one feature's sign bits to the per-component +1 counts in
  /// `lanes`.
  void AccumulateFeature(std::string_view feature, uint64_t* lanes) const;

  Options options_;
  /// Mix64(i + 1) for each block starting at component i: the constant half
  /// of the per-block hash Hash64(feature_hash, i + 1).
  std::vector<uint64_t> block_seeds_;
};

}  // namespace lake

#endif  // LAKE_EMBED_WORD_EMBEDDING_H_
