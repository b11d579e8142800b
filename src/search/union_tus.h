#ifndef LAKE_SEARCH_UNION_TUS_H_
#define LAKE_SEARCH_UNION_TUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "annotate/knowledge_base.h"
#include "embed/column_encoder.h"
#include "index/hyperplane_lsh.h"
#include "search/query.h"
#include "table/catalog.h"
#include "util/cancel.h"

namespace lake {

/// Table Union Search (Nargesian et al., VLDB 2018): a lake table is
/// unionable with the query when its attributes are pairwise unionable
/// with the query's attributes, i.e. drawn from the same domains.
///
/// Attribute unionability is an ensemble of three signals, exactly the
/// paper's taxonomy:
///   - *set* (syntactic): value-set overlap (Jaccard);
///   - *sem* (ontology): both columns ground to the same KB type, scored
///     by the weaker coverage;
///   - *nl* (natural language): cosine of mean value embeddings.
/// The attribute score is the max of the enabled signals (the paper's
/// ensemble picks the most confident measure per pair); the table score
/// aggregates attribute scores with max-weight bipartite matching and
/// normalizes by the query's column count (c-alignment).
///
/// Candidate generation mirrors the paper's LSH usage: lake column
/// embeddings live in a random-hyperplane LSH; tables owning a colliding
/// column are scored fully. `exhaustive = true` scores every table
/// (ground-truth mode for benchmarks).
///
/// The set measure is answered by ScanCount over a value-hash inverted
/// index: one walk of a query column's hash postings counts |A∩B| against
/// every lake column at once, so scoring a candidate reads its overlaps
/// instead of merging two sorted hash sets per attribute pair. Embedding
/// norms are computed once per lake column and once per query column.
/// Scores are bit-identical to the per-pair merge and cosine.
class TusUnionSearch {
 public:
  struct Options {
    bool use_set_measure = true;
    bool use_semantic_measure = true;
    bool use_nl_measure = true;
    /// Attribute pairs scoring below this contribute nothing.
    double min_attribute_score = 0.3;
    /// Values sampled per column for set/sem measures.
    size_t max_values = 256;
    bool exhaustive = false;
    HyperplaneLsh::Options lsh;
  };

  /// `kb` may be null (disables the semantic measure).
  TusUnionSearch(const DataLakeCatalog* catalog, const ColumnEncoder* encoder,
                 const KnowledgeBase* kb)
      : TusUnionSearch(catalog, encoder, kb, Options{}) {}
  TusUnionSearch(const DataLakeCatalog* catalog, const ColumnEncoder* encoder,
                 const KnowledgeBase* kb, Options options);

  /// Top-k unionable tables for a query table (which need not be in the
  /// catalog; if it is, pass its id via `exclude` to drop self-matches).
  /// `cancel` is polled before the query is prepared and between
  /// candidate tables during scoring.
  Result<std::vector<TableResult>> Search(
      const Table& query, size_t k, int64_t exclude = -1,
      const CancelToken* cancel = nullptr) const;

  /// Unionability score of one candidate table (diagnostics, tests).
  double ScoreTable(const Table& query, TableId candidate) const;

 private:
  struct ColumnInfo {
    ColumnRef ref;
    size_t set_size = 0;     // distinct sampled value hashes
    Vector embedding;
    double norm = 0;         // Norm(embedding)
    std::string kb_type;     // "" when ungrounded
    double kb_coverage = 0;
  };

  struct QueryColumn {
    size_t set_size = 0;
    /// |A∩B| against every lake column, by column index (ScanCount over
    /// the value index); empty when the set measure is off.
    std::vector<uint32_t> overlap;
    Vector embedding;
    double norm = 0;
    std::string kb_type;
    double kb_coverage = 0;
  };

  /// Fills keys_/offsets_/postings_ from each lake column's sorted,
  /// deduplicated value hashes (indexed by column).
  void BuildValueIndex(std::vector<std::vector<uint64_t>> column_hashes);
  std::vector<QueryColumn> PrepareQuery(const Table& query) const;
  double AttributeScore(const QueryColumn& q, uint32_t col) const;
  double ScorePrepared(const std::vector<QueryColumn>& q, TableId t) const;

  const DataLakeCatalog* catalog_;
  const ColumnEncoder* encoder_;
  const KnowledgeBase* kb_;
  Options options_;
  std::vector<ColumnInfo> columns_;
  std::vector<std::vector<uint32_t>> table_columns_;  // table -> column idx
  // Value-hash inverted index in CSR form, built only with the set
  // measure: the columns holding hash keys_[i] are
  // postings_[offsets_[i] .. offsets_[i + 1]), ascending.
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> postings_;
  HyperplaneLsh lsh_;
};

}  // namespace lake

#endif  // LAKE_SEARCH_UNION_TUS_H_
