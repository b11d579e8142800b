#ifndef LAKE_SEARCH_UNION_STARMIE_H_
#define LAKE_SEARCH_UNION_STARMIE_H_

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "embed/contextual_encoder.h"
#include "index/flat_vector_index.h"
#include "index/hnsw.h"
#include "search/query.h"
#include "table/catalog.h"
#include "util/cancel.h"

namespace lake {

/// Starmie-style union search (Fan et al., 2022): contextualized column
/// embeddings + ANN retrieval + bipartite aggregation.
///
/// Every lake column is embedded *in its table context* (see
/// ContextualColumnEncoder for the LM substitution) and indexed in HNSW.
/// A query column retrieves its nearest lake columns; tables owning hits
/// are verified by computing the full query-columns × candidate-columns
/// cosine matrix and aggregating with max-weight bipartite matching,
/// normalized by the query column count — Starmie's "verification" score.
/// `use_hnsw = false` degrades retrieval to an exact linear scan, the
/// baseline Starmie's efficiency experiments compare against (E7).
class StarmieUnionSearch {
 public:
  struct Options {
    /// ANN neighbors retrieved per query column.
    size_t neighbors_per_column = 32;
    /// Column pairs below this cosine contribute nothing to matching.
    double min_cosine = 0.5;
    bool use_hnsw = true;
    size_t hnsw_m = 16;
    size_t hnsw_ef_construction = 100;
    size_t hnsw_ef_search = 64;
  };

  StarmieUnionSearch(const DataLakeCatalog* catalog,
                     const ContextualColumnEncoder* encoder)
      : StarmieUnionSearch(catalog, encoder, Options{}) {}
  StarmieUnionSearch(const DataLakeCatalog* catalog,
                     const ContextualColumnEncoder* encoder, Options options);

  /// Top-k unionable tables. `exclude` drops a self-match by id. `cancel`
  /// is polled between query columns during retrieval and between
  /// candidate tables during bipartite verification.
  Result<std::vector<TableResult>> Search(
      const Table& query, size_t k, int64_t exclude = -1,
      const CancelToken* cancel = nullptr) const;

  /// Verified score of one candidate table (diagnostics, tests).
  double ScoreTable(const Table& query, TableId candidate) const;

  size_t num_indexed_columns() const { return refs_.size(); }

  /// Persists the column mapping, the column embeddings, and the HNSW
  /// graph (the payload of snapshot section "index/starmie.hnsw"), so a
  /// restart skips re-encoding every lake column. Requires use_hnsw.
  Status SaveSnapshot(std::ostream* out) const;

  /// Restores a search persisted with SaveSnapshot against the same
  /// catalog and encoder. Validates refs against the catalog, the graph
  /// size against the mapping, and the graph dimension against the
  /// encoder; any mismatch fails the load without a partial object.
  static Result<std::unique_ptr<StarmieUnionSearch>> FromSnapshot(
      const DataLakeCatalog* catalog, const ContextualColumnEncoder* encoder,
      const std::string& payload) {
    return FromSnapshot(catalog, encoder, payload, Options{});
  }
  static Result<std::unique_ptr<StarmieUnionSearch>> FromSnapshot(
      const DataLakeCatalog* catalog, const ContextualColumnEncoder* encoder,
      const std::string& payload, Options options);

 private:
  struct DeferBuildTag {};
  StarmieUnionSearch(const DataLakeCatalog* catalog,
                     const ContextualColumnEncoder* encoder, Options options,
                     DeferBuildTag);

  /// `query_norms[i]` is Norm(query_vecs[i]), computed once per query.
  double ScorePrepared(const std::vector<Vector>& query_vecs,
                       const std::vector<double>& query_norms,
                       TableId t) const;

  const DataLakeCatalog* catalog_;
  const ContextualColumnEncoder* encoder_;
  Options options_;
  std::vector<ColumnRef> refs_;
  std::vector<Vector> vectors_;                      // per dense column
  std::vector<double> norms_;  // Norm(vectors_[i]); derived, not persisted
  std::vector<std::vector<uint32_t>> table_columns_; // table -> dense cols
  HnswIndex hnsw_;
  FlatVectorIndex flat_;
};

}  // namespace lake

#endif  // LAKE_SEARCH_UNION_STARMIE_H_
