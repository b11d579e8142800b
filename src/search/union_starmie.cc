#include "search/union_starmie.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "index/vector_ops.h"
#include "search/bipartite_matching.h"
#include "util/logging.h"
#include "util/serialize.h"
#include "util/string_util.h"
#include "util/top_k.h"

namespace lake {

StarmieUnionSearch::StarmieUnionSearch(const DataLakeCatalog* catalog,
                                       const ContextualColumnEncoder* encoder,
                                       Options options)
    : catalog_(catalog),
      encoder_(encoder),
      options_(options),
      hnsw_(HnswIndex::Options{encoder->dim(), VectorMetric::kCosine,
                               options.hnsw_m, options.hnsw_ef_construction,
                               /*seed=*/1234}),
      flat_(encoder->dim(), VectorMetric::kCosine) {
  table_columns_.resize(catalog_->num_tables());
  for (TableId t : catalog_->AllTables()) {
    const Table& table = catalog_->table(t);
    const std::vector<Vector> vecs = encoder_->EncodeTable(table);
    for (size_t c = 0; c < vecs.size(); ++c) {
      const uint32_t idx = static_cast<uint32_t>(refs_.size());
      refs_.push_back(ColumnRef{t, static_cast<uint32_t>(c)});
      table_columns_[t].push_back(idx);
      if (options_.use_hnsw) {
        LAKE_CHECK(hnsw_.Insert(idx, vecs[c]).ok());
      } else {
        LAKE_CHECK(flat_.Insert(idx, vecs[c]).ok());
      }
      vectors_.push_back(vecs[c]);
      norms_.push_back(Norm(vecs[c]));
    }
  }
}

StarmieUnionSearch::StarmieUnionSearch(const DataLakeCatalog* catalog,
                                       const ContextualColumnEncoder* encoder,
                                       Options options, DeferBuildTag)
    : catalog_(catalog),
      encoder_(encoder),
      options_(options),
      hnsw_(HnswIndex::Options{encoder->dim(), VectorMetric::kCosine,
                               options.hnsw_m, options.hnsw_ef_construction,
                               /*seed=*/1234}),
      flat_(encoder->dim(), VectorMetric::kCosine) {}

Status StarmieUnionSearch::SaveSnapshot(std::ostream* out) const {
  if (!options_.use_hnsw) {
    return Status::FailedPrecondition(
        "starmie snapshot requires the HNSW retrieval path");
  }
  BinaryWriter w(out);
  w.WriteVarint(refs_.size());
  for (const ColumnRef& ref : refs_) {
    w.WriteVarint(ref.table_id);
    w.WriteVarint(ref.column_index);
  }
  for (const Vector& vec : vectors_) w.WriteFloatVector(vec);
  if (!w.ok()) return Status::IoError("starmie snapshot write failed");
  return hnsw_.Save(out);
}

Result<std::unique_ptr<StarmieUnionSearch>> StarmieUnionSearch::FromSnapshot(
    const DataLakeCatalog* catalog, const ContextualColumnEncoder* encoder,
    const std::string& payload, Options options) {
  if (!options.use_hnsw) {
    return Status::FailedPrecondition(
        "starmie snapshot requires the HNSW retrieval path");
  }
  std::istringstream in(payload);
  BinaryReader r(&in);
  auto search = std::unique_ptr<StarmieUnionSearch>(new StarmieUnionSearch(
      catalog, encoder, options, DeferBuildTag{}));
  search->table_columns_.resize(catalog->num_tables());
  LAKE_ASSIGN_OR_RETURN(uint64_t num_refs, r.ReadVarint());
  search->refs_.reserve(num_refs);
  search->vectors_.reserve(num_refs);
  search->norms_.reserve(num_refs);
  for (uint64_t i = 0; i < num_refs; ++i) {
    LAKE_ASSIGN_OR_RETURN(uint64_t table_id, r.ReadVarint());
    LAKE_ASSIGN_OR_RETURN(uint64_t column, r.ReadVarint());
    if (table_id >= catalog->num_tables() ||
        column >= catalog->table(static_cast<TableId>(table_id)).num_columns()) {
      return Status::IoError("starmie snapshot references a column outside "
                             "this catalog (stale snapshot?)");
    }
    search->refs_.push_back(
        ColumnRef{static_cast<TableId>(table_id), static_cast<uint32_t>(column)});
    search->table_columns_[table_id].push_back(static_cast<uint32_t>(i));
  }
  for (uint64_t i = 0; i < num_refs; ++i) {
    LAKE_ASSIGN_OR_RETURN(Vector vec, r.ReadFloatVector());
    if (vec.size() != encoder->dim()) {
      return Status::IoError("starmie snapshot embedding dimension mismatch");
    }
    search->norms_.push_back(Norm(vec));
    search->vectors_.push_back(std::move(vec));
  }
  LAKE_RETURN_IF_ERROR(search->hnsw_.Load(&in));
  if (search->hnsw_.options().dim != encoder->dim()) {
    return Status::IoError("starmie snapshot graph dimension mismatch");
  }
  if (search->hnsw_.size() != search->refs_.size()) {
    return Status::IoError("starmie snapshot graph/mapping size mismatch");
  }
  return search;
}

namespace {
std::vector<double> Norms(const std::vector<Vector>& vecs) {
  std::vector<double> out;
  out.reserve(vecs.size());
  for (const Vector& v : vecs) out.push_back(Norm(v));
  return out;
}
}  // namespace

double StarmieUnionSearch::ScorePrepared(
    const std::vector<Vector>& query_vecs,
    const std::vector<double>& query_norms, TableId t) const {
  const std::vector<uint32_t>& cand = table_columns_[t];
  if (query_vecs.empty() || cand.empty()) return 0.0;
  std::vector<std::vector<double>> weights(
      query_vecs.size(), std::vector<double>(cand.size(), 0.0));
  for (size_t i = 0; i < query_vecs.size(); ++i) {
    for (size_t j = 0; j < cand.size(); ++j) {
      const double cos = CosineWithNorms(query_vecs[i], query_norms[i],
                                         vectors_[cand[j]], norms_[cand[j]]);
      weights[i][j] = cos >= options_.min_cosine ? cos : 0.0;
    }
  }
  const MatchingResult match = MaxWeightBipartiteMatching(weights);
  return match.total_weight / static_cast<double>(query_vecs.size());
}

double StarmieUnionSearch::ScoreTable(const Table& query,
                                      TableId candidate) const {
  const std::vector<Vector> query_vecs = encoder_->EncodeTable(query);
  return ScorePrepared(query_vecs, Norms(query_vecs), candidate);
}

Result<std::vector<TableResult>> StarmieUnionSearch::Search(
    const Table& query, size_t k, int64_t exclude,
    const CancelToken* cancel) const {
  const std::vector<Vector> query_vecs = encoder_->EncodeTable(query);
  if (query_vecs.empty()) return std::vector<TableResult>{};

  // Retrieval: nearest lake columns per query column seed the candidate
  // table set.
  std::unordered_set<TableId> tables;
  for (const Vector& qv : query_vecs) {
    if (cancel != nullptr) LAKE_RETURN_IF_ERROR(cancel->Check());
    Result<std::vector<VectorHit>> hits =
        options_.use_hnsw
            ? hnsw_.Search(qv, options_.neighbors_per_column,
                           options_.hnsw_ef_search)
            : flat_.Search(qv, options_.neighbors_per_column);
    LAKE_RETURN_IF_ERROR(hits.status());
    for (const VectorHit& h : hits.value()) {
      if (h.score < options_.min_cosine) continue;
      tables.insert(refs_[h.id].table_id);
    }
  }
  std::vector<TableId> ordered(tables.begin(), tables.end());
  std::sort(ordered.begin(), ordered.end());

  const std::vector<double> query_norms = Norms(query_vecs);
  TopK<TableId> heap(k);
  size_t verified = 0;
  for (TableId t : ordered) {
    if (cancel != nullptr && ShouldCheck(verified++, 8)) {
      LAKE_RETURN_IF_ERROR(cancel->Check());
    }
    if (exclude >= 0 && t == static_cast<TableId>(exclude)) continue;
    const double score = ScorePrepared(query_vecs, query_norms, t);
    if (score > 0) heap.Push(score, t);
  }
  std::vector<TableResult> out;
  for (auto& [score, t] : heap.Take()) {
    out.push_back(TableResult{
        t, score, StrFormat("starmie contextual score=%.3f", score)});
  }
  return out;
}

}  // namespace lake
