#include "search/union_tus.h"

#include <algorithm>
#include <unordered_set>

#include "index/vector_ops.h"
#include "search/bipartite_matching.h"
#include "sketch/set_ops.h"
#include "text/normalizer.h"
#include "util/gallop.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/top_k.h"

namespace lake {

namespace {
std::vector<std::string> SampledValues(const Column& col, size_t cap) {
  std::vector<std::string> out;
  for (const std::string& v : col.DistinctStrings()) {
    if (out.size() >= cap) break;
    const std::string norm = NormalizeValue(v);
    if (!norm.empty()) out.push_back(norm);
  }
  return out;
}
}  // namespace

TusUnionSearch::TusUnionSearch(const DataLakeCatalog* catalog,
                               const ColumnEncoder* encoder,
                               const KnowledgeBase* kb, Options options)
    : catalog_(catalog),
      encoder_(encoder),
      kb_(kb),
      options_(options),
      lsh_([&] {
        HyperplaneLsh::Options o = options.lsh;
        o.dim = encoder->dim();
        return o;
      }()) {
  table_columns_.resize(catalog_->num_tables());
  std::vector<std::vector<uint64_t>> column_hashes;  // by column index
  catalog_->ForEachColumn([&](const ColumnRef& ref, const Column& col) {
    ColumnInfo info;
    info.ref = ref;
    const std::vector<std::string> values =
        SampledValues(col, options_.max_values);
    if (options_.use_set_measure) {
      column_hashes.push_back(HashedSet::FromValues(values).hashes());
      info.set_size = column_hashes.back().size();
    }
    info.embedding = encoder_->Encode(col);
    info.norm = Norm(info.embedding);
    if (kb_ != nullptr && options_.use_semantic_measure && !values.empty()) {
      auto vote = kb_->ColumnType(values);
      if (vote.ok()) {
        info.kb_type = vote.value().type;
        info.kb_coverage = vote.value().coverage;
      }
    }
    const uint32_t idx = static_cast<uint32_t>(columns_.size());
    table_columns_[ref.table_id].push_back(idx);
    if (!options_.exhaustive) {
      LAKE_CHECK(lsh_.Insert(idx, info.embedding).ok());
    }
    columns_.push_back(std::move(info));
  });
  if (options_.use_set_measure) BuildValueIndex(std::move(column_hashes));
}

void TusUnionSearch::BuildValueIndex(
    std::vector<std::vector<uint64_t>> column_hashes) {
  size_t total = 0;
  for (const std::vector<uint64_t>& hashes : column_hashes) {
    total += hashes.size();
  }
  keys_.reserve(total);
  for (const std::vector<uint64_t>& hashes : column_hashes) {
    keys_.insert(keys_.end(), hashes.begin(), hashes.end());
  }
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
  keys_.shrink_to_fit();

  // Counting sort of the (key, column) postings: replace each hash by its
  // key index while counting list lengths, then place columns in
  // ascending order.
  offsets_.assign(keys_.size() + 1, 0);
  for (std::vector<uint64_t>& hashes : column_hashes) {
    for (uint64_t& h : hashes) {
      h = static_cast<uint64_t>(
          std::lower_bound(keys_.begin(), keys_.end(), h) - keys_.begin());
      ++offsets_[h + 1];
    }
  }
  for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
  std::vector<uint32_t> next(offsets_.begin(), offsets_.end() - 1);
  postings_.resize(total);
  for (uint32_t col = 0; col < column_hashes.size(); ++col) {
    for (uint64_t key : column_hashes[col]) postings_[next[key]++] = col;
  }
}

std::vector<TusUnionSearch::QueryColumn> TusUnionSearch::PrepareQuery(
    const Table& query) const {
  std::vector<QueryColumn> out;
  out.reserve(query.num_columns());
  for (size_t c = 0; c < query.num_columns(); ++c) {
    QueryColumn q;
    const std::vector<std::string> values =
        SampledValues(query.column(c), options_.max_values);
    if (options_.use_set_measure) {
      // ScanCount: each distinct query hash bumps the overlap of every lake
      // column in its posting list. The hashes are ascending, so the key
      // lookup gallops forward from the previous hit.
      const HashedSet set = HashedSet::FromValues(values);
      q.set_size = set.size();
      q.overlap.assign(columns_.size(), 0);
      auto key = keys_.begin();
      for (uint64_t h : set.hashes()) {
        key = Gallop(key, keys_.end(), h);
        if (key == keys_.end()) break;
        if (*key != h) continue;
        const size_t i = static_cast<size_t>(key - keys_.begin());
        for (uint32_t p = offsets_[i]; p < offsets_[i + 1]; ++p) {
          ++q.overlap[postings_[p]];
        }
      }
    }
    q.embedding = encoder_->Encode(query.column(c));
    q.norm = Norm(q.embedding);
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

double TusUnionSearch::AttributeScore(const QueryColumn& q,
                                      uint32_t col) const {
  const ColumnInfo& c = columns_[col];
  double score = 0;
  if (options_.use_set_measure) {
    // Jaccard |A∩B| / |A∪B|; 1.0 when both sets are empty.
    double jaccard = 1.0;
    if (q.set_size != 0 || c.set_size != 0) {
      const size_t inter = q.overlap[col];
      const size_t uni = q.set_size + c.set_size - inter;
      jaccard = uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
    }
    score = std::max(score, jaccard);
  }
  if (options_.use_semantic_measure && !q.kb_type.empty() &&
      q.kb_type == c.kb_type) {
    score = std::max(score, std::min(q.kb_coverage, c.kb_coverage));
  }
  if (options_.use_nl_measure) {
    // Cosine in [-1,1] mapped to [0,1]; squashing keeps weak similarity
    // from dominating strong set evidence.
    const double cos =
        CosineWithNorms(q.embedding, q.norm, c.embedding, c.norm);
    score = std::max(score, std::max(0.0, cos) * std::max(0.0, cos));
  }
  return score < options_.min_attribute_score ? 0.0 : score;
}

double TusUnionSearch::ScorePrepared(const std::vector<QueryColumn>& q,
                                     TableId t) const {
  const std::vector<uint32_t>& cand_cols = table_columns_[t];
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

double TusUnionSearch::ScoreTable(const Table& query, TableId candidate) const {
  return ScorePrepared(PrepareQuery(query), candidate);
}

Result<std::vector<TableResult>> TusUnionSearch::Search(
    const Table& query, size_t k, int64_t exclude,
    const CancelToken* cancel) const {
  if (cancel != nullptr) LAKE_RETURN_IF_ERROR(cancel->Check());
  const std::vector<QueryColumn> q = PrepareQuery(query);
  if (q.empty()) return std::vector<TableResult>{};

  std::vector<TableId> candidates;
  if (options_.exhaustive) {
    candidates = catalog_->AllTables();
  } else {
    std::unordered_set<TableId> tables;
    for (const QueryColumn& qc : q) {
      LAKE_ASSIGN_OR_RETURN(std::vector<uint64_t> hits,
                            lsh_.Query(qc.embedding));
      for (uint64_t col_idx : hits) {
        tables.insert(columns_[col_idx].ref.table_id);
      }
    }
    candidates.assign(tables.begin(), tables.end());
    std::sort(candidates.begin(), candidates.end());
  }

  TopK<TableId> heap(k);
  size_t verified = 0;
  for (TableId t : candidates) {
    if (cancel != nullptr && ShouldCheck(verified++, 8)) {
      LAKE_RETURN_IF_ERROR(cancel->Check());
    }
    if (exclude >= 0 && t == static_cast<TableId>(exclude)) continue;
    const double score = ScorePrepared(q, t);
    if (score > 0) heap.Push(score, t);
  }
  std::vector<TableResult> out;
  for (auto& [score, t] : heap.Take()) {
    out.push_back(TableResult{t, score,
                              StrFormat("tus unionability=%.3f", score)});
  }
  return out;
}

}  // namespace lake
