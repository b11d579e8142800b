#include "nav/linkage_graph.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "sketch/set_ops.h"
#include "text/normalizer.h"
#include "text/qgram.h"

namespace lake {

void LinkageGraph::AddLink(const ColumnRef& a, const ColumnRef& b,
                           LinkType type, double weight) {
  const uint32_t idx = static_cast<uint32_t>(links_.size());
  links_.push_back(Link{a, b, type, weight});
  by_column_[a].push_back(idx);
  by_column_[b].push_back(idx);
}

LinkageGraph::LinkageGraph(const DataLakeCatalog* catalog, Options options)
    : catalog_(catalog), options_(options) {
  // Gather eligible columns with normalized sets.
  std::vector<ColumnRef> refs;
  std::vector<HashedSet> sets;
  std::vector<double> uniqueness;
  std::vector<std::string> names;
  catalog_->ForEachColumn([&](const ColumnRef& ref, const Column& col) {
    std::vector<std::string> values;
    for (const std::string& v : col.DistinctStrings()) {
      const std::string norm = NormalizeValue(v);
      if (!norm.empty()) values.push_back(norm);
    }
    if (values.size() < options_.min_distinct) return;
    refs.push_back(ref);
    sets.push_back(HashedSet::FromValues(values));
    uniqueness.push_back(catalog_->stats(ref).Uniqueness());
    names.push_back(NormalizeAttributeName(col.name()));
  });

  // Content + PK-FK edges via an inverted index on value hashes.
  std::unordered_map<uint64_t, std::vector<size_t>> by_value;
  for (size_t i = 0; i < sets.size(); ++i) {
    for (uint64_t h : sets[i].hashes()) by_value[h].push_back(i);
  }
  std::unordered_map<size_t, size_t> overlap;
  for (size_t i = 0; i < sets.size(); ++i) {
    overlap.clear();
    for (uint64_t h : sets[i].hashes()) {
      for (size_t j : by_value[h]) {
        if (j > i) ++overlap[j];
      }
    }
    for (const auto& [j, inter] : overlap) {
      if (refs[i].table_id == refs[j].table_id) continue;  // intra-table: skip
      const size_t uni = sets[i].size() + sets[j].size() - inter;
      const double jac = uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
      if (jac >= options_.content_jaccard_threshold) {
        AddLink(refs[i], refs[j], LinkType::kContentSimilarity, jac);
      }
      // PK-FK: the key side must be near-unique and contain the FK side.
      const double cont_i_in_j = static_cast<double>(inter) / sets[i].size();
      const double cont_j_in_i = static_cast<double>(inter) / sets[j].size();
      if (uniqueness[i] >= options_.pk_uniqueness_threshold &&
          cont_j_in_i >= options_.fk_containment_threshold) {
        AddLink(refs[i], refs[j], LinkType::kPkFkCandidate, cont_j_in_i);
      } else if (uniqueness[j] >= options_.pk_uniqueness_threshold &&
                 cont_i_in_j >= options_.fk_containment_threshold) {
        AddLink(refs[j], refs[i], LinkType::kPkFkCandidate, cont_i_in_j);
      }
    }
  }

  // Schema edges: attribute-name q-gram similarity, grouped by first
  // letter to avoid the full quadratic scan on large lakes.
  std::unordered_map<char, std::vector<size_t>> by_initial;
  for (size_t i = 0; i < names.size(); ++i) {
    if (!names[i].empty()) by_initial[names[i][0]].push_back(i);
  }
  for (const auto& [initial, group] : by_initial) {
    for (size_t a = 0; a < group.size(); ++a) {
      for (size_t b = a + 1; b < group.size(); ++b) {
        const size_t i = group[a];
        const size_t j = group[b];
        if (refs[i].table_id == refs[j].table_id) continue;
        const double sim = QGramJaccard(names[i], names[j], 3);
        if (sim >= options_.schema_similarity_threshold) {
          AddLink(refs[i], refs[j], LinkType::kSchemaSimilarity, sim);
        }
      }
    }
  }
}

std::vector<Link> LinkageGraph::Neighbors(const ColumnRef& ref) const {
  std::vector<Link> out;
  auto it = by_column_.find(ref);
  if (it == by_column_.end()) return out;
  out.reserve(it->second.size());
  for (uint32_t idx : it->second) out.push_back(links_[idx]);
  return out;
}

std::vector<Link> LinkageGraph::Neighbors(const ColumnRef& ref,
                                          LinkType type) const {
  std::vector<Link> out;
  for (const Link& l : Neighbors(ref)) {
    if (l.type == type) out.push_back(l);
  }
  return out;
}

std::vector<std::pair<TableId, int>> LinkageGraph::RelatedTables(
    TableId table, int hops) const {
  std::unordered_map<TableId, int> dist;
  std::queue<std::pair<TableId, int>> frontier;
  dist[table] = 0;
  frontier.push({table, 0});
  while (!frontier.empty()) {
    const auto [t, d] = frontier.front();
    frontier.pop();
    if (d >= hops) continue;
    const Table& tb = catalog_->table(t);
    for (uint32_t c = 0; c < tb.num_columns(); ++c) {
      for (const Link& l : Neighbors(ColumnRef{t, c})) {
        const TableId other =
            l.from.table_id == t ? l.to.table_id : l.from.table_id;
        if (dist.count(other)) continue;
        dist[other] = d + 1;
        frontier.push({other, d + 1});
      }
    }
  }
  std::vector<std::pair<TableId, int>> out;
  for (const auto& [t, d] : dist) {
    if (t != table) out.push_back({t, d});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second < b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace lake
