#ifndef LAKE_NAV_LINKAGE_GRAPH_H_
#define LAKE_NAV_LINKAGE_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/catalog.h"

namespace lake {

/// Edge flavors of the enterprise knowledge graph, following Aurum
/// (Fernandez et al., ICDE 2018).
enum class LinkType {
  kContentSimilarity,  // value sets overlap (Jaccard above threshold)
  kSchemaSimilarity,   // attribute names similar
  kPkFkCandidate,      // inclusion dependency with key-like left side
};

/// One edge of the linkage graph.
struct Link {
  ColumnRef from;
  ColumnRef to;
  LinkType type = LinkType::kContentSimilarity;
  double weight = 0;
};

/// Aurum-style linkage graph over a catalog: columns are nodes; content,
/// schema, and PK-FK relationships are edges. Discovery-by-navigation
/// walks this graph ("find tables related to the one I'm looking at"),
/// complementing query-driven search (§2.6). Construction uses a value-
/// hash inverted index, not all-pairs comparison, so it scales with total
/// postings rather than columns².
class LinkageGraph {
 public:
  struct Options {
    double content_jaccard_threshold = 0.5;
    double schema_similarity_threshold = 0.7;  // q-gram jaccard of names
    /// PK side must have uniqueness >= this and containment of FK side
    /// >= fk_containment_threshold.
    double pk_uniqueness_threshold = 0.95;
    double fk_containment_threshold = 0.9;
    size_t min_distinct = 2;
  };

  explicit LinkageGraph(const DataLakeCatalog* catalog)
      : LinkageGraph(catalog, Options{}) {}
  LinkageGraph(const DataLakeCatalog* catalog, Options options);

  /// Edges incident to a column (both directions), any type.
  std::vector<Link> Neighbors(const ColumnRef& ref) const;

  /// Edges of one type incident to a column.
  std::vector<Link> Neighbors(const ColumnRef& ref, LinkType type) const;

  /// Tables reachable from `table` within `hops` edges (excluding itself),
  /// with the minimum hop distance — the "related tables" navigation
  /// primitive.
  std::vector<std::pair<TableId, int>> RelatedTables(TableId table,
                                                     int hops) const;

  const std::vector<Link>& links() const { return links_; }
  size_t num_links() const { return links_.size(); }

 private:
  void AddLink(const ColumnRef& a, const ColumnRef& b, LinkType type,
               double weight);

  const DataLakeCatalog* catalog_;
  Options options_;
  std::vector<Link> links_;
  std::unordered_map<ColumnRef, std::vector<uint32_t>, ColumnRefHash>
      by_column_;
};

}  // namespace lake

#endif  // LAKE_NAV_LINKAGE_GRAPH_H_
