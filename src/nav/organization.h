#ifndef LAKE_NAV_ORGANIZATION_H_
#define LAKE_NAV_ORGANIZATION_H_

#include <string>
#include <vector>

#include "embed/table_encoder.h"
#include "table/catalog.h"

namespace lake {

/// Data-lake organization for navigation (Nargesian et al., SIGMOD 2020 /
/// TKDE 2023): a hierarchy over the lake's tables such that a user can
/// *navigate* — repeatedly choose the child whose topic best matches their
/// intent — instead of formulating a query. Built by agglomerative
/// (average-linkage) clustering of table embeddings, then flattened to a
/// bounded branching factor so every internal decision is small.
///
/// The navigation model of the papers is reproduced for evaluation: the
/// expected number of inspected nodes for a user with a topic vector who
/// always descends into the most similar child (E15 compares this against
/// scanning a flat list).
class LakeOrganization {
 public:
  struct Options {
    /// Maximum children per internal node after flattening.
    size_t branching = 4;
  };

  struct Node {
    Vector centroid;                 // topic vector (unit norm)
    std::vector<int> children;       // node indices; empty at leaves
    int64_t table = -1;              // valid at leaves
  };

  /// Builds the organization over all catalog tables.
  LakeOrganization(const DataLakeCatalog* catalog, const TableEncoder* encoder)
      : LakeOrganization(catalog, encoder, Options{}) {}
  LakeOrganization(const DataLakeCatalog* catalog, const TableEncoder* encoder,
                   Options options);

  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return root_; }
  size_t num_leaves() const { return num_leaves_; }

  /// Greedy navigation with a topic vector: from the root, descend into
  /// the child with the most similar centroid until a leaf. Returns the
  /// node-index path (root..leaf).
  std::vector<int> Navigate(const Vector& topic) const;

  /// Number of nodes a navigating user inspects before reaching the given
  /// table: sum of sibling counts considered along the greedy path, or -1
  /// when greedy navigation lands elsewhere.
  int NavigationCost(const Vector& topic, TableId target) const;

  /// Renders the tree (names at leaves) for examples/debugging.
  std::string ToString(size_t max_depth = 3) const;

 private:
  const DataLakeCatalog* catalog_;
  Options options_;
  std::vector<Node> nodes_;
  int root_ = -1;
  size_t num_leaves_ = 0;
};

}  // namespace lake

#endif  // LAKE_NAV_ORGANIZATION_H_
