// Frozen dimensions (paper Definition 5): minimal homogeneous
// dimension instances conveyed by a dimension schema — one member per
// category of a shortcut/cycle-free subhierarchy, with Name values
// drawn from Const_ds plus the reserved symbol nk. Frozen dimensions
// are the minimal models of category satisfiability (Theorem 3) and
// the objects enumerated for Figure 4.
//
// A stored model holds only what a model is: its root, its edge list
// and its c-assignment. The search's Subhierarchy (n-vectors of Out,
// In and Below bitsets) stays behind in the search, so an enumeration
// that lists thousands of models pays per model for a few dozen edges
// and one name per category.

#ifndef OLAPDC_CORE_FROZEN_H_
#define OLAPDC_CORE_FROZEN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/assignment.h"
#include "core/schema.h"
#include "dim/dimension_instance.h"
#include "graph/digraph.h"

namespace olapdc {

/// A frozen dimension of a schema with a given root: the edges of the
/// induced subhierarchy plus the satisfying c-assignment. names[c] ==
/// nullopt encodes nk ("any constant not mentioned for c in Sigma").
struct FrozenDimension {
  /// The query category the model is rooted at. Its only category when
  /// the model has no edge (root == All).
  CategoryId root = 0;
  /// (child, parent) edges in ascending order — the order
  /// Subhierarchy::Edges() yields, so a model composed from components
  /// prints exactly as the monolithic search's copy of it.
  std::vector<std::pair<CategoryId, CategoryId>> edges;
  CAssignment names;

  /// True iff child -> parent is an edge of the model.
  bool HasEdge(CategoryId child, CategoryId parent) const;
  /// True iff c is a category of the model: the root or an edge end.
  bool Contains(CategoryId c) const;
  /// The model's categories in ascending id order.
  std::vector<CategoryId> Categories() const;
  /// The edges as a Digraph over category ids [0, num_categories).
  Digraph ToDigraph(int num_categories) const;

  /// One-line description, e.g.
  ///   "{Store->City, City->Province, ...} with Country=Canada".
  std::string ToString(const HierarchySchema& schema) const;

  /// Graphviz rendering: category nodes annotated with assigned names.
  std::string ToDot(const HierarchySchema& schema,
                    const std::string& graph_name = "frozen") const;

  /// Materializes the frozen dimension as a real DimensionInstance:
  /// member phi(c) per category keyed by the category's name, with the
  /// Name attribute set to the assigned constant, or to
  /// `nk_prefix + category name` for nk (guaranteed outside Const_ds
  /// because Sigma constants never start with the prefix... callers
  /// should keep the default "~"). The result satisfies C1-C7 and, by
  /// Proposition 2, every constraint of `ds` — both are re-checked by
  /// the validation inside DimensionInstanceBuilder and by tests.
  Result<DimensionInstance> ToInstance(const DimensionSchema& ds,
                                       const std::string& nk_prefix = "~") const;
};

/// Canonical ordering/equality helpers so frozen-dimension sets can be
/// compared in tests.
bool FrozenEquals(const FrozenDimension& a, const FrozenDimension& b);

/// Merges the per-component model `from` into the composite model
/// `into` (same root and category universe): the sorted edge lists
/// merge, and every assigned name of `from` is copied over. Components
/// of a decomposed DIMSAT run share no edge and assign disjoint
/// category sets (apart from root/All, where the assignments agree),
/// which the debug build checks.
void MergeDisjointInto(const FrozenDimension& from, FrozenDimension* into);

/// The bytes one stored model occupies: the struct, its edge and name
/// vectors, and any assigned name too long for the string's inline
/// buffer. The unit DIMSAT and NaiveSat charge per collected model
/// against a memory budget.
uint64_t FrozenDimensionBytes(const FrozenDimension& f);
/// The sum of FrozenDimensionBytes over `models`.
uint64_t FrozenDimensionBytes(const std::vector<FrozenDimension>& models);

}  // namespace olapdc

#endif  // OLAPDC_CORE_FROZEN_H_
