#include "core/check_subhierarchy.h"

#include <utility>

#include "constraint/normalize.h"
#include "core/circle.h"

namespace olapdc {

CheckOutcome CheckSubhierarchy(
    const std::vector<DimensionConstraint>& relevant, const Subhierarchy& g,
    const CheckOptions& options) {
  CheckOutcome outcome;

  // Proposition 2, condition (a). Both tests, like the circle operator
  // below, read reachability off g's exact In* sets; CHECK builds no
  // table of its own.
  if (g.HasCycleIn() || g.HasShortcut()) {
    outcome.structurally_rejected = true;
    return outcome;
  }

  // Sigma(ds, c) ∘ g, simplified. A literal False means no assignment
  // can help; vacuous (root outside g) constraints simplify to True and
  // are dropped.
  std::vector<ExprPtr> circled;
  circled.reserve(relevant.size());
  for (const DimensionConstraint& c : relevant) {
    ExprPtr e = Simplify(ApplyCircleToConstraint(c, g));
    if (IsTrueLiteral(e)) continue;
    if (IsFalseLiteral(e)) return outcome;  // no frozen dimension
    circled.push_back(std::move(e));
  }

  AssignmentSearchResult search =
      FindAssignments(g, circled, options.assignment);
  outcome.assignments_tried = search.tried;
  if (search.assignments.empty()) return outcome;
  // One edge list per successful CHECK; every assignment's model gets
  // an exact-size copy, the last one takes the original.
  std::vector<std::pair<CategoryId, CategoryId>> edges = g.Edges();
  outcome.frozen.reserve(search.assignments.size());
  for (size_t i = 0; i < search.assignments.size(); ++i) {
    const bool last = i + 1 == search.assignments.size();
    outcome.frozen.push_back(
        FrozenDimension{g.root(), last ? std::move(edges) : edges,
                        std::move(search.assignments[i])});
  }
  return outcome;
}

}  // namespace olapdc
