// The circle operator Sigma ∘ g (paper Definition 8): partially
// evaluates a dimension constraint against a fixed subhierarchy g,
// replacing
//   - every path atom by its truth value in g,
//   - every composed/through shorthand by its truth value in g (it is a
//     finite disjunction of path atoms, so its circled value is decided
//     by g alone),
//   - every equality atom c_i.c_j ~ k whose source has no path to c_j
//     in g by False,
// leaving only equality atoms over categories of g. A constraint whose
// *root* is not in g is vacuous for any frozen dimension induced by g
// and is replaced by True outright (DESIGN.md deviation 1).

#ifndef OLAPDC_CORE_CIRCLE_H_
#define OLAPDC_CORE_CIRCLE_H_

#include "constraint/expr.h"
#include "core/subhierarchy.h"

namespace olapdc {

/// Circles a bare expression. Reachability inside g is read from g's
/// In* sets (Subhierarchy::Reaches), which the search keeps exact.
ExprPtr ApplyCircleToExpr(const ExprPtr& e, const Subhierarchy& g);

/// Circles a constraint: True when the root is outside g, otherwise
/// ApplyCircleToExpr of its expression. The result is NOT simplified,
/// matching the figure-5 presentation; pass it through Simplify() for
/// decision procedures.
ExprPtr ApplyCircleToConstraint(const DimensionConstraint& c,
                                const Subhierarchy& g);

}  // namespace olapdc

#endif  // OLAPDC_CORE_CIRCLE_H_
