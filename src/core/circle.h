// The circle operator Sigma ∘ g (paper Definition 8): partially
// evaluates a dimension constraint against a fixed subhierarchy g,
// replacing
//   - every path atom by its truth value in g,
//   - every composed atom c.ci and through atom c.ci.cj by its truth
//     value in g: each abbreviates a disjunction of simple paths, and on
//     the acyclic g that CHECK admits that value is reachability in g
//     (c reaches ci, and ci reaches cj). It is DIMSAT's only evaluation
//     of the shorthands; nothing expands them into path lists first,
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
