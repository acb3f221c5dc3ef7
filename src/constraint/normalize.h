// Normalization of dimension constraints:
//  - ExpandShorthands resolves composed atoms `c.ci` and through atoms
//    `c.ci.cj` into disjunctions of plain path atoms against a concrete
//    hierarchy schema (Sections 3.1 and 3.3). NaiveSat, the brute-force
//    reference, evaluates that expansion, and the service keys its
//    verdict cache on it. DIMSAT does not expand: its circle operator
//    reads both shorthands off the subhierarchy's reachability.
//  - FoldShorthands replaces the shorthand atoms whose value no
//    subhierarchy of the schema can change by that value, reading only
//    the schema's reachability (DIMSAT's constraint preparation).
//  - Simplify performs truth-constant folding (needed both to decide
//    circled constraint sets quickly and to keep figure output tidy).

#ifndef OLAPDC_CONSTRAINT_NORMALIZE_H_
#define OLAPDC_CONSTRAINT_NORMALIZE_H_

#include <cstddef>

#include "common/result.h"
#include "constraint/expr.h"
#include "dim/hierarchy_schema.h"

namespace olapdc {

/// Replaces every composed atom and through atom in `e` by its
/// definition over `schema`:
///   c.ci       -> True if c == ci, else OR of all simple paths c..ci
///                 (False if none exist);
///   c.ci.cj    -> the five-case expansion of Section 3.3.
/// `path_limit` bounds the number of simple paths enumerated over all
/// of `e`'s shorthand atoms together; exceeding it yields
/// ResourceExhausted.
Result<ExprPtr> ExpandShorthands(const HierarchySchema& schema,
                                 const ExprPtr& e, size_t path_limit = 1 << 20);

/// The value of a composed atom c.ci (read as c.c.ci) or a through atom
/// c.ci.cj under `reaches(u, v)`, "some path leads from u to v, the
/// empty one when u = v": c.c and c.c.c hold, c.ci.c (ci != c) never
/// does, and any other atom holds iff c reaches ci and ci reaches cj.
/// Over an acyclic graph that is the value of the disjunction of simple
/// paths the shorthand abbreviates (Sections 3.1 and 3.3).
template <typename ReachesFn>
bool ShorthandHolds(const Expr& atom, const ReachesFn& reaches) {
  const CategoryId c = atom.root, cj = atom.target;
  const CategoryId ci = atom.kind == ExprKind::kThroughAtom ? atom.via : c;
  if (c == cj) return c == ci;
  return reaches(c, ci) && reaches(ci, cj);
}

/// Replaces every composed and through atom of `e` whose truth value is
/// the same in every subhierarchy of `schema` by that value:
///   c.c and c.c.c   -> True;
///   c.ci.c (ci != c) -> False;
///   an atom with no schema path from c to ci or from ci to cj (c.ci
///   read as c.c.ci) -> False.
/// Every other shorthand atom is kept as written. Never fails: it reads
/// the schema's up-sets, not its path lists.
ExprPtr FoldShorthands(const HierarchySchema& schema, const ExprPtr& e);

/// Folds truth constants through connectives:
///   !true -> false;  AND/OR absorb/short-circuit;  a -> true  ==  true;
///   one(true, x, y) -> !x & !y;  one() -> false;  etc.
/// Does not reorder or otherwise rewrite non-constant operands, so the
/// result is stable for printing.
ExprPtr Simplify(const ExprPtr& e);

/// True iff e is the literal True (after no further simplification).
inline bool IsTrueLiteral(const ExprPtr& e) {
  return e->kind == ExprKind::kTrue;
}
/// True iff e is the literal False.
inline bool IsFalseLiteral(const ExprPtr& e) {
  return e->kind == ExprKind::kFalse;
}

}  // namespace olapdc

#endif  // OLAPDC_CONSTRAINT_NORMALIZE_H_
