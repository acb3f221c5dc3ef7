#include "core/circle.h"

#include <utility>

#include "constraint/normalize.h"

namespace olapdc {

ExprPtr ApplyCircleToExpr(const ExprPtr& e, const Subhierarchy& g) {
  OLAPDC_CHECK(e != nullptr);
  switch (e->kind) {
    case ExprKind::kTrue:
    case ExprKind::kFalse:
      return e;
    case ExprKind::kPathAtom:
      return MakeBool(g.IsPath(e->path));
    case ExprKind::kEqualityAtom:
    case ExprKind::kOrderAtom:
      // Definition 8(b): an equality (or order) atom whose root cannot
      // reach the target inside g is false (the frozen dimension has no
      // such ancestor). Otherwise the atom survives, to be decided by
      // the c-assignment.
      if (!g.Reaches(e->root, e->target)) return MakeFalse();
      return e;
    case ExprKind::kComposedAtom:
    case ExprKind::kThroughAtom:
      // On the acyclic g that CHECK admits, reachability in g gives each
      // shorthand the value of the simple-path disjunction it abbreviates.
      return MakeBool(ShorthandHolds(
          *e, [&g](CategoryId u, CategoryId v) { return g.Reaches(u, v); }));
    default:
      break;
  }
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  bool changed = false;
  for (const ExprPtr& child : e->children) {
    ExprPtr circled = ApplyCircleToExpr(child, g);
    changed |= (circled != child);
    children.push_back(std::move(circled));
  }
  if (!changed) return e;
  auto copy = std::make_shared<Expr>(*e);
  copy->children = std::move(children);
  return copy;
}

ExprPtr ApplyCircleToConstraint(const DimensionConstraint& c,
                                const Subhierarchy& g) {
  if (!g.Contains(c.root)) return MakeTrue();
  return ApplyCircleToExpr(c.expr, g);
}

}  // namespace olapdc
