#include "core/circle.h"

#include <utility>

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
      // c.ci is a finite disjunction of path atoms; under ∘g it is true
      // iff some simple path c -> ci lies inside g, i.e. iff ci is
      // reachable from c in g (g is checked shortcut/cycle-free before
      // its candidate frozen dimensions are consulted).
      if (e->root == e->target) return MakeTrue();
      return MakeBool(g.Reaches(e->root, e->target));
    case ExprKind::kThroughAtom: {
      const CategoryId c = e->root, ci = e->via, cj = e->target;
      if (c == ci && ci == cj) return MakeTrue();
      if (c == cj && c != ci) return MakeFalse();
      if (!g.Contains(c)) return MakeFalse();
      if (c == ci) return MakeBool(g.Reaches(c, cj));
      if (ci == cj) return MakeBool(g.Reaches(c, ci));
      return MakeBool(g.Reaches(c, ci) && g.Reaches(ci, cj));
    }
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
