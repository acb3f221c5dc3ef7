#include "constraint/normalize.h"

#include <utility>
#include <vector>

#include "graph/algorithms.h"

namespace olapdc {

namespace {

/// OR of path atoms for every simple path from `from` to `to`;
/// optionally only paths containing `via`. False when no path matches.
/// Every path enumerated is charged to `*remaining`.
Result<ExprPtr> PathDisjunction(const HierarchySchema& schema,
                                CategoryId from, CategoryId to,
                                CategoryId via, size_t* remaining) {
  std::vector<ExprPtr> disjuncts;
  size_t enumerated = 0;
  Status st = ForEachSimplePath(
      schema.graph(), from, to, *remaining,
      [&](const std::vector<int>& path) {
        ++enumerated;
        if (path.size() < 2) return;  // trivial path (from == to)
        if (via != kNoCategory) {
          bool contains = false;
          for (int c : path) contains |= (c == via);
          if (!contains) return;
        }
        disjuncts.push_back(MakePathAtom(path));
      });
  OLAPDC_RETURN_NOT_OK(st);
  *remaining -= enumerated;
  if (disjuncts.empty()) return MakeFalse();
  if (disjuncts.size() == 1) return disjuncts[0];
  return MakeOr(std::move(disjuncts));
}

Result<ExprPtr> Expand(const HierarchySchema& schema, const ExprPtr& e,
                       size_t* remaining) {
  OLAPDC_CHECK(e != nullptr);
  if (e->kind == ExprKind::kComposedAtom) {
    // c.ci: True when c == ci, else all simple paths c .. ci.
    if (e->root == e->target) return MakeTrue();
    return PathDisjunction(schema, e->root, e->target, kNoCategory,
                           remaining);
  }
  if (e->kind == ExprKind::kThroughAtom) {
    const CategoryId c = e->root, ci = e->via, cj = e->target;
    // The five cases of Section 3.3.
    if (c == ci && ci == cj) return MakeTrue();
    if (c == cj && c != ci) return MakeFalse();
    if (c == ci && c != cj) {
      return PathDisjunction(schema, c, cj, kNoCategory, remaining);
    }
    if (ci == cj && c != ci) {
      return PathDisjunction(schema, c, ci, kNoCategory, remaining);
    }
    // All three distinct: paths from c to cj containing ci.
    return PathDisjunction(schema, c, cj, ci, remaining);
  }
  if (e->children.empty()) return e;
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  bool changed = false;
  for (const ExprPtr& child : e->children) {
    OLAPDC_ASSIGN_OR_RETURN(ExprPtr expanded, Expand(schema, child, remaining));
    changed |= (expanded != child);
    children.push_back(std::move(expanded));
  }
  if (!changed) return e;
  auto copy = std::make_shared<Expr>(*e);
  copy->children = std::move(children);
  return ExprPtr(std::move(copy));
}

}  // namespace

Result<ExprPtr> ExpandShorthands(const HierarchySchema& schema,
                                 const ExprPtr& e, size_t path_limit) {
  return Expand(schema, e, &path_limit);
}

ExprPtr FoldShorthands(const HierarchySchema& schema, const ExprPtr& e) {
  OLAPDC_CHECK(e != nullptr);
  if (e->kind == ExprKind::kComposedAtom ||
      e->kind == ExprKind::kThroughAtom) {
    // The schema's reachability bounds every subhierarchy's, so an atom
    // false under it is false in all of them; c.c, c.c.c and c.ci.c
    // do not read it.
    const bool holds = ShorthandHolds(*e, [&](CategoryId u, CategoryId v) {
      return schema.Reaches(u, v);
    });
    if (!holds || e->root == e->target) return MakeBool(holds);
    return e;
  }
  if (e->children.empty()) return e;
  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  bool changed = false;
  for (const ExprPtr& child : e->children) {
    ExprPtr folded = FoldShorthands(schema, child);
    changed |= (folded != child);
    children.push_back(std::move(folded));
  }
  if (!changed) return e;
  auto copy = std::make_shared<Expr>(*e);
  copy->children = std::move(children);
  return ExprPtr(std::move(copy));
}

namespace {

ExprPtr SimplifyNary(ExprKind kind, std::vector<ExprPtr> children) {
  // AND: drop Trues, short-circuit on False. OR dually.
  const bool is_and = (kind == ExprKind::kAnd);
  std::vector<ExprPtr> kept;
  for (ExprPtr& c : children) {
    if (c->kind == (is_and ? ExprKind::kTrue : ExprKind::kFalse)) continue;
    if (c->kind == (is_and ? ExprKind::kFalse : ExprKind::kTrue)) {
      return is_and ? MakeFalse() : MakeTrue();
    }
    kept.push_back(std::move(c));
  }
  if (kept.empty()) return is_and ? MakeTrue() : MakeFalse();
  if (kept.size() == 1) return kept[0];
  return is_and ? MakeAnd(std::move(kept)) : MakeOr(std::move(kept));
}

ExprPtr SimplifyExactlyOne(std::vector<ExprPtr> children) {
  int known_true = 0;
  std::vector<ExprPtr> unknown;
  for (ExprPtr& c : children) {
    if (c->kind == ExprKind::kTrue) {
      ++known_true;
    } else if (c->kind != ExprKind::kFalse) {
      unknown.push_back(std::move(c));
    }
  }
  if (known_true >= 2) return MakeFalse();
  if (known_true == 1) {
    // Exactly one already true: all remaining operands must be false.
    std::vector<ExprPtr> negs;
    negs.reserve(unknown.size());
    for (ExprPtr& u : unknown) negs.push_back(MakeNot(std::move(u)));
    return SimplifyNary(ExprKind::kAnd, std::move(negs));
  }
  if (unknown.empty()) return MakeFalse();
  if (unknown.size() == 1) return unknown[0];
  return MakeExactlyOne(std::move(unknown));
}

}  // namespace

ExprPtr Simplify(const ExprPtr& e) {
  OLAPDC_CHECK(e != nullptr);
  if (e->IsAtom() || e->IsLiteralTruth()) return e;

  std::vector<ExprPtr> children;
  children.reserve(e->children.size());
  for (const ExprPtr& child : e->children) {
    children.push_back(Simplify(child));
  }

  switch (e->kind) {
    case ExprKind::kNot: {
      const ExprPtr& a = children[0];
      if (a->kind == ExprKind::kTrue) return MakeFalse();
      if (a->kind == ExprKind::kFalse) return MakeTrue();
      if (a->kind == ExprKind::kNot) return a->children[0];
      return MakeNot(a);
    }
    case ExprKind::kAnd:
    case ExprKind::kOr:
      return SimplifyNary(e->kind, std::move(children));
    case ExprKind::kImplies: {
      ExprPtr a = children[0], b = children[1];
      if (a->kind == ExprKind::kFalse || b->kind == ExprKind::kTrue) {
        return MakeTrue();
      }
      if (a->kind == ExprKind::kTrue) return b;
      if (b->kind == ExprKind::kFalse) return Simplify(MakeNot(a));
      return MakeImplies(std::move(a), std::move(b));
    }
    case ExprKind::kEquiv: {
      ExprPtr a = children[0], b = children[1];
      if (a->kind == ExprKind::kTrue) return b;
      if (b->kind == ExprKind::kTrue) return a;
      if (a->kind == ExprKind::kFalse) return Simplify(MakeNot(b));
      if (b->kind == ExprKind::kFalse) return Simplify(MakeNot(a));
      return MakeEquiv(std::move(a), std::move(b));
    }
    case ExprKind::kXor: {
      ExprPtr a = children[0], b = children[1];
      if (a->kind == ExprKind::kFalse) return b;
      if (b->kind == ExprKind::kFalse) return a;
      if (a->kind == ExprKind::kTrue) return Simplify(MakeNot(b));
      if (b->kind == ExprKind::kTrue) return Simplify(MakeNot(a));
      return MakeXor(std::move(a), std::move(b));
    }
    case ExprKind::kExactlyOne:
      return SimplifyExactlyOne(std::move(children));
    default:
      break;
  }
  // Unreachable for well-formed trees (atoms/literals have no children).
  auto copy = std::make_shared<Expr>(*e);
  copy->children = std::move(children);
  return copy;
}

}  // namespace olapdc
