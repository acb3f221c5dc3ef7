#include "core/decompose.h"

#include <numeric>

namespace olapdc {

namespace {

/// Evaluates a constraint expression under the all-atoms-false
/// valuation — the truth value the constraint takes on any model in
/// which its component is entirely absent (every atom then fails,
/// because each needs at least one absent intermediate category; the
/// one shorthand that does not, root.All, trips a gate in
/// decompose.h).
bool EvalAllFalse(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kTrue:
      return true;
    case ExprKind::kFalse:
    case ExprKind::kPathAtom:
    case ExprKind::kEqualityAtom:
    case ExprKind::kComposedAtom:
    case ExprKind::kThroughAtom:
    case ExprKind::kOrderAtom:
      return false;
    case ExprKind::kNot:
      return !EvalAllFalse(*e.children[0]);
    case ExprKind::kAnd: {
      for (const ExprPtr& c : e.children) {
        if (!EvalAllFalse(*c)) return false;
      }
      return true;
    }
    case ExprKind::kOr: {
      for (const ExprPtr& c : e.children) {
        if (EvalAllFalse(*c)) return true;
      }
      return false;
    }
    case ExprKind::kImplies:
      return !EvalAllFalse(*e.children[0]) || EvalAllFalse(*e.children[1]);
    case ExprKind::kEquiv:
      return EvalAllFalse(*e.children[0]) == EvalAllFalse(*e.children[1]);
    case ExprKind::kXor:
      return EvalAllFalse(*e.children[0]) != EvalAllFalse(*e.children[1]);
    case ExprKind::kExactlyOne: {
      int truths = 0;
      for (const ExprPtr& c : e.children) {
        if (EvalAllFalse(*c)) ++truths;
      }
      return truths == 1;
    }
  }
  return false;
}

/// Every category an expression's atoms reference, as a bitset. A
/// composed or through atom names only its endpoints and via: the
/// schema paths it abbreviates run through intermediate categories
/// that the hierarchy-edge union already joins to them.
void CollectMentioned(const Expr& e, DynamicBitset* out) {
  if (e.IsAtom()) {
    for (CategoryId c : e.path) out->set(c);
    if (e.root != kNoCategory) out->set(e.root);
    if (e.via != kNoCategory) out->set(e.via);
    if (e.target != kNoCategory) out->set(e.target);
    return;
  }
  for (const ExprPtr& c : e.children) CollectMentioned(*c, out);
}

/// True iff some atom of `e` satisfies `pred`.
template <typename Pred>
bool AnyAtom(const Expr& e, const Pred& pred) {
  if (e.IsAtom()) return pred(e);
  for (const ExprPtr& c : e.children) {
    if (AnyAtom(*c, pred)) return true;
  }
  return false;
}

uint64_t MixSalt(uint64_t a, uint64_t b) {
  uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

ComponentSplit ComputeComponentSplit(
    const DimensionSchema& ds, CategoryId root,
    const std::vector<DimensionConstraint>& relevant, uint64_t nogood_salt) {
  ComponentSplit split;
  const HierarchySchema& schema = ds.hierarchy();
  const CategoryId all = schema.all();
  const int n = schema.num_categories();
  if (root == all) {
    split.ineligible_reason = "query root is All";
    return split;
  }
  DynamicBitset inter = schema.UpSet(root);
  inter.reset(root);
  inter.reset(all);
  if (static_cast<int>(inter.count()) < 2) {
    split.ineligible_reason = "fewer than two intermediate categories";
    return split;
  }
  if (schema.graph().HasEdge(root, all)) {
    split.ineligible_reason = "direct root->All edge";
    return split;
  }
  bool cycle_through_root = false;
  inter.ForEach([&](int u) {
    if (schema.graph().HasEdge(u, root)) cycle_through_root = true;
  });
  if (cycle_through_root) {
    split.ineligible_reason = "schema cycle through the query root";
    return split;
  }

  // Union-find over category ids; only intermediate categories are
  // ever united.
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](int a, int b) { parent[find(a)] = find(b); };

  // (a) Hierarchy edges between intermediate categories.
  inter.ForEach([&](int u) {
    for (CategoryId v : schema.graph().OutNeighbors(u)) {
      if (inter.test(v)) unite(u, v);
    }
  });

  // (b) Constraint coupling: all intermediate categories one
  // constraint mentions share a component. Gates that make a
  // constraint unassignable trip here.
  std::vector<CategoryId> anchor(relevant.size(), kNoCategory);
  DynamicBitset mentioned(n);
  for (size_t i = 0; i < relevant.size(); ++i) {
    const Expr& e = *relevant[i].expr;
    if (e.kind == ExprKind::kTrue) continue;  // vacuous: no component
    if (e.kind == ExprKind::kFalse) {
      split.ineligible_reason = "relevant constraint is literally False";
      return split;
    }
    if (AnyAtom(e, [&](const Expr& a) {
          return (a.kind == ExprKind::kEqualityAtom ||
                  a.kind == ExprKind::kOrderAtom) &&
                 (a.target == root || a.target == all);
        })) {
      split.ineligible_reason =
          "equality/order atom targets the query root or All";
      return split;
    }
    // root.All, root.root.All and root.All.All abbreviate the paths
    // through every component, and hold on every model.
    if (AnyAtom(e, [&](const Expr& a) {
          return a.root == root && a.target == all &&
                 (a.kind == ExprKind::kComposedAtom ||
                  (a.kind == ExprKind::kThroughAtom &&
                   (a.via == root || a.via == all)));
        })) {
      split.ineligible_reason = "shorthand atom from the query root to All";
      return split;
    }
    mentioned.clear();
    CollectMentioned(e, &mentioned);
    mentioned &= inter;
    CategoryId first = kNoCategory;
    mentioned.ForEach([&](int c) {
      if (first == kNoCategory) {
        first = c;
      } else {
        unite(first, c);
      }
    });
    if (first == kNoCategory) {
      split.ineligible_reason =
          "relevant constraint mentions no intermediate category";
      return split;
    }
    anchor[i] = first;
  }

  // Components in ascending order of their smallest member.
  std::vector<int> comp_of(n, -1);
  int num_components = 0;
  std::vector<int> comp_id_of_root(n, -1);
  inter.ForEach([&](int c) {
    const int r = find(c);
    if (comp_id_of_root[r] < 0) comp_id_of_root[r] = num_components++;
    comp_of[c] = comp_id_of_root[r];
  });
  if (num_components < 2) {
    split.ineligible_reason = "single weakly connected component";
    return split;
  }

  split.universes.assign(num_components, DynamicBitset(n));
  for (int k = 0; k < num_components; ++k) {
    split.universes[k].set(root);
    split.universes[k].set(all);
  }
  inter.ForEach([&](int c) { split.universes[comp_of[c]].set(c); });

  split.constraint_indices.assign(num_components, {});
  split.absent_valid.assign(num_components, true);
  for (size_t i = 0; i < relevant.size(); ++i) {
    if (anchor[i] == kNoCategory) continue;  // vacuous True constraint
    const int k = comp_of[anchor[i]];
    split.constraint_indices[k].push_back(i);
    // Only constraints rooted at the query root can be non-vacuous on
    // a model that omits this component (intermediate-rooted ones lose
    // their root along with the component).
    if (relevant[i].root == root && !EvalAllFalse(*relevant[i].expr)) {
      split.absent_valid[k] = false;
    }
  }

  split.salts.reserve(num_components);
  for (int k = 0; k < num_components; ++k) {
    split.salts.push_back(MixSalt(
        nogood_salt, static_cast<uint64_t>(split.universes[k].Hash())));
  }
  split.eligible = true;
  return split;
}

}  // namespace olapdc
