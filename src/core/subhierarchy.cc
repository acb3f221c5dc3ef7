#include "core/subhierarchy.h"

#include <algorithm>

#include "graph/algorithms.h"

namespace olapdc {

Subhierarchy::Subhierarchy(int num_categories, CategoryId root)
    : n_(num_categories),
      root_(root),
      cats_(num_categories),
      top_(num_categories),
      out_(num_categories, DynamicBitset(num_categories)),
      in_(num_categories, DynamicBitset(num_categories)),
      below_(num_categories, DynamicBitset(num_categories)) {
  OLAPDC_CHECK(0 <= root && root < num_categories);
  cats_.set(root);
  top_.set(root);
}

int Subhierarchy::num_edges() const {
  int count = 0;
  cats_.ForEach([&](int u) { count += out_[u].count(); });
  return count;
}

void Subhierarchy::Expand(CategoryId ctop, const DynamicBitset& r) {
  OLAPDC_DCHECK(top_.test(ctop)) << "Expand target must be a top category";
  OLAPDC_DCHECK(r.any());
  top_.reset(ctop);

  // Everything below ctop — plus ctop itself — now reaches every
  // category that r's members reach.
  DynamicBitset delta = below_[ctop];
  delta.set(ctop);

  std::vector<CategoryId> frontier;
  r.ForEach([&](int c) {
    if (!cats_.test(c)) {
      cats_.set(c);
      top_.set(c);
    }
    out_[ctop].set(c);
    in_[c].set(ctop);
    frontier.push_back(c);
  });

  // Propagate delta to every category reachable from r (inclusive).
  // Prior Below sets were exact, so the new facts are exactly `delta`
  // on that reachable region.
  DynamicBitset visited(n_);
  while (!frontier.empty()) {
    CategoryId x = frontier.back();
    frontier.pop_back();
    if (visited.test(x)) continue;
    visited.set(x);
    below_[x] |= delta;
    out_[x].ForEach([&](int y) {
      if (!visited.test(y)) frontier.push_back(y);
    });
  }
}

void Subhierarchy::ExpandLogged(CategoryId ctop, const DynamicBitset& r,
                                SubhierarchyUndoLog* log) {
  OLAPDC_DCHECK(top_.test(ctop)) << "Expand target must be a top category";
  OLAPDC_DCHECK(r.any());
  OLAPDC_DCHECK(out_[ctop].none()) << "top category cannot have edges yet";
  SubhierarchyUndoLog::Frame frame;
  frame.ctop = ctop;
  frame.cats_start = static_cast<uint32_t>(log->new_cats_.size());
  frame.below_start = static_cast<uint32_t>(log->below_used_);
  top_.reset(ctop);

  if (log->scratch_delta_.size() != n_) {
    log->scratch_delta_ = DynamicBitset(n_);
    log->scratch_visit_ = DynamicBitset(n_);
    log->scratch_visited_ = DynamicBitset(n_);
  }
  DynamicBitset& delta = log->scratch_delta_;
  delta = below_[ctop];
  delta.set(ctop);

  r.ForEach([&](int c) {
    if (!cats_.test(c)) {
      cats_.set(c);
      top_.set(c);
      log->new_cats_.push_back(c);
    }
    out_[ctop].set(c);
    in_[c].set(ctop);
  });

  // Propagate delta to every category reachable from r (inclusive),
  // saving each touched Below so Rollback can restore it bit-exactly
  // (|= may re-set bits that were already present, so a shared delta
  // alone cannot be subtracted back out).
  DynamicBitset& to_visit = log->scratch_visit_;
  DynamicBitset& visited = log->scratch_visited_;
  to_visit = r;
  visited.clear();
  for (int x = to_visit.First(); x >= 0; x = to_visit.First()) {
    to_visit.reset(x);
    visited.set(x);
    if (log->below_used_ == log->saved_below_.size()) {
      log->saved_below_.push_back({x, below_[x]});
    } else {
      SubhierarchyUndoLog::SavedBelow& slot =
          log->saved_below_[log->below_used_];
      slot.cat = x;
      slot.old_below = below_[x];
    }
    ++log->below_used_;
    below_[x] |= delta;
    to_visit |= out_[x];
    to_visit -= visited;
  }
  log->frames_.push_back(frame);
}

void Subhierarchy::Rollback(SubhierarchyUndoLog* log) {
  OLAPDC_DCHECK(!log->frames_.empty());
  const SubhierarchyUndoLog::Frame frame = log->frames_.back();
  log->frames_.pop_back();

  // Restore the journalled Below snapshots (disjoint categories within
  // a frame, so order is irrelevant).
  for (size_t i = frame.below_start; i < log->below_used_; ++i) {
    SubhierarchyUndoLog::SavedBelow& saved = log->saved_below_[i];
    below_[saved.cat] = saved.old_below;
  }
  log->below_used_ = frame.below_start;

  // Deeper frames have already been rolled back, so out_[ctop] is again
  // exactly the R of this frame's expansion.
  out_[frame.ctop].ForEach([&](int c) { in_[c].reset(frame.ctop); });
  out_[frame.ctop].clear();

  // Drop the categories this frame introduced.
  for (size_t i = frame.cats_start; i < log->new_cats_.size(); ++i) {
    const CategoryId c = log->new_cats_[i];
    cats_.reset(c);
    top_.reset(c);
  }
  log->new_cats_.resize(frame.cats_start);
  top_.set(frame.ctop);
}

bool Subhierarchy::IsPath(const std::vector<CategoryId>& path) const {
  if (path.empty()) return false;
  if (!cats_.test(path[0])) return false;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    if (!HasEdge(path[i], path[i + 1])) return false;
  }
  return true;
}

std::vector<DynamicBitset> Subhierarchy::ComputeReach() const {
  std::vector<DynamicBitset> reach(n_, DynamicBitset(n_));
  // Process categories; repeated relaxation handles arbitrary insertion
  // orders (g may be cyclic when pruning is disabled, so a plain
  // reverse-topological pass is not guaranteed to exist).
  bool changed = true;
  cats_.ForEach([&](int u) { reach[u].set(u); });
  while (changed) {
    changed = false;
    cats_.ForEach([&](int u) {
      DynamicBitset before = reach[u];
      out_[u].ForEach([&](int v) { reach[u] |= reach[v]; });
      if (reach[u] != before) changed = true;
    });
  }
  return reach;
}

std::vector<std::pair<CategoryId, CategoryId>> Subhierarchy::Edges() const {
  std::vector<std::pair<CategoryId, CategoryId>> edges;
  edges.reserve(num_edges());
  cats_.ForEach([&](int u) {
    out_[u].ForEach([&](int v) { edges.emplace_back(u, v); });
  });
  return edges;
}

Digraph Subhierarchy::ToDigraph() const {
  Digraph g(n_);
  for (const auto& [u, v] : Edges()) g.AddEdge(u, v);
  return g;
}

bool Subhierarchy::HasCycleIn() const { return HasCycle(ToDigraph()); }

bool Subhierarchy::HasCycleIn(
    const std::vector<DynamicBitset>& reach) const {
  bool found = false;
  cats_.ForEach([&](int u) {
    if (found) return;
    out_[u].ForEach([&](int v) {
      if (!found && reach[v].test(u)) found = true;
    });
  });
  return found;
}

bool Subhierarchy::HasShortcut() const {
  return HasShortcut(ComputeReach());
}

bool Subhierarchy::HasShortcut(
    const std::vector<DynamicBitset>& reach) const {
  bool found = false;
  cats_.ForEach([&](int u) {
    if (found) return;
    out_[u].ForEach([&](int v) {
      if (found) return;
      // Edge (u, v) plus a path u -> w -> ... -> v for some other
      // successor w of u.
      out_[u].ForEach([&](int w) {
        if (w != v && reach[w].test(v)) found = true;
      });
    });
  });
  return found;
}

std::optional<Subhierarchy> Subhierarchy::FromPartialEdges(
    int num_categories, CategoryId root,
    const std::vector<std::pair<CategoryId, CategoryId>>& edges) {
  if (root < 0 || root >= num_categories) return std::nullopt;
  Subhierarchy g(num_categories, root);
  g.top_.clear();
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= num_categories || v < 0 || v >= num_categories ||
        u == v) {
      return std::nullopt;
    }
    g.cats_.set(u);
    g.cats_.set(v);
    g.out_[u].set(v);
    g.in_[v].set(u);
  }

  // Every category of g must be reachable from root (invariant of each
  // EXPAND step, so of every checkpointed frontier).
  {
    DynamicBitset seen(num_categories);
    std::vector<CategoryId> frontier{root};
    seen.set(root);
    while (!frontier.empty()) {
      CategoryId u = frontier.back();
      frontier.pop_back();
      g.out_[u].ForEach([&](int v) {
        if (!seen.test(v)) {
          seen.set(v);
          frontier.push_back(v);
        }
      });
    }
    if (!g.cats_.IsSubsetOf(seen)) return std::nullopt;
  }

  // In a search state, top() is exactly the not-yet-expanded categories
  // — the ones with no outgoing edge (the search removes a category
  // from top() precisely when it gains its edges).
  g.cats_.ForEach([&](int u) {
    if (g.out_[u].none()) g.top_.set(u);
  });

  // Rebuild Below by relaxation to a fixpoint (partial graphs may be
  // cyclic when pruning is disabled; the fixpoint handles both).
  std::vector<DynamicBitset> reach(num_categories,
                                   DynamicBitset(num_categories));
  bool changed = true;
  g.cats_.ForEach([&](int u) { reach[u].set(u); });
  while (changed) {
    changed = false;
    g.cats_.ForEach([&](int u) {
      DynamicBitset before = reach[u];
      g.out_[u].ForEach([&](int v) { reach[u] |= reach[v]; });
      if (reach[u] != before) changed = true;
    });
  }
  g.cats_.ForEach([&](int v) {
    g.cats_.ForEach([&](int u) {
      if (u != v && reach[u].test(v)) g.below_[v].set(u);
    });
  });
  return g;
}

std::optional<Subhierarchy> Subhierarchy::FromEdges(
    int num_categories, CategoryId root, CategoryId all,
    const std::vector<std::pair<CategoryId, CategoryId>>& edges) {
  Subhierarchy g(num_categories, root);
  g.top_.clear();
  for (const auto& [u, v] : edges) {
    if (u < 0 || u >= num_categories || v < 0 || v >= num_categories ||
        u == v) {
      return std::nullopt;
    }
    g.cats_.set(u);
    g.cats_.set(v);
    g.out_[u].set(v);
    g.in_[v].set(u);
  }

  // Reachability from root must cover every category of g.
  {
    DynamicBitset seen(num_categories);
    std::vector<CategoryId> frontier{root};
    seen.set(root);
    while (!frontier.empty()) {
      CategoryId u = frontier.back();
      frontier.pop_back();
      g.out_[u].ForEach([&](int v) {
        if (!seen.test(v)) {
          seen.set(v);
          frontier.push_back(v);
        }
      });
    }
    if (!g.cats_.IsSubsetOf(seen)) return std::nullopt;
  }

  // Every category without outgoing edges must be All (otherwise it
  // cannot reach All); All itself must have none. With acyclicity this
  // implies c ->* All for all c. (Cyclic edge sets are representable —
  // the structural CHECK rejects them later.)
  bool ok = true;
  g.cats_.ForEach([&](int u) {
    bool has_out = g.out_[u].any();
    if (u == all && has_out) ok = false;
    if (u != all && !has_out) ok = false;
    if (!has_out) g.top_.set(u);
  });
  if (root == all && g.cats_.count() == 1) ok = true;
  if (!ok) return std::nullopt;
  if (!g.cats_.test(all) && !(root == all && g.cats_.count() == 1)) {
    return std::nullopt;
  }

  // Rebuild Below exactly.
  std::vector<DynamicBitset> reach(num_categories,
                                   DynamicBitset(num_categories));
  bool changed = true;
  g.cats_.ForEach([&](int u) { reach[u].set(u); });
  while (changed) {
    changed = false;
    g.cats_.ForEach([&](int u) {
      DynamicBitset before = reach[u];
      g.out_[u].ForEach([&](int v) { reach[u] |= reach[v]; });
      if (reach[u] != before) changed = true;
    });
  }
  g.cats_.ForEach([&](int v) {
    g.cats_.ForEach([&](int u) {
      if (u != v && reach[u].test(v)) g.below_[v].set(u);
    });
  });
  return g;
}

}  // namespace olapdc
