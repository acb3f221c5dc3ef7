#include "core/subhierarchy.h"

#include <algorithm>

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

uint64_t Subhierarchy::Bytes(int num_categories) {
  const uint64_t n = static_cast<uint64_t>(num_categories);
  const uint64_t set = DynamicBitset::Bytes(num_categories);
  // out_, in_ and below_ hold n sets each; cats_ and top_ sit inside
  // the object, so only their heap words count on top of sizeof.
  return sizeof(Subhierarchy) + 3 * n * set +
         2 * (set - sizeof(DynamicBitset));
}

int Subhierarchy::num_edges() const {
  int count = 0;
  cats_.ForEach([&](int u) { count += out_[u].count(); });
  return count;
}

void Subhierarchy::Expand(CategoryId ctop, const DynamicBitset& r) {
  SubhierarchyUndoLog log;
  ExpandLogged(ctop, r, &log);
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

bool Subhierarchy::HasCycleIn() const {
  for (int c = cats_.First(); c >= 0; c = cats_.Next(c)) {
    if (below_[c].test(c)) return true;
  }
  return false;
}

bool Subhierarchy::HasShortcut() const {
  // Edge (u, v) plus a path u -> w -> ... -> v for a successor w of u.
  for (int u = cats_.First(); u >= 0; u = cats_.Next(u)) {
    const DynamicBitset& out = out_[u];
    for (int v = out.First(); v >= 0; v = out.Next(v)) {
      if (out.Intersects(below_[v])) return true;
    }
  }
  return false;
}

void Subhierarchy::RebuildBelow() {
  DynamicBitset to_visit(n_);
  DynamicBitset visited(n_);
  cats_.ForEach([&](int u) {
    // u lies below everything its successors reach, themselves included.
    to_visit = out_[u];
    visited.clear();
    for (int x = to_visit.First(); x >= 0; x = to_visit.First()) {
      to_visit.reset(x);
      visited.set(x);
      below_[x].set(u);
      to_visit |= out_[x];
      to_visit -= visited;
    }
  });
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

  g.RebuildBelow();
  return g;
}

std::optional<Subhierarchy> Subhierarchy::FromEdges(
    int num_categories, CategoryId root, CategoryId all,
    const std::vector<std::pair<CategoryId, CategoryId>>& edges) {
  std::optional<Subhierarchy> g =
      FromPartialEdges(num_categories, root, edges);
  // Complete means All is the one category without outgoing edges, so
  // with acyclicity c ->* All for every c. (Cyclic edge sets are
  // representable — the structural CHECK rejects them later.)
  if (!g.has_value() || all < 0 || all >= num_categories ||
      g->top_.count() != 1 || !g->top_.test(all)) {
    return std::nullopt;
  }
  return g;
}

}  // namespace olapdc
