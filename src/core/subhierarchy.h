// Subhierarchies (paper Definition 7): the partial category graphs the
// DIMSAT algorithm grows. A subhierarchy of G with root c is a subgraph
// (C', E') of G with c, All in C', every category reachable from c, and
// every category reaching All.
//
// The representation packs node and edge sets into DynamicBitsets (with
// inline small-buffer storage, so copies touch no allocator for
// realistic schema sizes). The backtracking search mutates one shared
// subhierarchy through ExpandLogged()/Rollback() with an undo log —
// copy-on-recurse (plain Expand() on a copy) remains available for
// callers that need persistent snapshots, e.g. the parallel driver's
// task seeds. It maintains exactly the bookkeeping of the paper's
// EXPAND procedure:
//   g.C      -> categories()
//   g.Out(c) -> Out(c)
//   g.Top    -> top()          (categories with no outgoing edge yet)
//   g.In*(c) -> Below(c)       (categories that reach c in g)
// with In* kept exact under edge insertion by downstream propagation
// (the paper's line (5) under-maintains it; see DESIGN.md deviation 3).
// Below is g's only reachability relation: CHECK's cycle and shortcut
// tests read it directly, the circle operator through Reaches().

#ifndef OLAPDC_CORE_SUBHIERARCHY_H_
#define OLAPDC_CORE_SUBHIERARCHY_H_

#include <optional>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "dim/hierarchy_schema.h"
#include "graph/digraph.h"

namespace olapdc {

class Subhierarchy;

/// Rollback journal for mutation-based EXPAND backtracking. One log
/// accompanies one subhierarchy through a depth-first search:
/// ExpandLogged() pushes a frame, Rollback() pops the most recent one
/// (strict LIFO). Frame storage — including the saved Below snapshots —
/// is recycled across push/pop cycles, so steady-state search depth
/// oscillation performs no allocation at all.
class SubhierarchyUndoLog {
 public:
  bool empty() const { return frames_.empty(); }
  size_t depth() const { return frames_.size(); }

 private:
  friend class Subhierarchy;

  struct Frame {
    CategoryId ctop;
    /// Start of this frame's slice of new_cats_ / saved_below_.
    uint32_t cats_start;
    uint32_t below_start;
  };
  struct SavedBelow {
    CategoryId cat;
    DynamicBitset old_below;
  };

  std::vector<Frame> frames_;
  /// Categories first added by some live frame, frames concatenated.
  std::vector<CategoryId> new_cats_;
  /// Below snapshots of every category a live frame touched. Slots are
  /// reused below below_used_ high-water style (the bitsets keep their
  /// storage when overwritten with equal-sized values).
  std::vector<SavedBelow> saved_below_;
  size_t below_used_ = 0;
  /// Scratch sets reused by every ExpandLogged call.
  DynamicBitset scratch_delta_;
  DynamicBitset scratch_visit_;
  DynamicBitset scratch_visited_;
};

/// A growing subhierarchy over categories {0..n-1} with a fixed root.
class Subhierarchy {
 public:
  /// The initial subhierarchy {root} with no edges; root is the only
  /// (pending) top category.
  Subhierarchy(int num_categories, CategoryId root);

  /// Builds a subhierarchy from an explicit edge list (used by the
  /// brute-force baseline and by tests). Returns nullopt when the edges
  /// do not form a subhierarchy with this root: some touched category
  /// is unreachable from root, or some category with no outgoing edge
  /// other than All remains, or All is missing (unless the graph is the
  /// single node root == all).
  static std::optional<Subhierarchy> FromEdges(
      int num_categories, CategoryId root, CategoryId all,
      const std::vector<std::pair<CategoryId, CategoryId>>& edges);

  /// Rebuilds a *mid-search* subhierarchy from an edge list — the
  /// deserialization path of DIMSAT checkpoints. Unlike FromEdges() it
  /// accepts incomplete frontiers: categories without outgoing edges
  /// are simply the pending top() set (All need not be present). Only
  /// root-reachability is validated; Below is recomputed exactly.
  static std::optional<Subhierarchy> FromPartialEdges(
      int num_categories, CategoryId root,
      const std::vector<std::pair<CategoryId, CategoryId>>& edges);

  /// Bytes one subhierarchy over `num_categories` categories occupies:
  /// the object, its three n-vectors of sets and, past 512 categories,
  /// every set's heap words. The memory governor's unit for search
  /// state, parallel task seeds and resume-token frames.
  static uint64_t Bytes(int num_categories);

  int num_categories() const { return n_; }
  CategoryId root() const { return root_; }

  const DynamicBitset& categories() const { return cats_; }
  bool Contains(CategoryId c) const { return cats_.test(c); }

  /// Categories in g with no outgoing edge yet (the paper's g.Top).
  const DynamicBitset& top() const { return top_; }

  /// Direct successors of c in g.
  const DynamicBitset& Out(CategoryId c) const { return out_[c]; }
  /// Direct predecessors of c in g.
  const DynamicBitset& In(CategoryId c) const { return in_[c]; }
  /// The paper's In*(c): every category with a nonempty path to c in g.
  /// Contains c itself exactly when c lies on a cycle of g.
  const DynamicBitset& Below(CategoryId c) const { return below_[c]; }

  /// True iff g has a path from u to v, the empty path included: u = v
  /// for a category of g, otherwise u ∈ Below(v).
  bool Reaches(CategoryId u, CategoryId v) const {
    return u == v ? cats_.test(u) : below_[v].test(u);
  }

  bool HasEdge(CategoryId u, CategoryId v) const { return out_[u].test(v); }

  int num_edges() const;

  /// Executes one EXPAND step: gives `ctop` (which must currently be in
  /// top()) the outgoing edges R. New categories enter top(); Below is
  /// propagated exactly. ExpandLogged() into a throwaway log, so one
  /// loop keeps In* exact on both paths.
  void Expand(CategoryId ctop, const DynamicBitset& r);

  /// Expand() that additionally journals everything it changes into
  /// `log`, so Rollback() can restore the pre-call state exactly. The
  /// DIMSAT hot path uses this pair to backtrack by mutation instead of
  /// copying the subhierarchy per recursive call.
  void ExpandLogged(CategoryId ctop, const DynamicBitset& r,
                    SubhierarchyUndoLog* log);

  /// Undoes the most recent un-rolled-back ExpandLogged() recorded in
  /// `log`. Calls must nest LIFO with ExpandLogged (the usual
  /// recursion structure guarantees this).
  void Rollback(SubhierarchyUndoLog* log);

  /// True iff `path` (category sequence) is a path of g.
  bool IsPath(const std::vector<CategoryId>& path) const;

  /// The edge list, grouped by source in ascending order.
  std::vector<std::pair<CategoryId, CategoryId>> Edges() const;

  /// Materializes g as a Digraph over all n category ids.
  Digraph ToDigraph() const;

  /// True iff g (as currently built) has a directed cycle: some c of g
  /// lies in Below(c).
  bool HasCycleIn() const;

  /// True iff some edge (u, v) of g is paralleled by a longer path —
  /// condition (a) of Proposition 2: Out(u) meets Below(v). Exact on
  /// acyclic g, where v itself is never in Below(v).
  bool HasShortcut() const;

 private:
  int n_;
  CategoryId root_;
  DynamicBitset cats_;
  DynamicBitset top_;
  std::vector<DynamicBitset> out_;
  std::vector<DynamicBitset> in_;
  std::vector<DynamicBitset> below_;

  /// Fills the (still empty) Below sets from the edges: the closure
  /// over nonempty paths, as Expand() and ExpandLogged() maintain it.
  void RebuildBelow();
};

}  // namespace olapdc

#endif  // OLAPDC_CORE_SUBHIERARCHY_H_
