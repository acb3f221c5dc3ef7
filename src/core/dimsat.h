// DIMSAT (paper Section 5, Figure 6): the backtracking decision
// procedure for category satisfiability. EXPAND grows subhierarchies of
// the hierarchy schema rooted at the query category, pruning choices
// that would create cycles (Sc), shortcuts (Ss), or violate *into*
// constraints; CHECK decides whether a completed subhierarchy induces a
// frozen dimension (Proposition 2). By Theorem 3, the category is
// satisfiable iff some explored subhierarchy does.
//
// CHECK reads Sigma(ds, root) as written. The circle operator evaluates
// composed and through atoms as reachability in g (core/circle.h);
// preparing Sigma only folds the shorthand atoms whose value no
// subhierarchy can change and simplifies, so it cannot fail.
//
// Options expose each pruning rule independently (for the ablation
// benchmarks) and an enumerate-all mode that collects every frozen
// dimension instead of stopping at the first — the Figure 4 harness and
// the workload generators run DIMSAT in that mode.

#ifndef OLAPDC_CORE_DIMSAT_H_
#define OLAPDC_CORE_DIMSAT_H_

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "core/checkpoint.h"
#include "core/frozen.h"
#include "core/schema.h"
#include "core/subhierarchy.h"

namespace olapdc {

class NoGoodStore;

namespace exec {
class WorkStealingPool;
}  // namespace exec

struct DimsatOptions {
  /// Prune successor choices that would complete a shortcut (Ss).
  bool prune_shortcuts = true;
  /// Prune successor choices that would close a cycle (Sc).
  bool prune_cycles = true;
  /// Force R to contain every into-constraint target of the expanded
  /// category, and cut the branch when an into target is blocked.
  bool prune_into = true;
  /// Enforce injective constant choices (literal Proposition 2).
  bool require_injective_names = false;
  /// Connected-component decomposition (core/decompose.h) of an
  /// enumerate_all run that neither captures nor resumes a checkpoint:
  /// partition the intermediate categories of UpSet(root) into weakly
  /// connected components of the hierarchy DAG plus the
  /// constraint-coupling edges of the effective theory, enumerate each
  /// component with its own EXPAND over a restricted universe, and
  /// compose the per-component model sets — a w-component schema then
  /// costs the *sum* of the per-component searches instead of their
  /// product. Every other run searches monolithically: decision mode
  /// stops at its first witness, and a checkpoint is the frontier of
  /// one monolithic traversal. Falls back to the monolithic search
  /// whenever a static soundness gate trips (fewer than two
  /// components, injective-names mode, a direct root->All edge, a
  /// cycle through the root, or a constraint whose atoms couple only
  /// root/All). The frozen-dimension set is always equal to the
  /// monolithic search's. Off by default (perfbench screens its inputs
  /// by their monolithic EXPAND counts); `olapdc frozen` turns it on
  /// (DESIGN.md §8).
  bool decompose = false;
  /// Most-constrained-first branching: expand the pending category
  /// with the fewest free successor choices (out-degree minus forced
  /// into-targets, ties broken towards denser into coverage) instead
  /// of the lowest category id. The ordering is a pure function of
  /// (schema, root, options), computed once per solve and recomputed
  /// identically on checkpoint resume, so interrupted ≡ uninterrupted
  /// still holds. Off by default, and no production caller turns it
  /// on: it cuts EXPANDs on multi-component schemas (the only rows
  /// the CI floors aggregate), but on layered schemas it can multiply
  /// them — bench/dimsat_ablation's layered rows list 2,900 models in
  /// 139,815 EXPANDs and 120,960 CHECKs with it, against 51,621 and
  /// 8,040 without (DESIGN.md §8).
  bool branch_heuristic = false;
  /// Collect every frozen dimension instead of stopping at the first.
  bool enumerate_all = false;
  /// Cap on collected frozen dimensions (enumerate_all mode).
  size_t max_frozen = 1 << 20;
  /// Budget on EXPAND calls for the whole run — summed over every
  /// worker and component search when the run is parallel or
  /// decomposed; exceeding it aborts with ResourceExhausted in
  /// DimsatResult::status, and stats.expand_calls never exceeds it.
  uint64_t max_expand_calls = UINT64_MAX;
  /// Wall-clock / cancellation budget; not owned, may be null
  /// (unbounded). Shared read-only across parallel workers. On
  /// expiration the search stops with kDeadlineExceeded / kCancelled in
  /// DimsatResult::status and the partial stats accumulated so far.
  const Budget* budget = nullptr;
  /// EXPAND calls between full budget probes (clock sample + flag
  /// load); the amortization that keeps the budget check off the hot
  /// path.
  uint32_t budget_check_stride = 256;
  /// Worker parallelism: <= 1 runs the search on the calling thread,
  /// > 1 as tasks of the work-stealing pool (EXPAND nodes near the root
  /// become stealable tasks; decomposed runs make each component one
  /// task). The pool's size, not this value, bounds how many workers
  /// run them: the engine starts no thread of its own.
  int num_threads = 1;
  /// Pool override for parallel runs (benches and tests pin exact
  /// worker counts); null uses the shared process pool
  /// (exec::ProcessPool(), sized once per process by --threads or
  /// OLAPDC_THREADS), whatever its size.
  exec::WorkStealingPool* pool = nullptr;
  /// Out-parameter for checkpoint/resume: when non-null and the run
  /// stops on a budget error (deadline, cancellation, memory pressure,
  /// or the expand-call cap), the live search frontier is captured here
  /// so ResumeDimsat() can continue the search instead of restarting
  /// it. Cleared at the start of each run; forces the sequential,
  /// monolithic engine (frontier capture is inherently a property of
  /// one depth-first traversal). The
  /// interrupted and resumed runs partition the search tree, so their
  /// combined verdict, frozen set, and statistics equal an
  /// uninterrupted run's.
  DimsatCheckpoint* checkpoint = nullptr;
  /// Learned-pruning store (core/nogood.h); not owned, may be shared
  /// across runs and threads. Null (the default) disables the feature
  /// entirely. When set, each search records its maximal barren
  /// subtrees when it ends, and a later search with the same root,
  /// salt and pruning options skips them on sight (counted as
  /// stats.nogood_prunes, and a PRUNE[nogood] explain event each).
  /// The frozen-dimension *set* is unaffected; per-node statistics
  /// and explain streams differ from an uncached run. The caller owns
  /// epoch discipline: one store must only ever see one schema
  /// content epoch.
  NoGoodStore* nogoods = nullptr;
  /// Mixed into every no-good signature. A subtree is barren relative
  /// to the *effective* constraint theory, so runs against different
  /// theories over the same schema content (e.g. Implies() extends Σ
  /// with ¬α) must salt their signatures apart: use 0 for plain
  /// satisfiability against Σ and a fingerprint of the extension for
  /// anything else. Distinct query roots need no salt — the root is
  /// part of the signature already.
  uint64_t nogood_salt = 0;
};

struct DimsatStats {
  uint64_t expand_calls = 0;
  uint64_t check_calls = 0;
  /// CHECKs rejected by the structural (cycle/shortcut) validation.
  uint64_t structural_rejections = 0;
  uint64_t assignments_tried = 0;
  /// Branches cut because a blocked into-target made expansion futile.
  uint64_t into_prunes = 0;
  /// Successor choices blocked by the shortcut rule Ss.
  uint64_t shortcut_prunes = 0;
  /// Successor choices blocked by the cycle rule Sc.
  uint64_t cycle_prunes = 0;
  /// Expansions abandoned because no successor choice remained.
  uint64_t dead_ends = 0;
  /// Subtrees skipped because the no-good store recognized them as
  /// barren (DimsatOptions::nogoods).
  uint64_t nogood_prunes = 0;
  uint64_t frozen_found = 0;
  /// Parallel runs only: pool tasks run for this search, and how many
  /// worker-spawned tasks a worker other than the submitter executed
  /// (load actually rebalanced, not just parallelizable).
  uint64_t parallel_tasks = 0;
  uint64_t parallel_steals = 0;

  /// Any work recorded at all (used to tell "stopped before starting"
  /// from "stopped mid-search" in degradation reporting).
  bool Any() const {
    return expand_calls != 0 || check_calls != 0 || assignments_tried != 0;
  }
};

/// Accumulates `delta` into `total` (parallel-worker merges, the
/// summarizability per-bottom sweep).
void AccumulateStats(DimsatStats* total, const DimsatStats& delta);

/// Publishes one finished run's statistics into the global metrics
/// registry under `olapdc.dimsat.*` (docs/observability.md has the
/// inventory) and records the run latency. No-op when metrics are
/// disabled. Called once per RunDimsat()/ResumeDimsat() run — batching
/// the flush here keeps the EXPAND hot loop free of registry traffic.
void FlushDimsatMetrics(const DimsatStats& stats, const Status& status,
                        double elapsed_us);

struct DimsatResult {
  bool satisfiable = false;
  /// A witness (or all frozen dimensions in enumerate_all mode).
  std::vector<FrozenDimension> frozen;
  DimsatStats stats;
  /// OK, or a budget error (kResourceExhausted for the expand-call cap,
  /// kDeadlineExceeded / kCancelled for the wall-clock budget) when the
  /// search stopped early — `satisfiable` is then only a lower bound
  /// and `stats` records the partial work performed. kInvalidArgument
  /// when a category offers EXPAND more than 30 free successor choices
  /// (the subset loop's limit).
  Status status;
};

/// Decides whether `root` is satisfiable in `ds` (Theorem 3 / Figure
/// 6) — the one entry point every layer uses (implication,
/// summarizability, service, CLI). options.num_threads <= 1
/// searches on the calling thread; > 1 runs on the work-stealing pool
/// unless a checkpoint capture is requested, which pins the sequential
/// search. A parallel run is semantically identical to the
/// sequential one: the frozen-dimension *set* is equal (enumeration
/// order may differ, and in decision mode a different — equally valid
/// — witness may be returned). Its shared stop flag propagates the
/// first witness in decision mode and the first budget expiry in every
/// mode, so a cancelled Budget stops all workers promptly.
DimsatResult RunDimsat(const DimensionSchema& ds, CategoryId root,
                       const DimsatOptions& options = {});

/// Convenience: all frozen dimensions of ds with the given root.
DimsatResult EnumerateFrozenDimensions(const DimensionSchema& ds,
                                       CategoryId root,
                                       DimsatOptions options = {});

/// Continues an interrupted search from `checkpoint` (captured by a
/// previous run through DimsatOptions::checkpoint) in the same driver
/// as RunDimsat(). Runs sequentially and monolithically.
/// The result reports only the *fresh* work performed after the
/// interruption — callers accumulate it onto the interrupted run's
/// partial result (AccumulateStats + appending frozen), which then
/// exactly equals an uninterrupted run when the options match. If the
/// resumed run is itself interrupted and options.checkpoint is set, a
/// new checkpoint covering every still-unexplored frame is captured, so
/// resume chains compose. An empty checkpoint returns immediately
/// (the interrupted run had already covered the whole tree); a
/// checkpoint whose root / num_categories disagree with (ds, root), or
/// with a frame edge that is not an edge of ds's hierarchy (a token is
/// client text, and DimsatCheckpoint::Deserialize sees only the
/// schema's category count), yields kInvalidArgument.
DimsatResult ResumeDimsat(const DimensionSchema& ds, CategoryId root,
                          const DimsatOptions& options,
                          DimsatCheckpoint checkpoint);

}  // namespace olapdc

#endif  // OLAPDC_CORE_DIMSAT_H_
