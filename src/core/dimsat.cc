#include "core/dimsat.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "common/fault_injector.h"
#include "common/memory_budget.h"
#include "common/string_util.h"
#include "constraint/normalize.h"
#include "core/check_subhierarchy.h"
#include "core/decompose.h"
#include "core/nogood.h"
#include "exec/admission.h"
#include "exec/work_stealing_pool.h"
#include "obs/metrics.h"
#include "obs/search_tree.h"
#include "obs/span.h"

namespace olapdc {

namespace {
/// Inventory registration for the chaos campaign's site sweep.
[[maybe_unused]] const bool kExpandSite = RegisterFaultSite("dimsat.expand");
[[maybe_unused]] const bool kSubmitSite = RegisterFaultSite("exec.submit");

/// Work-stealing runs: EXPAND nodes at recursion depth below this
/// become stealable pool tasks; at or beyond it the search recurses
/// in place (mutation + rollback). Depth 0 is the root. Small values
/// under-split skewed trees; large ones drown the pool in tiny tasks
/// (DESIGN.md §8 discusses the trade-off).
constexpr int kParallelSplitDepth = 3;
/// Cap on recorded Figure 7 trace events.
constexpr size_t kMaxTraceEvents = 100000;
/// EXPAND walks the subsets of a category's free successor choices as
/// a 32-bit mask, so it accepts at most this many.
constexpr int kMaxFreeChoices = 30;
}  // namespace

void AccumulateStats(DimsatStats* total, const DimsatStats& delta) {
  total->expand_calls += delta.expand_calls;
  total->check_calls += delta.check_calls;
  total->structural_rejections += delta.structural_rejections;
  total->assignments_tried += delta.assignments_tried;
  total->into_prunes += delta.into_prunes;
  total->shortcut_prunes += delta.shortcut_prunes;
  total->cycle_prunes += delta.cycle_prunes;
  total->dead_ends += delta.dead_ends;
  total->nogood_prunes += delta.nogood_prunes;
  total->frozen_found += delta.frozen_found;
  total->parallel_tasks += delta.parallel_tasks;
  total->parallel_steals += delta.parallel_steals;
}

void FlushDimsatMetrics(const DimsatStats& stats, const Status& status,
                        double elapsed_us) {
  if (!obs::MetricsEnabled()) return;
  // Zero deltas still register the name, so the exported inventory is
  // complete even for rules that never fired on this workload.
  obs::Count("olapdc.dimsat.runs");
  obs::Count("olapdc.dimsat.nodes_expanded", stats.expand_calls);
  obs::Count("olapdc.dimsat.check_calls", stats.check_calls);
  obs::Count("olapdc.dimsat.structural_rejections",
             stats.structural_rejections);
  obs::Count("olapdc.dimsat.assignments_tried", stats.assignments_tried);
  obs::Count("olapdc.dimsat.prune.into", stats.into_prunes);
  obs::Count("olapdc.dimsat.prune.shortcut", stats.shortcut_prunes);
  obs::Count("olapdc.dimsat.prune.cycle", stats.cycle_prunes);
  obs::Count("olapdc.dimsat.dead_ends", stats.dead_ends);
  obs::Count("olapdc.dimsat.prune.nogood", stats.nogood_prunes);
  obs::Count("olapdc.dimsat.frozen_found", stats.frozen_found);
  obs::Count("olapdc.dimsat.parallel.tasks", stats.parallel_tasks);
  obs::Count("olapdc.dimsat.parallel.steals", stats.parallel_steals);
  obs::Count("olapdc.dimsat.budget_stops", IsBudgetError(status) ? 1 : 0);
  obs::LatencyUs("olapdc.dimsat.latency_us", elapsed_us);
}

std::string DimsatTraceEvent::ToString(const HierarchySchema& schema) const {
  std::string out;
  switch (kind) {
    case Kind::kExpand: out = "EXPAND "; break;
    case Kind::kCheckFail: out = "CHECK(fail) "; break;
    case Kind::kCheckSuccess: out = "CHECK(ok) "; break;
    case Kind::kPruned: out = "PRUNE "; break;
    case Kind::kDeadEnd: out = "DEADEND "; break;
  }
  out += "g={";
  out += JoinMapped(edges, ", ", [&](const std::pair<int, int>& e) {
    return schema.CategoryName(e.first) + "->" +
           schema.CategoryName(e.second);
  });
  out += "} top={";
  out += JoinMapped(top, ", ",
                    [&](CategoryId c) { return schema.CategoryName(c); });
  out += "}";
  return out;
}

namespace {

/// Sigma(ds, root) with composed/through shorthands expanded into plain
/// path atoms, so the circle operator and the into-detection see the
/// Definition 3 core language.
Result<std::vector<DimensionConstraint>> PrepareRelevantConstraints(
    const DimensionSchema& ds, CategoryId root, size_t path_limit) {
  std::vector<DimensionConstraint> prepared;
  for (const DimensionConstraint* c : ds.RelevantConstraints(root)) {
    OLAPDC_ASSIGN_OR_RETURN(
        ExprPtr expanded,
        ExpandShorthands(ds.hierarchy(), c->expr, path_limit));
    prepared.push_back(DimensionConstraint{c->root, Simplify(expanded),
                                           c->label});
  }
  return prepared;
}

/// Heap-byte estimate of one Subhierarchy over n categories (three
/// n-vectors of n-bit sets plus the top-level sets) — the unit of the
/// memory-budget accounting for search state and parallel task seeds.
/// A governor estimate, not an rlimit (see common/memory_budget.h).
/// Collected models are charged their own size (FrozenDimensionBytes).
uint64_t ApproxSubhierarchyBytes(int num_categories) {
  const uint64_t n = static_cast<uint64_t>(num_categories);
  const uint64_t bitset_bytes = 16 + ((n + 63) / 64) * 8;
  return 3 * n * bitset_bytes + 3 * bitset_bytes + 128;
}

/// The no-good identity of one search (core/nogood.h): the store, the
/// semantic option bits and theory salt mixed into every signature,
/// and the marker of the search key. Learned pruning changes which
/// nodes are visited, so it is incompatible with the exact-trace
/// contract of the Figure 7 harness: a trace-collecting run has no
/// store.
struct NoGoodKey {
  NoGoodKey(const DimsatOptions& options, int num_categories,
            CategoryId root) {
    if (options.nogoods == nullptr || options.collect_trace) return;
    store = options.nogoods;
    bits = (options.prune_shortcuts ? 1u : 0u) |
           (options.prune_cycles ? 2u : 0u) |
           (options.prune_into ? 4u : 0u) |
           (options.require_injective_names ? 8u : 0u);
    salt = options.nogood_salt;
    marker = NoGoodStore::Marker(num_categories, root, bits, salt);
  }

  /// The gate: one lookup, true iff an earlier search with this key
  /// flushed entries — the only entries a probe of this search could
  /// hit.
  bool Seen() const { return store != nullptr && store->Probe(marker); }

  /// Null = learned pruning off.
  NoGoodStore* store = nullptr;
  uint32_t bits = 0;
  uint64_t salt = 0;
  Fingerprint128 marker;
};

/// Emits the EXPAND begin/end pair of one search-tree node into the
/// explain recorder (RAII so every exit path — prune, dead end,
/// budget stop mid-loop — closes the node). A null recorder (explain
/// off, or a checkpoint-replayed node whose entry accounting already
/// happened) records nothing.
class ExplainExpandScope {
 public:
  ExplainExpandScope(obs::SearchTreeRecorder* recorder, int depth,
                     int category, uint64_t expand_calls)
      : recorder_(recorder), depth_(depth), category_(category) {
    if (recorder_ == nullptr) return;
    obs::ExplainEvent event;
    event.kind = obs::ExplainEvent::Kind::kExpandBegin;
    event.depth = depth_;
    event.category = category_;
    event.aux = expand_calls;
    recorder_->Record(event);
  }
  ~ExplainExpandScope() {
    if (recorder_ == nullptr) return;
    obs::ExplainEvent event;
    event.kind = obs::ExplainEvent::Kind::kExpandEnd;
    event.depth = depth_;
    event.category = category_;
    recorder_->Record(event);
  }
  ExplainExpandScope(const ExplainExpandScope&) = delete;
  ExplainExpandScope& operator=(const ExplainExpandScope&) = delete;

 private:
  obs::SearchTreeRecorder* const recorder_;
  const int depth_;
  const int category_;
};

class DimsatSearch {
 public:
  /// `relevant` is borrowed: the caller keeps it alive for the lifetime
  /// of the search (parallel tasks share one prepared vector).
  /// `frozen_charge` is the run's holder of model charges: the models a
  /// search collects outlive it (merged by a work-stealing run,
  /// composed by a decomposed one), so they stay charged until the
  /// run returns. Not owned.
  DimsatSearch(const DimensionSchema& ds, CategoryId root,
               const DimsatOptions& options,
               const std::vector<DimensionConstraint>& relevant,
               MemoryReservation* frozen_charge)
      : ds_(ds),
        schema_(ds.hierarchy()),
        root_(root),
        options_(options),
        relevant_(relevant),
        budget_checker_(options.budget, options.budget_check_stride,
                        "dimsat.expand"),
        checkpoint_(options.checkpoint),
        mem_(options.budget != nullptr ? options.budget->memory() : nullptr),
        frozen_charge_(frozen_charge),
        g_(schema_.num_categories(), root),
        nogood_(options, schema_.num_categories(), root) {
    check_options_.assignment.require_injective =
        options.require_injective_names;
    check_options_.assignment.enumerate_all = options.enumerate_all;
    check_options_.assignment.max_results = options.max_frozen;
    const uint64_t n = static_cast<uint64_t>(schema_.num_categories());
    const uint64_t bitset_bytes = 16 + ((n + 63) / 64) * 8;
    subhierarchy_bytes_ = ApproxSubhierarchyBytes(schema_.num_categories());
    // One undo frame journals the expanded category's Below snapshots —
    // a handful of bitsets in the common case.
    frame_bytes_ = 4 * bitset_bytes + 96;
    // The explain gate is cached once per search (like the metrics
    // enabled bit) so the disabled hot path pays one pointer test.
    if (obs::SearchTreeRecorder::Global().enabled()) {
      recorder_ = &obs::SearchTreeRecorder::Global();
    }
    if (nogood_.store != nullptr) learn_cap_ = nogood_.store->capacity();
  }

  DimsatResult Run() {
    return RunFrom(Subhierarchy(schema_.num_categories(), root_), 0);
  }

  /// Continues the search from a partially built subhierarchy at the
  /// given recursion depth (work-stealing tasks start this way).
  DimsatResult RunFrom(Subhierarchy seed, int depth) {
    g_ = std::move(seed);
    Status base = mem_.Reserve(subhierarchy_bytes_, "dimsat.search");
    if (!base.ok()) {
      // Too exhausted even for the working set: the whole subtree is
      // captured unprocessed and nothing is counted.
      result_.status = std::move(base);
      MaybeCapture(depth, 0);
    } else {
      DecideGate();
      // The starting node has no parent in this search to learn it.
      if (Expand(depth)) LearnCurrent();
    }
    Finish();
    return std::move(result_);
  }

  /// Replays an interrupted run's frontier, deepest frame first (the
  /// original depth-first order). Reports only fresh work; if this run
  /// is interrupted too, the not-yet-replayed frames carry over into
  /// the new checkpoint after whatever Expand() itself captured —
  /// which preserves deepest-first order, since Expand's captures all
  /// lie inside the currently replayed (deepest remaining) frame.
  DimsatResult RunResume(DimsatCheckpoint&& from) {
    Status base = mem_.Reserve(subhierarchy_bytes_, "dimsat.search");
    if (!base.ok()) {
      result_.status = std::move(base);
      AppendRemaining(&from, 0);
      Finish();
      return std::move(result_);
    }
    DecideGate();
    for (size_t i = 0; i < from.frames.size(); ++i) {
      if (!ShouldContinue()) {
        if (IsBudgetError(result_.status)) AppendRemaining(&from, i);
        break;
      }
      DimsatCheckpointFrame& frame = from.frames[i];
      g_ = std::move(frame.g);
      // Only a fresh frame (next_mask 0) can complete barren; it starts
      // a subtree of its own, so it learns itself.
      if (Expand(frame.depth, frame.next_mask)) LearnCurrent();
    }
    Finish();
    return std::move(result_);
  }

  /// Shared early-stop flag for parallel runs: once any worker decides
  /// the global answer, the others abandon their subtrees.
  void set_external_stop(std::atomic<bool>* stop) { external_stop_ = stop; }

  /// Work-stealing hook: while the recursion depth is below
  /// kParallelSplitDepth, child subhierarchies are handed to `spawner`
  /// (becoming stealable tasks) instead of being expanded in-place.
  void set_spawner(std::function<void(Subhierarchy&&, int)> spawner) {
    spawner_ = std::move(spawner);
  }

  /// Run-wide EXPAND counter that options.max_expand_calls caps,
  /// shared by every search of the run (the monolithic search, each
  /// work-stealing task, each component). Null (the default, and every
  /// uncapped run) leaves the search uncapped. Not owned.
  void set_expand_counter(std::atomic<uint64_t>* counter) {
    expand_counter_ = counter;
  }

  /// Restricts successor choices to a category universe — the
  /// component searches of a decomposed run (core/decompose.h) pass
  /// their component's categories plus root and All. Null (the
  /// default) leaves the search unrestricted. Not owned; must outlive
  /// the search.
  void set_universe(const DynamicBitset* universe) { universe_ = universe; }

  /// Most-constrained-first branching (options.branch_heuristic):
  /// EXPAND picks the pending category with the smallest rank instead
  /// of the smallest id. Not owned; must outlive the search.
  void set_branch_rank(const std::vector<int>* rank) { branch_rank_ = rank; }

  /// Tags every captured checkpoint frame with a component id
  /// (decomposed runs); -1 (the default) marks monolithic frames.
  void set_component(int component) { component_ = component; }

  /// Fixes the no-good probe gate instead of looking the search key's
  /// marker up at start: work-stealing tasks share their run's key, so
  /// the run looks it up once for all of them.
  void set_nogood_gate(bool open) {
    probe_ = open;
    gate_fixed_ = true;
  }

 private:
  /// One store lookup per search: only an earlier search with the same
  /// key can have learned an entry this search's probes could hit, so
  /// without its marker the search neither signs nor probes a node.
  void DecideGate() {
    if (!gate_fixed_) probe_ = nogood_.Seen();
  }

  /// Buffers g_'s signature for the end-of-search flush, up to what the
  /// store could retain.
  void LearnCurrent() {
    if (learned_.size() >= learn_cap_) return;
    learned_.push_back(NoGoodStore::Signature(g_, nogood_.bits, nogood_.salt));
  }

  /// R = Into ∪ {free[i] : bit i of mask}: one subset-loop child.
  static DynamicBitset ChildChoice(
      const DynamicBitset& into,
      const std::array<CategoryId, kMaxFreeChoices>& free, int num_free,
      uint32_t mask) {
    DynamicBitset r = into;
    for (int i = 0; i < num_free; ++i) {
      if (mask & (uint32_t{1} << i)) r.set(free[i]);
    }
    return r;
  }

  /// Learns the barren children of the node at g_ whose masks sit on
  /// the frontier stack above `base`, and pops them. Called when the
  /// node itself did not complete barren, which makes them maximal:
  /// each is re-applied, signed, and rolled back.
  void LearnBarrenChildren(CategoryId ctop, const DynamicBitset& into,
                           const std::array<CategoryId, kMaxFreeChoices>& free,
                           int num_free, size_t base) {
    for (size_t i = base; i < barren_masks_.size(); ++i) {
      g_.ExpandLogged(ctop, ChildChoice(into, free, num_free, barren_masks_[i]),
                      &undo_);
      LearnCurrent();
      g_.Rollback(&undo_);
    }
    barren_masks_.resize(base);
  }

  void Trace(DimsatTraceEvent::Kind kind, const Subhierarchy& g) {
    if (!options_.collect_trace ||
        result_.trace.size() >= kMaxTraceEvents) {
      return;
    }
    // Under a memory budget the trace degrades by silent truncation —
    // the same contract as the kMaxTraceEvents cap — rather than tripping
    // the whole search over an advisory artifact.
    MemoryBudget* mb = mem_.budget();
    if (mb != nullptr) {
      const uint64_t est =
          96 + 16 * (static_cast<uint64_t>(g.num_edges()) + g.top().count());
      if (mb->limit() > 0 && mb->reserved() + est > mb->limit()) return;
      if (!mem_.Reserve(est, "dimsat.trace").ok()) return;
    }
    DimsatTraceEvent event;
    event.kind = kind;
    event.edges = g.Edges();
    g.top().ForEach([&](int c) { event.top.push_back(c); });
    result_.trace.push_back(std::move(event));
  }

  /// Reserves undo-log headroom up to recursion level `depth` (a
  /// high-water charge: backtracking reuses frame storage, so the
  /// estimate only ever grows). Charged at EXPAND entry — before the
  /// node does anything — so a trip captures the node whole.
  Status ChargeDepth(int depth) {
    if (mem_.budget() == nullptr) return Status::OK();
    const uint64_t target = static_cast<uint64_t>(depth) + 1;
    if (target <= undo_charged_depth_) return Status::OK();
    OLAPDC_RETURN_NOT_OK(mem_.Reserve(
        (target - undo_charged_depth_) * frame_bytes_, "dimsat.undo"));
    undo_charged_depth_ = target;
    return Status::OK();
  }

  void Finish() {
    result_.satisfiable = !result_.frozen.empty();
    result_.stats.frozen_found = result_.frozen.size();
    // One batch per search, on every exit path.
    if (nogood_.store != nullptr) {
      nogood_.store->Learn(nogood_.marker, learned_);
    }
  }

  /// Captures the current node as a checkpoint frame iff a checkpoint
  /// sink is attached and the search stopped on a budget error (the
  /// only stops a resume can continue from). `next_mask` is the first
  /// unprocessed successor subset; 0 means the node is redone in full.
  void MaybeCapture(int depth, uint32_t next_mask) {
    if (checkpoint_ == nullptr || !IsBudgetError(result_.status)) return;
    checkpoint_->root = root_;
    checkpoint_->num_categories = schema_.num_categories();
    checkpoint_->frames.push_back(
        DimsatCheckpointFrame{g_, next_mask, depth, component_});
  }

  /// Hands frames[start..] of an interrupted resume back to the new
  /// checkpoint (they were never replayed).
  void AppendRemaining(DimsatCheckpoint* from, size_t start) {
    if (checkpoint_ == nullptr) return;
    checkpoint_->root = root_;
    checkpoint_->num_categories = schema_.num_categories();
    for (size_t j = start; j < from->frames.size(); ++j) {
      checkpoint_->frames.push_back(std::move(from->frames[j]));
    }
  }

  /// True while the search should continue; false aborts every open
  /// recursion (first witness found, budget hit, or cap reached).
  bool ShouldContinue() const {
    if (external_stop_ != nullptr &&
        external_stop_->load(std::memory_order_relaxed)) {
      return false;
    }
    if (!result_.status.ok()) return false;
    if (result_.frozen.empty()) return true;
    if (!options_.enumerate_all) return false;
    return result_.frozen.size() < options_.max_frozen;
  }

  /// Records one explain decision (no-op when --explain is off).
  void RecordExplain(obs::ExplainEvent::Kind kind, int depth,
                     int category = -1, int edge_from = -1, int edge_to = -1,
                     uint64_t aux = 0) {
    if (recorder_ == nullptr) return;
    obs::ExplainEvent event;
    event.kind = kind;
    event.depth = depth;
    event.category = category;
    event.edge_from = edge_from;
    event.edge_to = edge_to;
    event.aux = aux;
    recorder_->Record(event);
  }

  /// Returns false when the memory budget could not cover the CHECK's
  /// outcome: result_.status is set and *nothing* is recorded — no
  /// stats, no frozen — so the resumed run redoes the node wholesale
  /// and the combined counts stay exact (in particular, no frozen
  /// dimension is ever emitted twice across an interrupt/resume pair).
  bool RunCheck(const Subhierarchy& g, int depth) {
    CheckOutcome outcome = CheckSubhierarchy(relevant_, g, check_options_);
    if (!outcome.frozen.empty() && frozen_charge_->budget() != nullptr) {
      Status reserve = frozen_charge_->Reserve(
          FrozenDimensionBytes(outcome.frozen), "dimsat.frozen");
      if (!reserve.ok()) {
        result_.status = std::move(reserve);
        return false;
      }
    }
    ++result_.stats.check_calls;
    result_.stats.assignments_tried += outcome.assignments_tried;
    if (outcome.structurally_rejected) {
      ++result_.stats.structural_rejections;
    }
    if (outcome.frozen.empty()) {
      Trace(DimsatTraceEvent::Kind::kCheckFail, g);
      RecordExplain(obs::ExplainEvent::Kind::kCheckFail, depth);
      return true;
    }
    Trace(DimsatTraceEvent::Kind::kCheckSuccess, g);
    RecordExplain(obs::ExplainEvent::Kind::kCheckOk, depth, -1, -1, -1,
                  outcome.frozen.size());
    for (FrozenDimension& f : outcome.frozen) {
      if (result_.frozen.size() >= options_.max_frozen) break;
      result_.frozen.push_back(std::move(f));
    }
    return true;
  }

  /// The EXPAND procedure (Figure 6), with the subset loop corrected to
  /// admit R = Into (DESIGN.md deviation 2). Backtracking is mutation +
  /// rollback on the member subhierarchy (the undo log journals each
  /// expansion), so the hot path allocates nothing: the working sets
  /// are small-buffer bitsets and a stack array. Below the split depth
  /// (work-stealing runs only) children are copied out and spawned as
  /// pool tasks instead of recursed into.
  ///
  /// `start_mask` > 0 replays a checkpointed node from its first
  /// unprocessed successor subset. Such a node is *not fresh*: its
  /// entry-side accounting (the expand_calls increment, the trace
  /// event, the prune counters of the deterministic successor scan)
  /// already happened in the interrupted run, so the replay recomputes
  /// the derived state silently — that is what keeps interrupted +
  /// resumed statistics exactly equal to an uninterrupted run's.
  ///
  /// Returns true iff this fresh node of a search with a store
  /// completed barren under the recording guards: subtree explored
  /// inline, OK status, no external stop, no frozen dimension below,
  /// inside max_frozen. The caller decides who learns it
  /// (core/nogood.h): a parent that completes barren too subsumes it,
  /// any other parent learns it, and a search's starting node learns
  /// itself. A node skipped on a store hit returns false: its entry
  /// exists already.
  bool Expand(int depth, uint32_t start_mask = 0) {
    const bool fresh = (start_mask == 0);
    if (!ShouldContinue()) return false;
    // Wall-clock / cancellation / memory probe, amortized by the
    // checker so the common case is one branch per EXPAND.
    Status budget = budget_checker_.Check();
    if (budget.ok()) {
      budget = FaultInjector::Global().MaybeFail("dimsat.expand");
    }
    if (budget.ok()) {
      budget = ChargeDepth(depth);
    }
    if (!budget.ok()) {
      result_.status = std::move(budget);
      RecordExplain(obs::ExplainEvent::Kind::kBudgetStop, depth, -1, -1, -1,
                    result_.stats.expand_calls);
      MaybeCapture(depth, start_mask);
      return false;
    }
    // Learned pruning (core/nogood.h): a node whose signature is a
    // recorded barren subtree is skipped before it is even counted —
    // the warm path of a repeat search does O(signature) work per
    // skipped subtree instead of re-exploring it. Only a search whose
    // gate is open signs and probes; replayed checkpoint nodes
    // (fresh == false) keep their stats contract untouched.
    if (fresh && probe_ &&
        nogood_.store->Probe(
            NoGoodStore::Signature(g_, nogood_.bits, nogood_.salt))) {
      ++result_.stats.nogood_prunes;
      return false;
    }
    // Only a fresh node of a search with a store joins the frontier.
    const bool learnable = fresh && nogood_.store != nullptr;
    if (fresh) {
      if (expand_counter_ != nullptr &&
          expand_counter_->fetch_add(1, std::memory_order_relaxed) >=
              options_.max_expand_calls) {
        // The node stays uncounted: it is captured unprocessed
        // (next_mask 0), so the resumed run counts it when it actually
        // expands it.
        result_.status = Status::ResourceExhausted(
            "DIMSAT exceeded max_expand_calls");
        RecordExplain(obs::ExplainEvent::Kind::kBudgetStop, depth, -1, -1, -1,
                      result_.stats.expand_calls);
        MaybeCapture(depth, 0);
        return false;
      }
      ++result_.stats.expand_calls;
      Trace(DimsatTraceEvent::Kind::kExpand, g_);
    }

    // Line (6): g complete once only All awaits expansion.
    DynamicBitset pending = g_.top();
    pending.reset(schema_.all());
    if (pending.none()) {
      const size_t frozen_before = result_.frozen.size();
      if (!RunCheck(g_, depth)) {
        // The CHECK could not afford its outcome: uncount the node and
        // capture it whole so the resume redoes it (frozen dimensions
        // are emitted exactly once across the interrupt/resume pair).
        if (fresh) --result_.stats.expand_calls;
        MaybeCapture(depth, 0);
        return false;
      }
      // A completed subhierarchy that induces no frozen dimension is
      // the leaf form of a barren subtree. The max_frozen guard keeps
      // a capped enumerate run from learning a leaf whose dimensions
      // were merely dropped at the cap.
      return learnable && result_.frozen.size() == frozen_before &&
             result_.frozen.size() < options_.max_frozen;
    }

    // Line (10): pick a pending top category — lowest id by default,
    // lowest branch rank under the most-constrained-first heuristic.
    // Both are deterministic, so checkpoint replays recompute the
    // interrupted run's exact choice.
    CategoryId ctop = pending.First();
    if (branch_rank_ != nullptr) {
      int best = (*branch_rank_)[ctop];
      pending.ForEach([&](int c) {
        if ((*branch_rank_)[c] < best) {
          best = (*branch_rank_)[c];
          ctop = c;
        }
      });
    }
    const DynamicBitset& below = g_.Below(ctop);

    // Explain: bracket this node (fresh only — a checkpoint replay's
    // entry was already recorded by the interrupted run, matching the
    // stats contract above).
    ExplainExpandScope explain_scope(fresh ? recorder_ : nullptr, depth, ctop,
                                     result_.stats.expand_calls);

    // Lines (11)-(13): successor choices that are structurally allowed.
    DynamicBitset allowed(schema_.num_categories());
    DynamicBitset into(schema_.num_categories());
    for (CategoryId c : schema_.graph().OutNeighbors(ctop)) {
      // Component searches never leave their universe; filtered
      // successors belong to sibling components and are someone
      // else's search (they are not counted as prunes).
      if (universe_ != nullptr && !universe_->test(c)) continue;
      bool blocked = false;
      // Ss: an existing edge from below ctop into c would become a
      // shortcut once ctop -> c completes the longer path.
      if (options_.prune_shortcuts && g_.In(c).Intersects(below)) {
        blocked = true;
        if (fresh) {
          ++result_.stats.shortcut_prunes;
          RecordExplain(obs::ExplainEvent::Kind::kPruneShortcut, depth, ctop,
                        ctop, c);
        }
      }
      // Sc: c already reaches ctop; the edge would close a cycle.
      if (options_.prune_cycles && below.test(c)) {
        blocked = true;
        if (fresh) {
          ++result_.stats.cycle_prunes;
          RecordExplain(obs::ExplainEvent::Kind::kPruneCycle, depth, ctop,
                        ctop, c);
        }
      }
      if (!blocked) allowed.set(c);
      if (ds_.IntoTargets(ctop).test(c)) into.set(c);
    }

    if (options_.prune_into) {
      // Line (15): a blocked into-target dooms every choice at ctop.
      // AndNotAny is the fused kernel — no temporary bitset.
      if (into.AndNotAny(allowed)) {
        if (fresh) {
          ++result_.stats.into_prunes;
          Trace(DimsatTraceEvent::Kind::kPruned, g_);
          if (recorder_ != nullptr) {
            // Name every blocked into-target: each is an edge the
            // constraint forces but a structural rule forbids.
            (into - allowed).ForEach([&](int c) {
              RecordExplain(obs::ExplainEvent::Kind::kPruneInto, depth, ctop,
                            ctop, c);
            });
          }
        }
        // An into-pruned node yields nothing under these options, in
        // this run or any future one: a no-good by construction.
        return learnable;
      }
    } else {
      into.clear();
    }

    if (allowed.none()) {
      if (fresh) {
        ++result_.stats.dead_ends;
        Trace(DimsatTraceEvent::Kind::kDeadEnd, g_);
        RecordExplain(obs::ExplainEvent::Kind::kDeadEnd, depth, ctop);
      }
      return learnable;
    }

    // Line (16), corrected: iterate S' over all subsets of the free
    // choices (including the empty set) and recurse on R = S' ∪ Into
    // whenever R is non-empty.
    const DynamicBitset choices = allowed - into;
    const int num_free = choices.count();
    if (num_free > kMaxFreeChoices) {
      result_.status = Status::InvalidArgument(
          "category " + schema_.CategoryName(ctop) + " has " +
          std::to_string(num_free) +
          " free successor choices; DIMSAT supports at most " +
          std::to_string(kMaxFreeChoices));
      return false;
    }
    std::array<CategoryId, kMaxFreeChoices> free;
    int next_free = 0;
    choices.ForEach([&](int c) { free[next_free++] = c; });
    const bool split = spawner_ && depth < kParallelSplitDepth;
    const uint32_t subsets = uint32_t{1} << num_free;
    const size_t frozen_before_children = result_.frozen.size();
    // Masks of this node's barren children sit above this mark on the
    // frontier stack until the node knows whether it is barren too.
    const size_t frontier_base = barren_masks_.size();
    for (uint32_t mask = start_mask; mask < subsets; ++mask) {
      if (!ShouldContinue()) {
        // A budget stop mid-loop captures this node's continuation
        // (subsets [mask, end)); any deeper frame was captured by the
        // child before unwinding, keeping frames deepest-first. On
        // non-budget stops (witness found) MaybeCapture is a no-op.
        MaybeCapture(depth, mask);
        LearnBarrenChildren(ctop, into, free, num_free, frontier_base);
        return false;
      }
      const DynamicBitset r = ChildChoice(into, free, num_free, mask);
      if (r.none()) continue;
      if (split) {
        Subhierarchy child = g_;
        child.Expand(ctop, r);
        spawner_(std::move(child), depth + 1);
      } else {
        g_.ExpandLogged(ctop, r, &undo_);
        const bool barren_child = Expand(depth + 1);
        g_.Rollback(&undo_);
        if (barren_child && barren_masks_.size() < learn_cap_) {
          barren_masks_.push_back(mask);
        }
      }
    }
    // Interior no-good: the subset loop ran to completion *inline*
    // (no outstanding spawned children), cleanly (no budget stop, no
    // external stop), and no descendant produced a frozen dimension —
    // the subtree below this exact subhierarchy is barren and will be
    // barren in every future run with the same option bits. The
    // max_frozen guard mirrors the leaf case above. Such a node
    // subsumes its barren children: a rerun probes it first.
    if (learnable && !split && result_.status.ok() &&
        (external_stop_ == nullptr ||
         !external_stop_->load(std::memory_order_relaxed)) &&
        result_.frozen.size() == frozen_before_children &&
        result_.frozen.size() < options_.max_frozen) {
      barren_masks_.resize(frontier_base);
      return true;
    }
    LearnBarrenChildren(ctop, into, free, num_free, frontier_base);
    return false;
  }

  const DimensionSchema& ds_;
  const HierarchySchema& schema_;
  const CategoryId root_;
  const DimsatOptions& options_;
  const std::vector<DimensionConstraint>& relevant_;
  CheckOptions check_options_;
  BudgetChecker budget_checker_;
  /// Checkpoint sink (null = no capture); sequential runs only.
  DimsatCheckpoint* checkpoint_;
  /// Memory-budget accounting of this search's working state; every
  /// byte is returned when the search dies, on every exit path.
  MemoryReservation mem_;
  /// The run's charge for collected models (see the constructor).
  MemoryReservation* const frozen_charge_;
  uint64_t undo_charged_depth_ = 0;
  uint64_t subhierarchy_bytes_ = 0;
  uint64_t frame_bytes_ = 0;
  Subhierarchy g_;
  SubhierarchyUndoLog undo_;
  /// Explain recorder, cached at construction (null = --explain off).
  obs::SearchTreeRecorder* recorder_ = nullptr;
  /// Learned pruning (store null = off; forced off under
  /// collect_trace).
  const NoGoodKey nogood_;
  /// Whether this search signs and probes its nodes (DecideGate).
  bool probe_ = false;
  bool gate_fixed_ = false;
  /// Subset masks of barren children awaiting their parent's verdict,
  /// and the signatures learned so far (flushed by Finish). Both hold
  /// at most learn_cap_ entries, what the store could retain.
  std::vector<uint32_t> barren_masks_;
  std::vector<Fingerprint128> learned_;
  uint64_t learn_cap_ = 0;
  DimsatResult result_;
  std::atomic<bool>* external_stop_ = nullptr;
  std::atomic<uint64_t>* expand_counter_ = nullptr;
  std::function<void(Subhierarchy&&, int)> spawner_;
  /// Category universe restriction (decomposed component searches).
  const DynamicBitset* universe_ = nullptr;
  /// Branching rank (options.branch_heuristic); null = id order.
  const std::vector<int>* branch_rank_ = nullptr;
  /// Component tag for captured checkpoint frames (-1 = monolithic).
  int component_ = -1;
};

/// Most-constrained-first branching rank: a static permutation of the
/// categories ordered by (free successor choices ascending, forced
/// into-target count descending, out-degree ascending, id ascending).
/// Free choices = out-degree minus forced into-targets — the branching
/// factor EXPAND actually faces at the category; expanding the
/// tightest category first shrinks the subset loop fan-out near the
/// top of the tree. A pure function of the schema, so checkpoint
/// resumes and parallel workers recompute it identically.
std::vector<int> ComputeBranchRank(const DimensionSchema& ds) {
  const HierarchySchema& schema = ds.hierarchy();
  const int n = schema.num_categories();
  std::vector<int> outdeg(n, 0), forced(n, 0);
  for (int c = 0; c < n; ++c) {
    for (CategoryId t : schema.graph().OutNeighbors(c)) {
      ++outdeg[c];
      if (ds.IntoTargets(c).test(t)) ++forced[c];
    }
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int fa = outdeg[a] - forced[a];
    const int fb = outdeg[b] - forced[b];
    if (fa != fb) return fa < fb;
    if (forced[a] != forced[b]) return forced[a] > forced[b];
    if (outdeg[a] != outdeg[b]) return outdeg[a] < outdeg[b];
    return a < b;
  });
  std::vector<int> rank(n);
  for (int i = 0; i < n; ++i) rank[order[i]] = i;
  return rank;
}

/// Cross-product composition of the per-component model sets
/// (enumerate mode): every combination picking one model per
/// component — or "absent" for components whose constraints allow it —
/// yields one frozen dimension, except the all-absent combination
/// (the root must expand somewhere). Composition is budgeted like the
/// searches: each composed model is charged its size against the run's
/// model charge, and the deadline and cancellation are probed at the
/// search's stride. A non-OK return is the budget error that stopped it
/// (out->truncated at that point).
Status ComposeFrozen(const ComponentSplit& split,
                     const std::vector<std::vector<FrozenDimension>>& models,
                     const DimsatOptions& options,
                     MemoryReservation* frozen_charge,
                     std::vector<FrozenDimension>* out) {
  BudgetChecker budget_checker(options.budget, options.budget_check_stride,
                               "dimsat.compose");
  const int w = static_cast<int>(split.num_components());
  // A component that must be present but has no model kills every
  // combination.
  for (int k = 0; k < w; ++k) {
    if (!split.absent_valid[k] && models[k].empty()) return Status::OK();
  }
  // Mixed-base odometer: digit -1 = absent (absent-valid components
  // only), 0..m-1 = that model. Starts at the lowest combination.
  std::vector<int> choice(w);
  for (int k = 0; k < w; ++k) choice[k] = split.absent_valid[k] ? -1 : 0;
  while (true) {
    int first_present = -1;
    for (int k = 0; k < w; ++k) {
      if (choice[k] >= 0) {
        first_present = k;
        break;
      }
    }
    if (first_present >= 0) {  // skip the all-absent combination
      if (out->size() >= options.max_frozen) return Status::OK();
      OLAPDC_RETURN_NOT_OK(budget_checker.Check());
      FrozenDimension fd = models[first_present][choice[first_present]];
      for (int k = first_present + 1; k < w; ++k) {
        if (choice[k] >= 0) MergeDisjointInto(models[k][choice[k]], &fd);
      }
      if (frozen_charge->budget() != nullptr) {
        OLAPDC_RETURN_NOT_OK(frozen_charge->Reserve(FrozenDimensionBytes(fd),
                                                    "dimsat.frozen"));
      }
      out->push_back(std::move(fd));
    }
    int k = 0;
    for (; k < w; ++k) {
      if (++choice[k] < static_cast<int>(models[k].size())) break;
      choice[k] = split.absent_valid[k] ? -1 : 0;
    }
    if (k == w) return Status::OK();
  }
}

/// Wall-clock sampled only when someone is listening (metrics or a
/// trace sink); otherwise the run pays one branch.
class ObservedRun {
 public:
  ObservedRun() : observed_(obs::MetricsEnabled() ||
                            obs::TraceSink::Global().enabled()) {
    if (observed_) start_ = std::chrono::steady_clock::now();
  }
  double ElapsedUs() const {
    if (!observed_) return 0;
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  bool observed() const { return observed_; }

 private:
  bool observed_;
  std::chrono::steady_clock::time_point start_;
};

/// Attaches the per-run search statistics to a trace span.
void AnnotateSpan(obs::ObsSpan& span, const HierarchySchema& schema,
                  CategoryId root, const DimsatResult& result) {
  if (!span.active()) return;
  span.AddStat("root", schema.CategoryName(root));
  span.AddStat("satisfiable", result.satisfiable);
  span.AddStat("expand_calls", result.stats.expand_calls);
  span.AddStat("check_calls", result.stats.check_calls);
  span.AddStat("prune_into", result.stats.into_prunes);
  span.AddStat("prune_shortcut", result.stats.shortcut_prunes);
  span.AddStat("prune_cycle", result.stats.cycle_prunes);
  span.AddStat("dead_ends", result.stats.dead_ends);
  span.AddStat("frozen_found", result.stats.frozen_found);
  if (!result.status.ok()) {
    span.AddStat("status", StatusCodeToString(result.status.code()));
  }
}

/// Runs the tasks of one DIMSAT run: inline on the calling thread, in
/// submission order, when there is no pool; otherwise as stealable
/// tasks of one TaskGroup. Pool tasks are counted for
/// DimsatStats::parallel_tasks / parallel_steals.
class Spawner {
 public:
  Spawner(exec::WorkStealingPool* pool, MemoryBudget* mem) : mem_(mem) {
    if (pool != nullptr) group_.emplace(pool);
  }

  /// Runs or queues `task`. While queued, its captured state
  /// (`queued_bytes`) is charged against the request's memory budget.
  void Spawn(std::function<void()> task, uint64_t queued_bytes) {
    if (!group_.has_value()) {
      task();
      return;
    }
    tasks.fetch_add(1, std::memory_order_relaxed);
    // Chaos site: a failed submission degrades to inline execution on
    // the calling thread — slower, never lost (degraded-but-correct).
    if (!FaultInjector::Global().MaybeFail("exec.submit").ok()) {
      task();
      return;
    }
    bool charged = false;
    if (mem_ != nullptr && queued_bytes > 0) {
      charged = mem_->Reserve(queued_bytes, "dimsat.seed").ok();
      if (!charged) {
        // Exhausted: skip the queued copy and run inline; the search
        // trips on its first budget probe and degrades with partial
        // stats instead of piling more work into a full request.
        task();
        return;
      }
    }
    // A steal only makes sense for tasks a worker spawned; the run's
    // first tasks come from outside the pool.
    const bool from_worker = exec::WorkStealingPool::CurrentWorkerId() >= 0;
    group_->Spawn([this, task = std::move(task), queued_bytes, charged,
                   from_worker] {
      if (charged) mem_->Release(queued_bytes);
      if (from_worker && exec::WorkStealingPool::CurrentTaskStolen()) {
        steals.fetch_add(1, std::memory_order_relaxed);
      }
      task();
    });
  }

  void Wait() {
    if (group_.has_value()) group_->Wait();
  }

  std::atomic<uint64_t> tasks{0};
  std::atomic<uint64_t> steals{0};

 private:
  MemoryBudget* const mem_;
  std::optional<exec::TaskGroup> group_;
};

/// What every search of one run shares. Borrowed; outlives the run.
struct RunContext {
  const DimensionSchema& ds;
  const CategoryId root;
  const DimsatOptions& options;
  const std::vector<DimensionConstraint>& relevant;
  /// Most-constrained-first rank (options.branch_heuristic); null =
  /// id order.
  const std::vector<int>* const branch_rank;
  /// Run-wide EXPAND count when options.max_expand_calls is set; null
  /// for uncapped runs, which then pay nothing for the cap.
  std::atomic<uint64_t>* const expand_counter;
  Spawner& spawner;
  /// Every model the run collects — per search, per component, and
  /// composed — is charged here until the run returns, at every
  /// thread count.
  MemoryReservation& frozen_charge;
};

/// The monolithic work-stealing search: the root is one pool task, and
/// EXPAND nodes above kParallelSplitDepth spawn their children as
/// further tasks. Lives on the caller's stack; the spawner drains
/// before it dies.
struct WorkStealingRun {
  WorkStealingRun(const RunContext& run, uint64_t seed_bytes)
      : run(run), seed_bytes(seed_bytes) {}

  const RunContext& run;
  /// Queued task seeds are charged against the request's memory budget
  /// while they sit in the pool.
  const uint64_t seed_bytes;
  /// Every task shares the run's search key, so the run decides the
  /// no-good gate once for all of them.
  bool probe_nogoods = false;
  std::atomic<bool> stop{false};
  std::mutex mu;
  DimsatResult merged;  // frozen/stats/status guarded by mu
};

void RunSubtreeTask(WorkStealingRun* ws, Subhierarchy seed, int depth);

void SpawnSubtree(WorkStealingRun* ws, Subhierarchy&& child, int depth) {
  ws->run.spawner.Spawn(
      [ws, seed = std::move(child), depth]() mutable {
        RunSubtreeTask(ws, std::move(seed), depth);
      },
      ws->seed_bytes);
}

void RunSubtreeTask(WorkStealingRun* ws, Subhierarchy seed, int depth) {
  if (ws->stop.load(std::memory_order_acquire)) return;
  const RunContext& run = ws->run;
  DimsatSearch search(run.ds, run.root, run.options, run.relevant,
                      &run.frozen_charge);
  search.set_branch_rank(run.branch_rank);
  search.set_expand_counter(run.expand_counter);
  search.set_external_stop(&ws->stop);
  search.set_nogood_gate(ws->probe_nogoods);
  search.set_spawner([ws](Subhierarchy&& child, int child_depth) {
    SpawnSubtree(ws, std::move(child), child_depth);
  });
  DimsatResult partial = search.RunFrom(std::move(seed), depth);

  const DimsatOptions& options = run.options;
  std::lock_guard<std::mutex> lock(ws->mu);
  AccumulateStats(&ws->merged.stats, partial.stats);
  if (!partial.status.ok()) {
    // First budget expiry / cap overrun wins and stops every worker —
    // this is what bounds wall-clock after a Cancel().
    if (ws->merged.status.ok()) ws->merged.status = partial.status;
    ws->stop.store(true, std::memory_order_release);
  }
  // Decision mode reports one witness, as the sequential search does,
  // however many workers found one before the stop reached them.
  const size_t keep = options.enumerate_all ? options.max_frozen : 1;
  for (FrozenDimension& f : partial.frozen) {
    if (ws->merged.frozen.size() >= keep) break;
    ws->merged.frozen.push_back(std::move(f));
  }
  if (!ws->merged.frozen.empty() && !options.enumerate_all) {
    ws->stop.store(true, std::memory_order_release);
  }
  if (ws->merged.frozen.size() >= options.max_frozen) {
    ws->stop.store(true, std::memory_order_release);
  }
}

DimsatResult RunWorkStealing(const RunContext& run) {
  const int n = run.ds.hierarchy().num_categories();
  WorkStealingRun ws(run, ApproxSubhierarchyBytes(n));
  ws.probe_nogoods = NoGoodKey(run.options, n, run.root).Seen();
  SpawnSubtree(&ws, Subhierarchy(n, run.root), 0);
  run.spawner.Wait();

  DimsatResult merged = std::move(ws.merged);
  // A budget error from a worker that was merely told to stop early is
  // not an error of the whole run.
  if (ws.stop.load() && !run.options.enumerate_all &&
      !merged.frozen.empty()) {
    merged.status = Status::OK();
  }
  merged.satisfiable = !merged.frozen.empty();
  merged.stats.frozen_found = merged.frozen.size();
  return merged;
}

/// The decomposed driver: one restricted-universe DimsatSearch per
/// component, spawned through run.spawner — inline in component order
/// when sequential, one pool task per component when parallel (the
/// component is then the steal granularity: components are
/// independent, so no merge lock and no subtree respawning) — and the
/// composition step on the caller's thread. Handles fresh runs and
/// checkpoint resumes (`resume_from`). On a budget stop it captures a
/// v2 checkpoint — frames of the interrupted component, models
/// collected so far, and seed frames for components not yet started —
/// and reports *no* frozen dimensions (partial per-component sets
/// cannot compose; the resume emits the full composed set instead).
DimsatResult RunDecomposed(const RunContext& run, const ComponentSplit& split,
                           DimsatCheckpoint* resume_from) {
  const DimsatOptions& options = run.options;
  const int n = run.ds.hierarchy().num_categories();
  const int w = static_cast<int>(split.num_components());

  std::vector<std::vector<DimensionConstraint>> comp_relevant(w);
  for (int k = 0; k < w; ++k) {
    for (size_t i : split.constraint_indices[k]) {
      comp_relevant[k].push_back(run.relevant[i]);
    }
  }

  // Which components this run searches, in deterministic order.
  // Enumerate mode needs every component's full model set. Decision
  // mode with must-be-present components searches exactly those (a
  // witness merges one model from each; the optional components stay
  // absent). Decision mode where every component may be absent scans
  // components in order until one yields a witness.
  std::vector<int> to_search;
  bool any_required = false;
  for (int k = 0; k < w; ++k) {
    if (!split.absent_valid[k]) any_required = true;
  }
  const bool scan_mode = !options.enumerate_all && !any_required;
  for (int k = 0; k < w; ++k) {
    if (options.enumerate_all || scan_mode || !split.absent_valid[k]) {
      to_search.push_back(k);
    }
  }

  // Resume bookkeeping: partition the interrupted run's checkpoint
  // into per-component frontiers and already-collected model sets.
  std::vector<std::vector<DimsatCheckpointFrame>> frames(w);
  std::vector<std::vector<FrozenDimension>> models(w);
  std::vector<char> done(w, 0);
  if (resume_from != nullptr) {
    std::vector<char> has_entry(w, 0);
    for (DimsatCheckpointFrame& frame : resume_from->frames) {
      OLAPDC_DCHECK(0 <= frame.component && frame.component < w);
      frames[frame.component].push_back(std::move(frame));
    }
    for (DimsatSolvedComponent& comp : resume_from->solved) {
      OLAPDC_DCHECK(0 <= comp.component && comp.component < w);
      has_entry[comp.component] = 1;
      models[comp.component] = std::move(comp.models);
    }
    for (int k = 0; k < w; ++k) {
      done[k] = has_entry[k] && frames[k].empty();
    }
  }

  // Per-component slots: each task writes only its own.
  std::vector<DimsatStats> stats(w);
  std::vector<Status> errors(w);
  std::vector<DimsatCheckpoint> captured(w);
  std::vector<char> started(w, 0);
  std::atomic<bool> stop{false};
  /// Set only by semantic verdicts (a scan-mode witness, a required
  /// component proven UNSAT) — never by budget errors, so the
  /// post-drain logic can tell "decided" from "interrupted".
  std::atomic<bool> decided{false};
  const auto solve = [&](int k) {
    if (stop.load(std::memory_order_acquire)) return;
    started[k] = 1;
    if (!done[k]) {
      DimsatOptions comp_opts = options;
      comp_opts.nogood_salt = split.salts[k];
      comp_opts.checkpoint =
          options.checkpoint != nullptr ? &captured[k] : nullptr;
      DimsatSearch search(run.ds, run.root, comp_opts, comp_relevant[k],
                          &run.frozen_charge);
      search.set_universe(&split.universes[k]);
      search.set_branch_rank(run.branch_rank);
      search.set_expand_counter(run.expand_counter);
      search.set_component(k);
      search.set_external_stop(&stop);
      DimsatResult r;
      if (!frames[k].empty()) {
        DimsatCheckpoint sub;
        sub.root = run.root;
        sub.num_categories = n;
        sub.frames = std::move(frames[k]);
        frames[k].clear();
        r = search.RunResume(std::move(sub));
      } else {
        r = search.Run();
      }
      stats[k] = r.stats;
      errors[k] = r.status;
      for (FrozenDimension& f : r.frozen) models[k].push_back(std::move(f));
      done[k] = r.status.ok();
    }
    bool verdict = false;
    if (errors[k].ok() && !options.enumerate_all &&
        !stop.load(std::memory_order_acquire)) {
      // Completed cleanly: a scan-mode witness or a required component
      // with no model decides the whole run.
      verdict = scan_mode ? !models[k].empty() : models[k].empty();
    }
    if (verdict) decided.store(true, std::memory_order_release);
    if (verdict || !errors[k].ok()) {
      stop.store(true, std::memory_order_release);
    }
  };
  for (int k : to_search) {
    run.spawner.Spawn([&solve, k] { solve(k); }, /*queued_bytes=*/0);
  }
  run.spawner.Wait();

  DimsatResult result;
  Status first_err;
  for (int k = 0; k < w; ++k) {
    AccumulateStats(&result.stats, stats[k]);
    if (!errors[k].ok() && first_err.ok()) first_err = errors[k];
  }

  // Hands the unfinished work to options.checkpoint: the interrupted
  // component's frames, then a carried-over or fresh seed frontier for
  // every later unfinished component, plus every model set collected.
  const auto capture = [&] {
    DimsatCheckpoint* cp = options.checkpoint;
    cp->root = run.root;
    cp->num_categories = n;
    cp->num_components = w;
    for (int k : to_search) {
      if (done[k]) continue;
      if (!started[k] && frames[k].empty()) {
        cp->frames.push_back(
            DimsatCheckpointFrame{Subhierarchy(n, run.root), 0, 0, k});
      }
      // The interrupted component's fresh frontier, or an earlier
      // interrupt's still-unreplayed frontier carried over verbatim.
      for (DimsatCheckpointFrame& f :
           started[k] ? captured[k].frames : frames[k]) {
        cp->frames.push_back(std::move(f));
      }
    }
    for (int k = 0; k < w; ++k) {
      if (done[k] || !models[k].empty()) {
        cp->solved.push_back(DimsatSolvedComponent{k, std::move(models[k])});
      }
    }
  };

  if (!options.enumerate_all && scan_mode) {
    // A witness is a verdict even when another component errored.
    for (int k : to_search) {
      if (!models[k].empty()) {
        result.frozen.push_back(std::move(models[k][0]));
        break;
      }
    }
  }
  if (result.frozen.empty() && !decided.load() && !first_err.ok()) {
    result.status = first_err;
    if (IsBudgetError(result.status) && options.checkpoint != nullptr) {
      capture();
    }
    return result;
  }

  // Verdict / composition.
  if (!options.enumerate_all) {
    if (!scan_mode && !decided.load()) {
      FrozenDimension fd{run.root, {},
                         CAssignment(static_cast<size_t>(n), std::nullopt)};
      for (int k : to_search) MergeDisjointInto(models[k][0], &fd);
      result.frozen.push_back(std::move(fd));
    }
  } else {
    Status composed = ComposeFrozen(split, models, options,
                                    &run.frozen_charge, &result.frozen);
    if (!composed.ok()) {
      result.status = std::move(composed);
      result.frozen.clear();
      // Everything is solved; the resume only needs to recompose.
      if (IsBudgetError(result.status) && options.checkpoint != nullptr) {
        capture();
      }
      return result;
    }
  }
  result.satisfiable = !result.frozen.empty();
  result.stats.frozen_found = result.frozen.size();
  return result;
}

/// The one DIMSAT driver behind RunDimsat() and ResumeDimsat()
/// (`resume_from` non-null): one preamble, one search — monolithic or
/// decomposed, sequential or on the work-stealing pool — and one
/// epilogue.
DimsatResult SolveDimsat(const DimensionSchema& ds, CategoryId root,
                         const DimsatOptions& options,
                         DimsatCheckpoint* resume_from) {
  OLAPDC_CHECK(0 <= root && root < ds.hierarchy().num_categories());
  // The Figure 7 trace, checkpoint capture, and resume are properties
  // of one depth-first traversal: they pin the sequential path.
  const bool parallel = options.num_threads > 1 && !options.collect_trace &&
                        options.checkpoint == nullptr &&
                        resume_from == nullptr;
  DimsatResult result;

  // Overload shedding happens before any other work: a shed request
  // costs microseconds, holds nothing, and is safe to retry verbatim.
  // Only runs that occupy the pool ask the gate.
  exec::AdmissionGate::Ticket ticket(parallel ? options.admission : nullptr);
  if (!ticket.admitted()) {
    result.status = ticket.status();
    return result;
  }

  obs::ObsSpan span(resume_from != nullptr ? "dimsat.resume"
                    : parallel             ? "dimsat.parallel_run"
                                           : "dimsat.run");
  ObservedRun observed;
  Result<std::vector<DimensionConstraint>> prepared =
      PrepareRelevantConstraints(ds, root, options.path_limit);
  if (!prepared.ok()) {
    result.status = prepared.status();
    return result;
  }
  const std::vector<DimensionConstraint> relevant =
      std::move(prepared).ValueOrDie();
  if (options.checkpoint != nullptr) *options.checkpoint = DimsatCheckpoint{};
  std::vector<int> rank;
  if (options.branch_heuristic) rank = ComputeBranchRank(ds);
  ComponentSplit split;
  if (options.decompose && !options.collect_trace &&
      !options.require_injective_names) {
    split = ComputeComponentSplit(ds, root, relevant, options.nogood_salt);
  }
  // A resume continues whatever the interrupted run was: decomposed iff
  // its checkpoint is, and then only under options that reproduce the
  // interrupted run's exact split (a pure function of schema, root,
  // and salt).
  bool decomposed = split.eligible;
  if (resume_from != nullptr) {
    decomposed = resume_from->num_components > 0;
    if (decomposed && (!split.eligible ||
                       static_cast<int>(split.num_components()) !=
                           resume_from->num_components)) {
      result.status = Status::InvalidArgument(
          "decomposed checkpoint does not match: the current options and "
          "schema do not reproduce the interrupted run's component split");
      return result;
    }
  }

  // An explicit options.pool wins. Otherwise use the shared process
  // pool — unless it is smaller than the requested num_threads, in
  // which case a run-local pool honors the caller's explicit request
  // (e.g. num_threads=8 on a host whose process pool was sized 1)
  // rather than silently degrading to the smaller pool.
  std::unique_ptr<exec::WorkStealingPool> local_pool;
  exec::WorkStealingPool* pool = nullptr;
  if (parallel) {
    pool = options.pool;
    if (pool == nullptr) {
      pool = &exec::ProcessPool();
      if (pool->num_threads() < options.num_threads) {
        local_pool =
            std::make_unique<exec::WorkStealingPool>(options.num_threads);
        pool = local_pool.get();
      }
    }
  }
  MemoryBudget* const memory =
      options.budget != nullptr ? options.budget->memory() : nullptr;
  Spawner spawner(pool, memory);
  std::atomic<uint64_t> expand_count{0};
  MemoryReservation frozen_charge(memory);
  const RunContext run{
      ds,
      root,
      options,
      relevant,
      options.branch_heuristic ? &rank : nullptr,
      options.max_expand_calls != UINT64_MAX ? &expand_count : nullptr,
      spawner,
      frozen_charge};

  if (decomposed) {
    result = RunDecomposed(run, split, resume_from);
  } else if (parallel) {
    result = RunWorkStealing(run);
  } else {
    DimsatSearch search(ds, root, options, relevant, &frozen_charge);
    search.set_branch_rank(run.branch_rank);
    search.set_expand_counter(run.expand_counter);
    result = resume_from != nullptr ? search.RunResume(std::move(*resume_from))
                                    : search.Run();
  }
  result.stats.parallel_tasks = spawner.tasks.load();
  result.stats.parallel_steals = spawner.steals.load();

  if (obs::MetricsEnabled()) {
    if (resume_from != nullptr) {
      obs::Count("olapdc.dimsat.resumes");
    } else if (decomposed) {
      obs::Count("olapdc.dimsat.decomposed_runs");
    }
    if (options.checkpoint != nullptr && !options.checkpoint->empty()) {
      obs::Count("olapdc.dimsat.checkpoints");
    }
  }
  if (observed.observed()) {
    if (pool != nullptr) pool->PublishMetricNames();
    FlushDimsatMetrics(result.stats, result.status, observed.ElapsedUs());
    if (pool != nullptr) {
      span.AddStat("threads", pool->num_threads());
      span.AddStat("tasks", result.stats.parallel_tasks);
      span.AddStat("steals", result.stats.parallel_steals);
    }
    AnnotateSpan(span, ds.hierarchy(), root, result);
  }
  return result;
}

}  // namespace

DimsatResult RunDimsat(const DimensionSchema& ds, CategoryId root,
                       const DimsatOptions& options) {
  return SolveDimsat(ds, root, options, /*resume_from=*/nullptr);
}

DimsatResult ResumeDimsat(const DimensionSchema& ds, CategoryId root,
                          const DimsatOptions& options,
                          DimsatCheckpoint checkpoint) {
  OLAPDC_CHECK(0 <= root && root < ds.hierarchy().num_categories());
  DimsatResult result;
  if (checkpoint.empty()) {
    // The interrupted run already covered the whole tree.
    return result;
  }
  if (checkpoint.root != root ||
      checkpoint.num_categories != ds.hierarchy().num_categories()) {
    result.status = Status::InvalidArgument(
        "checkpoint does not match this schema/root (root " +
        std::to_string(checkpoint.root) + "/" + std::to_string(root) +
        ", categories " + std::to_string(checkpoint.num_categories) + "/" +
        std::to_string(ds.hierarchy().num_categories()) + ")");
    return result;
  }
  return SolveDimsat(ds, root, options, &checkpoint);
}

DimsatResult EnumerateFrozenDimensions(const DimensionSchema& ds,
                                       CategoryId root,
                                       DimsatOptions options) {
  options.enumerate_all = true;
  return RunDimsat(ds, root, options);
}

}  // namespace olapdc
