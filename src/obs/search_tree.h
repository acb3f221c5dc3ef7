// SearchTreeRecorder: the DIMSAT explain/profile event stream.
//
// Under `--explain` the search records every EXPAND decision — node
// entry/exit, the successor edges each child takes, each successor
// edge a prune rule (into / Ss shortcut / Sc cycle) blocked, subtrees
// the no-good store skipped, dead ends, CHECK verdicts, and budget
// stops — with its recursion depth, the edge, and the budget state
// (expand calls so far). Two renderers turn the drained stream into a
// human-readable explain report (every prune-rule firing named with
// its depth) and Chrome trace_event JSON loadable in Perfetto (EXPAND
// nesting as B/E duration events, edges and prunes as instants), and
// SubhierarchyReplay rebuilds each node's subhierarchy g from it —
// the Figure 7 trace (bench/fig7_dimsat_trace) is rendered that way.
//
// Recording follows the MetricsRegistry pattern: a relaxed atomic
// enabled gate (one load + branch when off — the search additionally
// caches the pointer per run, so the disabled path is free), and
// bounded per-thread ring shards so parallel workers never contend.
// When a shard's ring is full the *oldest* events are dropped and
// counted; Drain() merges all shards in the global decision order (a
// process-wide sequence number) and publishes olapdc.explain.events /
// olapdc.explain.dropped.
//
// `src/obs` sits below `src/core`, so events carry raw category ids
// and the renderers take a name-resolver callback supplied by the
// caller (the CLI passes HierarchySchema::CategoryName).

#ifndef OLAPDC_OBS_SEARCH_TREE_H_
#define OLAPDC_OBS_SEARCH_TREE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace olapdc {
namespace obs {

/// One recorded search-tree decision.
struct ExplainEvent {
  enum class Kind : uint8_t {
    kExpandBegin,    // EXPAND picked `category` at `depth`
    kExpandEnd,      // that node finished (all successor subsets done)
    kEdge,           // the child at `depth` takes edge_from -> edge_to
    kPruneInto,      // into rule: edge_from -> edge_to blocked => branch cut
    kPruneShortcut,  // Ss: edge_from -> edge_to would complete a shortcut
    kPruneCycle,     // Sc: edge_from -> edge_to would close a cycle
    kPruneNogood,    // the no-good store skipped this node's subtree
    kDeadEnd,        // no structurally allowed successor remained
    kCheckOk,        // CHECK found `aux` frozen dimensions
    kCheckFail,      // CHECK rejected the completed subhierarchy
    kBudgetStop,     // the budget probe stopped the search at this node
  };

  Kind kind;
  int depth = 0;
  /// The expanded category (kExpandBegin/End, kPruneInto, kDeadEnd) or
  /// -1 when the node had no pending category (CHECK events).
  int category = -1;
  /// The edge a child takes (kEdge) or a prune rule blocked; -1/-1
  /// otherwise.
  int edge_from = -1;
  int edge_to = -1;
  /// Budget state: expand calls so far at the event — except kCheckOk,
  /// where it is the number of frozen dimensions found, and kEdge,
  /// where it is |R|, the size of the child's successor set (a child
  /// records one kEdge per member of R, in a row).
  uint64_t aux = 0;
  /// Microseconds since the recorder was enabled.
  double ts_us = 0;
  /// Recording thread ordinal (Perfetto track id).
  int thread = 0;
  /// Process-wide decision order (Drain() sorts by it).
  uint64_t seq = 0;
};

const char* ExplainKindName(ExplainEvent::Kind kind);

class SearchTreeRecorder {
 public:
  static SearchTreeRecorder& Global();

  /// Starts recording with a bounded ring of `per_thread_capacity`
  /// events per recording thread (oldest dropped + counted when full).
  /// Resets previously recorded events and the dropped counter.
  void Enable(size_t per_thread_capacity = 1 << 16);
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one event (stamps ts_us/thread/seq). Callers cache
  /// enabled() per run; calling while disabled is a silent no-op.
  void Record(ExplainEvent event);

  /// Merges every shard's events in decision (seq) order, clears the
  /// shards, and publishes olapdc.explain.events / .dropped into the
  /// metrics registry. The recorder stays enabled.
  std::vector<ExplainEvent> Drain();

  /// Events dropped to ring bounds since Enable().
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Shard {
    std::mutex mu;
    size_t capacity = 0;
    std::deque<ExplainEvent> ring;
  };

  SearchTreeRecorder() = default;
  Shard& LocalShard();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> dropped_{0};
  /// steady_clock rep of Enable() time, atomic so the Record hot path
  /// stamps timestamps without touching the registry mutex.
  std::atomic<int64_t> epoch_ns_{0};
  mutable std::mutex mu_;  // guards shards_ (the vector) and capacity_
  std::vector<std::shared_ptr<Shard>> shards_;
  size_t capacity_ = 0;
};

/// Renders the drained stream as the human-readable explain report:
/// one line per decision, indented by depth, every prune-rule firing
/// named. `category_name` maps a category id to its display name
/// (ids render as "#<id>" when null).
std::string RenderExplainReport(
    const std::vector<ExplainEvent>& events,
    const std::function<std::string(int)>& category_name);

/// Rebuilds the subhierarchy g (Definition 7) of each node of one
/// sequential search from its complete stream: a node's g is the root
/// plus the kEdge events on its path. After Apply() of each event in
/// order, Edges()/Top() describe g at that event's node. Streams with
/// dropped events, or of work-stealing or resumed runs, do not replay.
class SubhierarchyReplay {
 public:
  explicit SubhierarchyReplay(int root) : root_(root) {}

  void Apply(const ExplainEvent& event);
  /// g's (child, parent) edges ascending, as Subhierarchy::Edges().
  std::vector<std::pair<int, int>> Edges() const;
  /// The categories of g with no out-edge in g, ascending.
  std::vector<int> Top() const;

 private:
  const int root_;
  int depth_ = 0;
  /// The kEdge events on the current path, shallowest first.
  std::vector<ExplainEvent> path_;
  /// kEdge events the current child still owes.
  uint64_t owed_ = 0;
};

/// Renders the drained stream as Chrome trace_event JSON
/// ({"traceEvents": [...]}): EXPAND nodes as B/E duration events per
/// recording thread, edges/prunes/checks/stops as instants. Load the
/// output in Perfetto (ui.perfetto.dev) for a flame graph of the
/// search.
std::string RenderChromeTrace(
    const std::vector<ExplainEvent>& events,
    const std::function<std::string(int)>& category_name);

}  // namespace obs
}  // namespace olapdc

#endif  // OLAPDC_OBS_SEARCH_TREE_H_
