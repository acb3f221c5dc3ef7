// ObsSpan: structured trace spans for the search procedures.
//
// A span brackets one logical operation (a DIMSAT run, an implication
// query, a parse) and records its wall-clock extent, its process-unique
// id, its parent span, its nesting depth (an implication query
// *contains* its DIMSAT run), and a small set of key/value
// stats attached by the operation (expand calls, outcome, root
// category, ...). Completed spans are appended to the global TraceSink
// as one JSON object per line (JSONL) — the `--trace=<path>` CLI output
// — so search behavior can be replayed and diffed offline without a
// tracing dependency. `tools/trace2perfetto` converts the stream to
// Chrome trace_event JSON loadable in Perfetto.
//
// Parentage is carried by an explicit TraceContext, not by the thread:
// the current context (innermost open span id + child depth) lives in a
// thread-local slot that a span installs on open and restores on close,
// and that the execution layer captures at task-spawn and reinstalls on
// the executing worker (TaskGroup::Spawn / WorkStealingPool::Execute).
// A naive per-thread nesting stack lies as soon as the work-stealing
// pool migrates a task: the child span would open at depth 0 on the
// thief with no parent. With explicit propagation, span parentage is
// identical whether or not the task was stolen — pinned by the
// forced-steal regression tests in tests/exec_test.cc.
//
// Cost model: when the sink is closed (the default) constructing a span
// is one relaxed atomic load and a branch; no clock is sampled and
// AddStat() is a no-op. Spans are stack-only RAII values.

#ifndef OLAPDC_OBS_SPAN_H_
#define OLAPDC_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace olapdc {
namespace obs {

/// The span-parentage context of one logical strand of work: the id of
/// the innermost open span (0 = none) and the nesting depth a child
/// span opened under it would have. Trivially copyable so task spawns
/// can capture it by value.
struct TraceContext {
  uint64_t span_id = 0;
  int depth = 0;
};

/// The calling thread's current context (what a span opened right now
/// would use as its parent). Cheap: two thread-local word loads.
TraceContext CurrentTraceContext();

/// Installs `context` as the calling thread's current context for the
/// scope's lifetime and restores the previous one on destruction. The
/// execution layer wraps every task invocation in one of these so span
/// parentage survives work-stealing migration; restores of a non-empty
/// context are counted under olapdc.exec.ctx_restores by the caller.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// The process-wide JSONL span writer: the file opened with Open()
/// (the `--trace` CLI flag). Thread-safe: spans from concurrent
/// threads interleave at line granularity. Spans are recorded only
/// while a file is open.
class TraceSink {
 public:
  static TraceSink& Global();

  /// Starts writing spans to `path` (truncates). Returns false when the
  /// file cannot be opened. Timestamps are relative to the first Open
  /// since the last Close.
  bool Open(const std::string& path);

  /// Flushes and closes the file. Idempotent.
  void Close();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since the sink was first enabled (0 when closed).
  double NowUs() const;

  /// Appends one pre-rendered JSONL line (no trailing newline).
  void EmitLine(const std::string& line);

 private:
  TraceSink() = default;

  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::FILE* file_ = nullptr;
  bool have_epoch_ = false;
  std::chrono::steady_clock::time_point epoch_;
};

class ObsSpan {
 public:
  /// Opens a span named `name` (use the metric naming scheme, e.g.
  /// "dimsat.run"). Inactive — free of clock samples — when the global
  /// sink is closed. An active span parents to the thread's current
  /// TraceContext and installs itself as the context for its scope.
  explicit ObsSpan(std::string_view name);

  /// Closing emits the span to the sink and restores the parent
  /// context.
  ~ObsSpan();

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  /// Attaches a key/value stat rendered into the span's "stats" object.
  void AddStat(std::string_view key, uint64_t value);
  void AddStat(std::string_view key, int64_t value);
  void AddStat(std::string_view key, int value) {
    AddStat(key, static_cast<int64_t>(value));
  }
  void AddStat(std::string_view key, double value);
  void AddStat(std::string_view key, std::string_view value);
  /// Without this overload a string literal would bind to `bool` via
  /// the pointer conversion instead of to string_view.
  void AddStat(std::string_view key, const char* value) {
    AddStat(key, std::string_view(value));
  }
  void AddStat(std::string_view key, bool value);

  bool active() const { return active_; }
  /// Process-unique span id (0 when inactive).
  uint64_t id() const { return id_; }
  /// Id of the enclosing span in this strand of work (0 = root).
  uint64_t parent() const { return parent_; }
  /// Nesting depth within the strand (0 = outermost), fixed at open.
  /// Follows the TraceContext, so it is steal-safe.
  int depth() const { return depth_; }

 private:
  bool active_;
  int depth_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  double start_us_ = 0;
  TraceContext saved_context_;
  std::string name_;
  /// Values pre-rendered as JSON (numbers bare, strings quoted).
  std::vector<std::pair<std::string, std::string>> stats_;
};

}  // namespace obs
}  // namespace olapdc

#endif  // OLAPDC_OBS_SPAN_H_
