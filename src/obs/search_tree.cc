#include "obs/search_tree.h"

#include <algorithm>
#include <set>

#include "obs/json.h"
#include "obs/metrics.h"

namespace olapdc {
namespace obs {

namespace {

int RecorderThreadOrdinal() {
  static std::atomic<int> next{0};
  thread_local int ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::string NameOf(const std::function<std::string(int)>& category_name,
                   int id) {
  if (id < 0) return "?";
  if (category_name) return category_name(id);
  return "#" + std::to_string(id);
}

std::string EdgeOf(const std::function<std::string(int)>& category_name,
                   const ExplainEvent& e) {
  return NameOf(category_name, e.edge_from) + "->" +
         NameOf(category_name, e.edge_to);
}

}  // namespace

const char* ExplainKindName(ExplainEvent::Kind kind) {
  switch (kind) {
    case ExplainEvent::Kind::kExpandBegin: return "EXPAND";
    case ExplainEvent::Kind::kExpandEnd: return "EXPAND-END";
    case ExplainEvent::Kind::kEdge: return "EDGE";
    case ExplainEvent::Kind::kPruneInto: return "PRUNE[into]";
    case ExplainEvent::Kind::kPruneShortcut: return "PRUNE[Ss]";
    case ExplainEvent::Kind::kPruneCycle: return "PRUNE[Sc]";
    case ExplainEvent::Kind::kPruneNogood: return "PRUNE[nogood]";
    case ExplainEvent::Kind::kDeadEnd: return "DEADEND";
    case ExplainEvent::Kind::kCheckOk: return "CHECK(ok)";
    case ExplainEvent::Kind::kCheckFail: return "CHECK(fail)";
    case ExplainEvent::Kind::kBudgetStop: return "BUDGET-STOP";
  }
  return "?";
}

SearchTreeRecorder& SearchTreeRecorder::Global() {
  static SearchTreeRecorder* recorder = new SearchTreeRecorder();
  return *recorder;
}

void SearchTreeRecorder::Enable(size_t per_thread_capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = per_thread_capacity == 0 ? 1 : per_thread_capacity;
  for (const std::shared_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->capacity = capacity_;
    shard->ring.clear();
  }
  next_seq_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count(),
                  std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void SearchTreeRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

SearchTreeRecorder::Shard& SearchTreeRecorder::LocalShard() {
  thread_local std::shared_ptr<Shard> shard = [this] {
    auto created = std::make_shared<Shard>();
    std::lock_guard<std::mutex> lock(mu_);
    created->capacity = capacity_;
    shards_.push_back(created);
    return created;
  }();
  return *shard;
}

void SearchTreeRecorder::Record(ExplainEvent event) {
  if (!enabled()) return;
  event.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  event.thread = RecorderThreadOrdinal();
  const int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  event.ts_us =
      static_cast<double>(now_ns - epoch_ns_.load(std::memory_order_relaxed)) /
      1000.0;
  Shard& shard = LocalShard();
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.capacity == 0) shard.capacity = 1;
  while (shard.ring.size() >= shard.capacity) {
    shard.ring.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.ring.push_back(event);
}

std::vector<ExplainEvent> SearchTreeRecorder::Drain() {
  std::vector<ExplainEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<Shard>& shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      events.insert(events.end(), shard->ring.begin(), shard->ring.end());
      shard->ring.clear();
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ExplainEvent& a, const ExplainEvent& b) {
              return a.seq < b.seq;
            });
  Count("olapdc.explain.events", events.size());
  Count("olapdc.explain.dropped", dropped_.load(std::memory_order_relaxed));
  return events;
}

std::string RenderExplainReport(
    const std::vector<ExplainEvent>& events,
    const std::function<std::string(int)>& category_name) {
  std::string out;
  for (const ExplainEvent& e : events) {
    // Each line: indent, kind, subject, depth, count.
    std::string subject, count;
    switch (e.kind) {
      case ExplainEvent::Kind::kExpandBegin:
        count = " expand_calls=" + std::to_string(e.aux);
        [[fallthrough]];
      case ExplainEvent::Kind::kExpandEnd:
        subject = " " + NameOf(category_name, e.category);
        break;
      case ExplainEvent::Kind::kEdge:
        subject = " " + EdgeOf(category_name, e);
        count = " |R|=" + std::to_string(e.aux);
        break;
      case ExplainEvent::Kind::kPruneInto:
      case ExplainEvent::Kind::kPruneShortcut:
      case ExplainEvent::Kind::kPruneCycle:
        subject = " edge " + EdgeOf(category_name, e);
        break;
      case ExplainEvent::Kind::kDeadEnd:
        subject = " at " + NameOf(category_name, e.category);
        break;
      case ExplainEvent::Kind::kCheckOk:
        subject = " frozen=" + std::to_string(e.aux);
        break;
      case ExplainEvent::Kind::kBudgetStop:
        count = " expand_calls=" + std::to_string(e.aux);
        break;
      case ExplainEvent::Kind::kPruneNogood:
      case ExplainEvent::Kind::kCheckFail:
        break;
    }
    out.append(static_cast<size_t>(e.depth) * 2, ' ');
    out += ExplainKindName(e.kind) + subject + " depth=" +
           std::to_string(e.depth) + count + "\n";
  }
  return out;
}

void SubhierarchyReplay::Apply(const ExplainEvent& event) {
  depth_ = event.depth;
  if (event.kind != ExplainEvent::Kind::kEdge) return;
  if (owed_ == 0) {
    // A new child: drop the path of its previous sibling.
    while (!path_.empty() && path_.back().depth >= depth_) path_.pop_back();
    owed_ = event.aux;
  }
  path_.push_back(event);
  if (owed_ > 0) --owed_;
}

std::vector<std::pair<int, int>> SubhierarchyReplay::Edges() const {
  std::vector<std::pair<int, int>> edges;
  for (const ExplainEvent& e : path_) {
    if (e.depth <= depth_) edges.emplace_back(e.edge_from, e.edge_to);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::vector<int> SubhierarchyReplay::Top() const {
  // Every expanded category has an out-edge; only the root can be in
  // g without an in-edge.
  std::set<int> top = {root_};
  std::set<int> expanded;
  for (const auto& [from, to] : Edges()) {
    expanded.insert(from);
    top.insert(to);
  }
  for (int c : expanded) top.erase(c);
  return {top.begin(), top.end()};
}

namespace {

/// One Chrome trace_event object. Durations use B/E pairs so the
/// EXPAND nesting renders as a flame graph; point decisions are "i"
/// instants with thread scope.
std::string TraceEventJson(const char* phase, const std::string& name,
                           double ts_us, int thread,
                           const std::string& extra_args) {
  std::string out = "{\"name\": " + JsonString(name) +
                    ", \"ph\": \"" + phase + "\", \"ts\": " +
                    JsonNumber(ts_us) + ", \"pid\": 1, \"tid\": " +
                    std::to_string(thread);
  if (phase[0] == 'i') out += ", \"s\": \"t\"";
  out += ", \"args\": {" + extra_args + "}}";
  return out;
}

}  // namespace

std::string RenderChromeTrace(
    const std::vector<ExplainEvent>& events,
    const std::function<std::string(int)>& category_name) {
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  for (const ExplainEvent& e : events) {
    std::string args = "\"depth\": " + std::to_string(e.depth) +
                       ", \"seq\": " + std::to_string(e.seq);
    const char* phase = "i";
    std::string name = ExplainKindName(e.kind);
    switch (e.kind) {
      case ExplainEvent::Kind::kExpandBegin:
        phase = "B";
        name = "EXPAND " + NameOf(category_name, e.category);
        args += ", \"expand_calls\": " + std::to_string(e.aux);
        break;
      case ExplainEvent::Kind::kExpandEnd:
        phase = "E";
        name = "EXPAND " + NameOf(category_name, e.category);
        break;
      case ExplainEvent::Kind::kEdge:
        name += " " + EdgeOf(category_name, e);
        args += ", \"r\": " + std::to_string(e.aux);
        break;
      case ExplainEvent::Kind::kPruneInto:
      case ExplainEvent::Kind::kPruneShortcut:
      case ExplainEvent::Kind::kPruneCycle:
        name += " " + EdgeOf(category_name, e);
        break;
      case ExplainEvent::Kind::kDeadEnd:
        name += " " + NameOf(category_name, e.category);
        break;
      case ExplainEvent::Kind::kCheckOk:
        args += ", \"frozen\": " + std::to_string(e.aux);
        break;
      case ExplainEvent::Kind::kBudgetStop:
        args += ", \"expand_calls\": " + std::to_string(e.aux);
        break;
      case ExplainEvent::Kind::kPruneNogood:
      case ExplainEvent::Kind::kCheckFail:
        break;
    }
    if (!first) out += ", ";
    first = false;
    out += TraceEventJson(phase, name, e.ts_us, e.thread, args);
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace olapdc
