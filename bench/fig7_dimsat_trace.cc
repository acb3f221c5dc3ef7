// E5 (Figure 7): the variable g in an execution of
// DIMSAT(locationSch, Store) — the sequence of subhierarchies EXPAND
// builds until CHECK first succeeds (boxed in the paper's figure),
// rebuilt from the search's explain stream (obs/search_tree.h).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "obs/search_tree.h"

namespace olapdc {
namespace {

using bench::PrintHeader;
using bench::Unwrap;

void Run() {
  DimensionSchema ds = Unwrap(LocationSchema());
  const HierarchySchema& schema = ds.hierarchy();
  CategoryId store = schema.FindCategory("Store");

  PrintHeader("Figure 7: DIMSAT(locationSch, Store) execution trace");
  obs::SearchTreeRecorder& recorder = obs::SearchTreeRecorder::Global();
  recorder.Enable();
  DimsatResult r = RunDimsat(ds, store);
  const std::vector<obs::ExplainEvent> events = recorder.Drain();
  recorder.Disable();
  OLAPDC_CHECK(r.status.ok());

  obs::SubhierarchyReplay g(store);
  int step = 0;
  const auto print = [&](const char* kind) {
    const std::string edges =
        JoinMapped(g.Edges(), ", ", [&](const std::pair<int, int>& e) {
          return schema.CategoryName(e.first) + "->" +
                 schema.CategoryName(e.second);
        });
    const std::string top = JoinMapped(
        g.Top(), ", ", [&](int c) { return schema.CategoryName(c); });
    std::printf("%3d %s g={%s} top={%s}\n", ++step, kind, edges.c_str(),
                top.c_str());
  };
  // Every counted node is one EXPAND line: an interior node opens
  // with its EXPAND event, a leaf (only All pending) shows up as its
  // CHECK.
  for (const obs::ExplainEvent& event : events) {
    g.Apply(event);
    switch (event.kind) {
      case obs::ExplainEvent::Kind::kExpandBegin:
        print("EXPAND");
        break;
      case obs::ExplainEvent::Kind::kCheckFail:
        print("EXPAND");
        print("CHECK(fail)");
        break;
      case obs::ExplainEvent::Kind::kCheckOk:
        print("EXPAND");
        print("CHECK(ok)");
        std::printf("    ^^^ the boxed subhierarchy: CHECK found a frozen "
                    "dimension; EXPAND aborts all open recursions.\n");
        break;
      default:
        break;
    }
  }
  std::printf("\nsatisfiable=%s  expand_calls=%llu  check_calls=%llu  "
              "into_prunes=%llu  dead_ends=%llu\n",
              r.satisfiable ? "true" : "false",
              static_cast<unsigned long long>(r.stats.expand_calls),
              static_cast<unsigned long long>(r.stats.check_calls),
              static_cast<unsigned long long>(r.stats.into_prunes),
              static_cast<unsigned long long>(r.stats.dead_ends));
  if (!r.frozen.empty()) {
    std::printf("witness: %s\n", r.frozen[0].ToString(schema).c_str());
  }
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
