// E5 (Figure 7): the variable g in an execution of
// DIMSAT(locationSch, Store) — the sequence of subhierarchies EXPAND
// builds until CHECK first succeeds (boxed in the paper's figure).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/dimsat.h"
#include "core/location_example.h"

namespace olapdc {
namespace {

using bench::PrintHeader;
using bench::Unwrap;

void Run() {
  DimensionSchema ds = Unwrap(LocationSchema());
  const HierarchySchema& schema = ds.hierarchy();
  CategoryId store = schema.FindCategory("Store");

  PrintHeader("Figure 7: DIMSAT(locationSch, Store) execution trace");
  DimsatOptions options;
  options.collect_trace = true;
  DimsatResult r = RunDimsat(ds, store, options);
  OLAPDC_CHECK(r.status.ok());

  int step = 0;
  for (const DimsatTraceEvent& event : r.trace) {
    std::printf("%3d %s\n", ++step, event.ToString(schema).c_str());
    if (event.kind == DimsatTraceEvent::Kind::kCheckSuccess) {
      std::printf("    ^^^ the boxed subhierarchy: CHECK found a frozen "
                  "dimension; EXPAND aborts all open recursions.\n");
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
