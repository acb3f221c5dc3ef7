// E11 (Theorem 4): category satisfiability is NP-complete. We push
// random 3-SAT instances through the hardness reduction and time DIMSAT
// near the phase-transition clause ratio (~4.3), demonstrating the
// worst-case exponent the complexity bound predicts.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/dimsat.h"
#include "core/sat_reduction.h"

namespace olapdc {
namespace {

using bench::PrintHeader;
using bench::Unwrap;
using bench::WallTimer;

void Run() {
  PrintHeader(
      "E11: random 3-SAT through the Theorem 4 reduction "
      "(clause ratio 4.3, 5 seeds per size)");
  std::printf("%6s %8s | %10s %10s %6s %6s\n", "vars", "clauses", "ms",
              "expands", "sat", "unsat");
  bench::PrintRule();
  for (int vars : {4, 6, 8, 10, 12, 14}) {
    const int clauses = static_cast<int>(vars * 4.3);
    double total_ms = 0;
    uint64_t total_expands = 0;
    int sat = 0, unsat = 0;
    for (int seed = 1; seed <= 5; ++seed) {
      Cnf cnf = RandomCnf(vars, clauses, 3, seed * 1000 + vars);
      SatReduction reduction = Unwrap(ReduceCnfToCategorySatisfiability(cnf));
      WallTimer timer;
      DimsatResult r = RunDimsat(reduction.schema, reduction.query);
      OLAPDC_CHECK(r.status.ok());
      total_ms += timer.ElapsedMs() / 5;
      total_expands += r.stats.expand_calls / 5;
      (r.satisfiable ? sat : unsat)++;
      // Spot-check against brute force where affordable.
      if (vars <= 12) {
        OLAPDC_CHECK(r.satisfiable == BruteForceCnfSat(cnf));
      }
    }
    std::printf("%6d %8d | %10.2f %10llu %6d %6d\n", vars, clauses, total_ms,
                static_cast<unsigned long long>(total_expands), sat, unsat);
  }
  std::printf(
      "\nExpected shape: runtime grows exponentially with the variable "
      "count on these adversarial instances — the CoNP-hardness of "
      "implication (Theorem 4) is intrinsic, not an artifact of DIMSAT.\n");
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
