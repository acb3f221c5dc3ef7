// E8 (Proposition 4): DIMSAT sensitivity to the constraint-set size
// N_Sigma and to the constants-per-category count N_K (the
// c-assignment space is O(N_K^N) in the worst case; the bound carries
// an N log N_K exponent term and a linear N_Sigma factor).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/dimsat.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

using bench::PrintHeader;
using bench::Unwrap;
using bench::WallTimer;

HierarchySchemaPtr FixedHierarchy() {
  SchemaGenOptions options;
  options.num_levels = 4;
  options.categories_per_level = 3;
  options.extra_edge_prob = 0.25;
  options.seed = 99;
  return Unwrap(GenerateLayeredHierarchy(options));
}

struct Sample {
  double ms = 0;
  uint64_t assignments = 0;
  size_t constraints = 0;
};

Sample Measure(const HierarchySchemaPtr& hierarchy, int eq_constraints,
               int constants, uint64_t seed) {
  ConstraintGenOptions options;
  options.into_fraction = 0.5;
  options.num_choice_constraints = 2;
  options.num_equality_constraints = eq_constraints;
  options.num_constants = constants;
  options.seed = seed;
  DimensionSchema ds = Unwrap(GenerateConstrainedSchema(hierarchy, options));
  DimsatOptions dimsat_options;
  dimsat_options.enumerate_all = true;
  dimsat_options.max_frozen = 1 << 14;
  WallTimer timer;
  DimsatResult r =
      RunDimsat(ds, ds.hierarchy().FindCategory("Base"), dimsat_options);
  OLAPDC_CHECK(r.status.ok());
  return Sample{timer.ElapsedMs(), r.stats.assignments_tried,
                ds.constraints().size()};
}

void Run() {
  HierarchySchemaPtr hierarchy = FixedHierarchy();
  const int kSeeds = 5;

  PrintHeader("E8a: runtime vs N_Sigma (equality-constraint count sweep)");
  std::printf("%10s %10s %10s %14s\n", "N_Sigma", "(eq part)", "ms",
              "assignments");
  bench::PrintRule();
  for (int eq : {0, 2, 4, 8, 16, 32}) {
    double ms = 0;
    uint64_t assignments = 0;
    size_t n_sigma = 0;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      Sample s = Measure(hierarchy, eq, 2, seed);
      ms += s.ms;
      assignments += s.assignments;
      n_sigma = s.constraints;
    }
    std::printf("%10zu %10d %10.2f %14.0f\n", n_sigma, eq, ms / kSeeds,
                static_cast<double>(assignments) / kSeeds);
  }

  PrintHeader("E8b: runtime vs N_K (constants per category sweep)");
  std::printf("%10s %10s %14s\n", "N_K", "ms", "assignments");
  bench::PrintRule();
  for (int constants : {1, 2, 4, 8, 16}) {
    double ms = 0;
    uint64_t assignments = 0;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      Sample s = Measure(hierarchy, 8, constants, seed);
      ms += s.ms;
      assignments += s.assignments;
    }
    std::printf("%10d %10.2f %14.0f\n", constants, ms / kSeeds,
                static_cast<double>(assignments) / kSeeds);
  }
  std::printf(
      "\nExpected shape: roughly linear in N_Sigma; the assignment count "
      "grows with N_K but only on the categories mentioned by surviving "
      "equality atoms.\n");
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
