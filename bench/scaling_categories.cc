// E7 (Proposition 4): DIMSAT running time as the number of categories N
// grows, on homogeneous (into_fraction = 1.0) vs heterogeneous
// (into_fraction = 0.4) random layered schemas. The paper's bound is
// O(2^(N^2 + N log N_K) * N^3 * N_Sigma) in the worst case; the table
// shows how far typical schemas stay from it, and how into constraints
// flatten the curve (the Section 5 conjecture).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/dimsat.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

using bench::PrintHeader;
using bench::Unwrap;
using bench::WallTimer;

struct Sample {
  double ms = 0;
  uint64_t expand_calls = 0;
  uint64_t check_calls = 0;
  size_t frozen = 0;
};

Sample Measure(double into_fraction, int levels, int width, uint64_t seed) {
  SchemaGenOptions schema_options;
  schema_options.num_levels = levels;
  schema_options.categories_per_level = width;
  schema_options.extra_edge_prob = 0.25;
  schema_options.seed = seed;
  HierarchySchemaPtr hierarchy =
      Unwrap(GenerateLayeredHierarchy(schema_options));
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = into_fraction;
  constraint_options.num_choice_constraints = 2;
  constraint_options.num_equality_constraints = 2;
  constraint_options.seed = seed * 13 + 1;
  DimensionSchema ds =
      Unwrap(GenerateConstrainedSchema(hierarchy, constraint_options));

  DimsatOptions options;
  options.enumerate_all = true;  // full exploration, not first-hit luck
  options.max_frozen = 1 << 14;
  WallTimer timer;
  DimsatResult r =
      RunDimsat(ds, ds.hierarchy().FindCategory("Base"), options);
  OLAPDC_CHECK(r.status.ok()) << r.status.ToString();
  return Sample{timer.ElapsedMs(), r.stats.expand_calls,
                r.stats.check_calls, r.frozen.size()};
}

void Run() {
  PrintHeader(
      "E7: DIMSAT(Base) full enumeration vs category count N "
      "(5 seeds averaged)");
  std::printf("%4s %6s | %-34s | %-34s\n", "", "", "heterogeneous (into=0.4)",
              "homogeneous (into=1.0)");
  std::printf("%4s %6s | %10s %10s %12s | %10s %10s %12s\n", "N", "lvls",
              "ms", "expands", "frozen", "ms", "expands", "frozen");
  bench::PrintRule();
  struct Config {
    int levels;
    int width;
  };
  for (Config config : std::vector<Config>{
           {2, 2}, {3, 2}, {3, 3}, {4, 3}, {5, 3}, {5, 4}}) {
    const int n = 2 + config.levels * config.width;  // Base + levels + All
    Sample het, hom;
    const int kSeeds = 5;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      Sample h = Measure(0.4, config.levels, config.width, seed);
      Sample o = Measure(1.0, config.levels, config.width, seed);
      het.ms += h.ms;
      het.expand_calls += h.expand_calls;
      het.frozen += h.frozen;
      hom.ms += o.ms;
      hom.expand_calls += o.expand_calls;
      hom.frozen += o.frozen;
    }
    std::printf("%4d %6d | %10.2f %10.0f %12.1f | %10.2f %10.0f %12.1f\n", n,
                config.levels, het.ms / kSeeds,
                static_cast<double>(het.expand_calls) / kSeeds,
                static_cast<double>(het.frozen) / kSeeds, hom.ms / kSeeds,
                static_cast<double>(hom.expand_calls) / kSeeds,
                static_cast<double>(hom.frozen) / kSeeds);
  }
  std::printf(
      "\nExpected shape: exponential growth with N for heterogeneous "
      "schemas, near-flat for fully into-constrained (homogeneous) ones.\n");
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
