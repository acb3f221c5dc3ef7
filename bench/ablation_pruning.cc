// E9 (Section 5 conjecture): the into-constraint pruning ablation. The
// paper: "We conjecture that this optimization should have a major
// impact in practice, since we will frequently have heterogeneity
// arising as an exception, having most of the edges of the schema
// associated with into constraints." We sweep the fraction of
// into-constrained edges and toggle each pruning rule.

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
  uint64_t expands = 0;
  uint64_t checks = 0;
};

Sample Measure(double into_fraction, const DimsatOptions& options,
               uint64_t seed) {
  SchemaGenOptions schema_options;
  schema_options.num_levels = 4;
  schema_options.categories_per_level = 3;
  schema_options.extra_edge_prob = 0.25;
  schema_options.seed = seed;
  HierarchySchemaPtr hierarchy =
      Unwrap(GenerateLayeredHierarchy(schema_options));
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = into_fraction;
  constraint_options.num_choice_constraints = 1;
  constraint_options.num_equality_constraints = 2;
  constraint_options.seed = seed * 7 + 3;
  DimensionSchema ds =
      Unwrap(GenerateConstrainedSchema(hierarchy, constraint_options));

  DimsatOptions run_options = options;
  run_options.enumerate_all = true;
  run_options.max_frozen = 1 << 14;
  WallTimer timer;
  DimsatResult r =
      RunDimsat(ds, ds.hierarchy().FindCategory("Base"), run_options);
  OLAPDC_CHECK(r.status.ok());
  return Sample{timer.ElapsedMs(), r.stats.expand_calls,
                r.stats.check_calls};
}

Sample Averaged(double into_fraction, const DimsatOptions& options) {
  Sample total;
  const int kSeeds = 5;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Sample s = Measure(into_fraction, options, seed);
    total.ms += s.ms;
    total.expands += s.expands;
    total.checks += s.checks;
  }
  total.ms /= kSeeds;
  total.expands /= kSeeds;
  total.checks /= kSeeds;
  return total;
}

void Run() {
  PrintHeader(
      "E9: pruning ablation vs into-constraint density (full enumeration, "
      "5 seeds)");
  DimsatOptions all_on;
  DimsatOptions no_into = all_on;
  no_into.prune_into = false;
  DimsatOptions no_structural = all_on;
  no_structural.prune_shortcuts = false;
  no_structural.prune_cycles = false;
  DimsatOptions all_off = no_into;
  all_off.prune_shortcuts = false;
  all_off.prune_cycles = false;

  std::printf("%8s | %-19s | %-19s | %-19s | %-19s\n", "into", "all pruning",
              "no into-prune", "no cycle/shortcut", "no pruning");
  std::printf("%8s | %9s %9s | %9s %9s | %9s %9s | %9s %9s\n", "frac", "ms",
              "expands", "ms", "expands", "ms", "expands", "ms", "expands");
  bench::PrintRule();
  for (double fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    Sample a = Averaged(fraction, all_on);
    Sample b = Averaged(fraction, no_into);
    Sample c = Averaged(fraction, no_structural);
    Sample d = Averaged(fraction, all_off);
    std::printf(
        "%8.2f | %9.2f %9llu | %9.2f %9llu | %9.2f %9llu | %9.2f %9llu\n",
        fraction, a.ms, static_cast<unsigned long long>(a.expands), b.ms,
        static_cast<unsigned long long>(b.expands), c.ms,
        static_cast<unsigned long long>(c.expands), d.ms,
        static_cast<unsigned long long>(d.expands));
  }
  std::printf(
      "\nExpected shape: the gap between 'all pruning' and 'no into-prune' "
      "widens as the into fraction grows — the paper's heterogeneity-as-"
      "exception conjecture.\n");
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
