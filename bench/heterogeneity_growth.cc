// E15 (supplementary): how heterogeneity itself scales. The paper's
// §1.1 motivation — "a smaller number of categories might exponentially
// decrease the number of aggregate views" — cuts both ways: fewer, more
// heterogeneous categories mean more frozen structures per schema. We
// sweep the edge density of random hierarchies and count distinct
// frozen structures, with and without exclusive-choice constraints,
// showing the structure count the reasoner has to manage (and the DNF
// alternative would have to materialize as separate tables).

#include <cstdio>
#include <set>
#include <string>

#include "bench/bench_util.h"
#include "core/dimsat.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

using bench::PrintHeader;
using bench::Unwrap;
using bench::WallTimer;

struct Sample {
  double structures = 0;
  double ms = 0;
};

Sample Measure(double edge_prob, int choice_constraints, uint64_t seed) {
  SchemaGenOptions schema_options;
  schema_options.num_levels = 3;
  schema_options.categories_per_level = 3;
  schema_options.extra_edge_prob = edge_prob;
  schema_options.seed = seed;
  HierarchySchemaPtr hierarchy =
      Unwrap(GenerateLayeredHierarchy(schema_options));
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.25;
  constraint_options.num_choice_constraints = choice_constraints;
  constraint_options.num_equality_constraints = 0;
  constraint_options.seed = seed * 5 + 1;
  DimensionSchema ds =
      Unwrap(GenerateConstrainedSchema(hierarchy, constraint_options));

  DimsatOptions options;
  options.enumerate_all = true;
  options.max_frozen = 1 << 14;
  WallTimer timer;
  DimsatResult r =
      RunDimsat(ds, ds.hierarchy().FindCategory("Base"), options);
  OLAPDC_CHECK(r.status.ok());
  std::set<std::string> structures;
  for (const FrozenDimension& f : r.frozen) {
    std::string key;
    for (auto [u, v] : f.edges) {
      key += std::to_string(u) + ">" + std::to_string(v) + ";";
    }
    structures.insert(std::move(key));
  }
  return Sample{static_cast<double>(structures.size()), timer.ElapsedMs()};
}

void Run() {
  PrintHeader(
      "E15: distinct frozen structures vs hierarchy edge density "
      "(11 categories, 5 seeds averaged)");
  std::printf("%10s | %14s %10s | %14s %10s\n", "edge prob",
              "structs (free)", "ms", "structs (choice)", "ms");
  bench::PrintRule();
  for (double p : {0.0, 0.15, 0.3, 0.45, 0.6}) {
    Sample free_total, choice_total;
    const int kSeeds = 5;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      Sample f = Measure(p, 0, seed);
      Sample c = Measure(p, 2, seed);
      free_total.structures += f.structures / kSeeds;
      free_total.ms += f.ms / kSeeds;
      choice_total.structures += c.structures / kSeeds;
      choice_total.ms += c.ms / kSeeds;
    }
    std::printf("%10.2f | %14.1f %10.2f | %14.1f %10.2f\n", p,
                free_total.structures, free_total.ms,
                choice_total.structures, choice_total.ms);
  }
  std::printf(
      "\nExpected shape: structures multiply with edge density; "
      "exclusive-choice constraints cut the count (each ⊙ kills the "
      "both-parents structures). Each structure is a table Lehner-style "
      "normalization would materialize; dimension constraints manage "
      "them symbolically instead.\n");
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
