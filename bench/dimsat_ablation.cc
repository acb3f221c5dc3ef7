// Per-technique ablation for the DIMSAT speed work: component
// decomposition (DimsatOptions::decompose) and most-constrained-first
// branching (DimsatOptions::branch_heuristic). Each technique runs
// alone and combined over the location suite and a generated layered
// schema (where decomposition falls back to the monolithic search, and
// on the layered one branching multiplies EXPANDs and CHECKs) and a
// family of generated multi-component schemas (where both bite), with
// every run's frozen set checked equal to the baseline's.
//
// The committed BENCH_dimsat_ablation.json carries two derived fields
// that CI holds floors on (tools/bench_gate --floor):
//   decomp_expand_reduction_pct    — EXPAND calls saved by
//                                    decomposition alone, aggregated
//                                    over the multi-component suite;
//   branching_further_reduction_pct — EXPAND calls the branching order
//                                    saves *on top of* decomposition.
// Both are deterministic node counts (host-independent), and both
// aggregate the multi-component rows only: they say nothing about
// layered schemas, whose rows are reported beside them. Each row's
// frozen, expand_calls, check_calls and structural_rejections are
// deterministic too, and CI holds a fresh run to the committed values
// (tools/bench_gate --exact). The ms columns are single samples; each
// workload runs once untimed before its configs so that the first
// config does not also pay the workload's first-run costs.

#include <cstdio>
#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

using bench::BenchReporter;
using bench::PrintHeader;
using bench::PrintRule;
using bench::Unwrap;
using bench::WallTimer;

std::vector<std::string> Canonical(const std::vector<FrozenDimension>& fs,
                                   const HierarchySchema& schema) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const FrozenDimension& f : fs) out.push_back(f.ToString(schema));
  std::sort(out.begin(), out.end());
  return out;
}

struct Config {
  const char* name;
  bool decompose;
  bool branch_heuristic;
};

constexpr Config kConfigs[] = {
    {"baseline", false, false},
    {"decomp", true, false},
    {"branching", false, true},
    {"decomp_branch", true, true},
};

struct Workload {
  std::string name;
  DimensionSchema ds;
  CategoryId root;
  bool multi_component;
};

std::vector<Workload> BuildWorkloads() {
  std::vector<Workload> workloads;

  DimensionSchema location = Unwrap(LocationSchema());
  const CategoryId store = location.hierarchy().FindCategory("Store");
  workloads.push_back({"location", std::move(location), store, false});

  // The layered shape of the perfbench CLI corpus (2,900 models from
  // Base at this seed).
  SchemaGenOptions shape;
  shape.num_levels = 4;
  shape.categories_per_level = 4;
  shape.extra_edge_prob = 0.4;
  shape.max_level_jump = 2;
  shape.seed = 37;
  ConstraintGenOptions constraints;
  constraints.into_fraction = 0.7;
  constraints.num_choice_constraints = 3;
  constraints.num_equality_constraints = 2;
  constraints.num_constants = 2;
  constraints.seed = 37;
  DimensionSchema layered = Unwrap(GenerateConstrainedSchema(
      Unwrap(GenerateLayeredHierarchy(shape)), constraints));
  const CategoryId layered_base = layered.hierarchy().FindCategory("Base");
  workloads.push_back({"layered", std::move(layered), layered_base, false});

  struct McSpec {
    const char* name;
    int components;
    int levels;
    int cats;
    uint64_t seed;
  };
  const McSpec specs[] = {
      {"mc3", 3, 2, 3, 11},
      {"mc4", 4, 2, 3, 23},
      {"mc3_deep", 3, 3, 3, 37},
  };
  for (const McSpec& spec : specs) {
    MultiComponentGenOptions options;
    options.num_components = spec.components;
    options.levels_per_component = spec.levels;
    options.categories_per_level = spec.cats;
    options.seed = spec.seed;
    DimensionSchema ds = Unwrap(GenerateMultiComponentSchema(options));
    const CategoryId base = ds.hierarchy().FindCategory("Base");
    workloads.push_back({spec.name, std::move(ds), base, true});
  }
  return workloads;
}

struct RunRecord {
  uint64_t expand_calls = 0;
  double ms = 0;
};

void RunSuite(BenchReporter& reporter) {
  PrintHeader("DIMSAT ablation: decomposition / branching");
  std::printf("%10s %14s %12s %10s %10s %10s %10s\n", "workload", "config",
              "ms", "frozen", "expands", "checks", "structural");
  PrintRule();

  // accumulated[config] over the multi-component workloads only — the
  // suite the decomposition techniques are aimed at.
  std::vector<RunRecord> accumulated(std::size(kConfigs));

  std::vector<Workload> workloads = BuildWorkloads();
  for (const Workload& workload : workloads) {
    // Untimed warm-up in the `decomp` config, the cheapest on every
    // workload but the multi-component ones (where decomp_branch's
    // search is smaller and its composition the same).
    DimsatOptions warm_up;
    warm_up.enumerate_all = true;
    warm_up.decompose = true;
    OLAPDC_CHECK(RunDimsat(workload.ds, workload.root, warm_up).status.ok());

    std::vector<std::string> golden;
    for (size_t ci = 0; ci < std::size(kConfigs); ++ci) {
      const Config& config = kConfigs[ci];
      DimsatOptions options;
      options.enumerate_all = true;
      options.decompose = config.decompose;
      options.branch_heuristic = config.branch_heuristic;
      WallTimer timer;
      DimsatResult result = RunDimsat(workload.ds, workload.root, options);
      const double ms = timer.ElapsedMs();
      OLAPDC_CHECK(result.status.ok()) << result.status.ToString();
      const std::vector<std::string> canonical =
          Canonical(result.frozen, workload.ds.hierarchy());
      if (ci == 0) {
        golden = canonical;
      } else {
        OLAPDC_CHECK(canonical == golden)
            << workload.name << "/" << config.name
            << ": ablated run changed the model set";
      }

      std::printf(
          "%10s %14s %12.2f %10zu %10llu %10llu %10llu\n",
          workload.name.c_str(), config.name, ms, result.frozen.size(),
          static_cast<unsigned long long>(result.stats.expand_calls),
          static_cast<unsigned long long>(result.stats.check_calls),
          static_cast<unsigned long long>(
              result.stats.structural_rejections));
      reporter.AddRow()
          .Set("workload", workload.name)
          .Set("config", config.name)
          .Set("ms", ms)
          .Set("frozen", static_cast<uint64_t>(result.frozen.size()))
          .Set("expand_calls", result.stats.expand_calls)
          .Set("check_calls", result.stats.check_calls)
          .Set("structural_rejections", result.stats.structural_rejections)
          .Set("multi_component", workload.multi_component);
      if (workload.multi_component) {
        accumulated[ci].expand_calls += result.stats.expand_calls;
        accumulated[ci].ms += ms;
      }
    }
  }

  const auto index_of = [&](const char* name) {
    for (size_t i = 0; i < std::size(kConfigs); ++i) {
      if (std::string(kConfigs[i].name) == name) return i;
    }
    OLAPDC_CHECK(false) << "unknown config " << name;
    return size_t{0};
  };
  const uint64_t base = accumulated[index_of("baseline")].expand_calls;
  const uint64_t decomp = accumulated[index_of("decomp")].expand_calls;
  const uint64_t both = accumulated[index_of("decomp_branch")].expand_calls;
  OLAPDC_CHECK(base > 0 && decomp > 0 && both > 0);

  const double decomp_reduction_pct =
      100.0 * (1.0 - static_cast<double>(decomp) / base);
  const double branching_further_pct =
      100.0 * (1.0 - static_cast<double>(both) / decomp);

  PrintRule();
  std::printf(
      "multi-component aggregate: %llu -> %llu expands with decomposition "
      "(-%.1f%%), -> %llu with branching on top (further -%.1f%%)\n",
      static_cast<unsigned long long>(base),
      static_cast<unsigned long long>(decomp), decomp_reduction_pct,
      static_cast<unsigned long long>(both), branching_further_pct);

  reporter.AddRow()
      .Set("case", "summary")
      .Set("baseline_expand_calls", base)
      .Set("decomp_expand_calls", decomp)
      .Set("decomp_branch_expand_calls", both)
      .Set("decomp_expand_reduction_pct", decomp_reduction_pct)
      .Set("branching_further_reduction_pct", branching_further_pct);
}

void Run() {
  BenchReporter reporter("dimsat_ablation");
  RunSuite(reporter);
  reporter.WriteJson();
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
