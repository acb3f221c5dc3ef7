// E16 (supplementary): parallel DIMSAT. Runs RunDimsat on two
// workloads:
//   sequential — num_threads 1, the single-threaded reference search;
//   worksteal  — num_threads 2/4/8 on the src/exec pool, where EXPAND
//                nodes near the root become pool tasks.
// The uniform workload has evenly sized first-level subtrees. The
// skewed workload puts nearly all the search under one of them, which
// the pool spreads across the workers task by task.
// Every run's frozen-dimension set is checked equal (as a canonical
// sorted serialization) to the sequential baseline. Each config runs 7
// times, the order alternating between repetitions; `ms` is the
// median, `ms_min`/`ms_max` the spread, and `speedup` the ratio of
// medians.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/dimsat.h"
#include "core/schema.h"
#include "dim/hierarchy_schema.h"
#include "exec/work_stealing_pool.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

using bench::BenchReporter;
using bench::PrintHeader;
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

// Evenly balanced seed subtrees: a generated layered hierarchy whose
// first-level choices cover categories of comparable weight.
DimensionSchema UniformWorkload() {
  SchemaGenOptions schema_options;
  schema_options.num_levels = 5;
  schema_options.categories_per_level = 3;
  schema_options.extra_edge_prob = 0.25;
  schema_options.seed = 4;
  HierarchySchemaPtr hierarchy =
      Unwrap(GenerateLayeredHierarchy(schema_options));
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.4;
  constraint_options.num_choice_constraints = 2;
  constraint_options.num_equality_constraints = 2;
  constraint_options.seed = 29;
  return Unwrap(GenerateConstrainedSchema(hierarchy, constraint_options));
}

// Skewed: Base has two parents, a light one going straight to All and
// a heavy one opening into a dense layered subgraph. The three
// first-level subtrees ({L}, {H}, {L,H}) are wildly uneven — almost
// all EXPAND work sits under the ones that include H — so a
// subtree-per-thread split would leave most threads idle.
DimensionSchema SkewedWorkload() {
  HierarchySchemaBuilder builder;
  builder.AddEdge("Base", "Light");
  builder.AddEdge("Light", "All");
  builder.AddEdge("Base", "Heavy");
  // Sized so the full enumeration finishes well under max_frozen: the
  // set-equality check needs every run to see the complete set.
  constexpr int kLevels = 3;
  constexpr int kWidth = 3;
  for (int w = 0; w < kWidth; ++w) {
    builder.AddEdge("Heavy", "H1_" + std::to_string(w));
  }
  for (int level = 1; level < kLevels; ++level) {
    for (int from = 0; from < kWidth; ++from) {
      for (int to = 0; to < kWidth; ++to) {
        builder.AddEdge("H" + std::to_string(level) + "_" +
                            std::to_string(from),
                        "H" + std::to_string(level + 1) + "_" +
                            std::to_string(to));
      }
    }
  }
  for (int w = 0; w < kWidth; ++w) {
    builder.AddEdge("H" + std::to_string(kLevels) + "_" + std::to_string(w),
                    "All");
  }
  HierarchySchemaPtr hierarchy = Unwrap(builder.BuildShared());
  return DimensionSchema(std::move(hierarchy), {});
}

struct WorkloadCase {
  const char* name;
  DimensionSchema ds;
  CategoryId base;
};

void RunWorkload(BenchReporter& reporter, const WorkloadCase& workload,
                 const DimsatOptions& base_options) {
  PrintHeader(std::string("E16: parallel DIMSAT — ") + workload.name +
              " workload");

  // The unmeasured warm-up run gives the golden set every measured run
  // must reproduce.
  const DimsatResult reference =
      RunDimsat(workload.ds, workload.base, base_options);
  OLAPDC_CHECK(reference.status.ok()) << reference.status.ToString();
  const std::vector<std::string> golden =
      Canonical(reference.frozen, workload.ds.hierarchy());

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  // The last repetition's stats, per config.
  std::vector<DimsatStats> stats(thread_counts.size());
  std::vector<std::function<double()>> runs;
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    runs.push_back([&, i] {
      const int threads = thread_counts[i];
      DimsatOptions options = base_options;
      // The pool's start-up is part of the measured run.
      WallTimer timer;
      std::optional<exec::WorkStealingPool> pool;
      if (threads > 1) {
        pool.emplace(threads);
        options.pool = &*pool;
        options.num_threads = threads;
      }
      DimsatResult result = RunDimsat(workload.ds, workload.base, options);
      const double ms = timer.ElapsedMs();
      OLAPDC_CHECK(result.status.ok()) << result.status.ToString();
      OLAPDC_CHECK(Canonical(result.frozen, workload.ds.hierarchy()) ==
                   golden)
          << "threads=" << threads
          << ": every run must enumerate the sequential set";
      stats[i] = result.stats;
      return ms;
    });
  }
  const std::vector<bench::Spread> spreads = bench::RepeatAlternating(runs);

  std::printf("%10s %8s %10s %10s %10s %8s %10s %8s %8s\n", "mode",
              "threads", "ms", "ms_min", "ms_max", "frozen", "expands",
              "steals", "speedup");
  bench::PrintRule();
  const double seq_ms = spreads[0].median_ms;
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    const int threads = thread_counts[i];
    const char* mode = threads == 1 ? "sequential" : "worksteal";
    const bench::Spread& spread = spreads[i];
    const double speedup =
        seq_ms / (spread.median_ms > 0 ? spread.median_ms : 1e-3);
    std::printf("%10s %8d %10.2f %10.2f %10.2f %8zu %10llu %8llu %7.2fx\n",
                mode, threads, spread.median_ms, spread.min_ms,
                spread.max_ms, golden.size(),
                static_cast<unsigned long long>(stats[i].expand_calls),
                static_cast<unsigned long long>(stats[i].parallel_steals),
                speedup);
    BenchReporter::Row& row =
        reporter.AddRow()
            .Set("workload", workload.name)
            .Set("mode", mode)
            .Set("threads", threads)
            .Set("ms", spread.median_ms)
            .Set("ms_min", spread.min_ms)
            .Set("ms_max", spread.max_ms)
            .Set("frozen", static_cast<uint64_t>(golden.size()))
            .Set("expand_calls", stats[i].expand_calls)
            .Set("tasks", stats[i].parallel_tasks)
            .Set("steals", stats[i].parallel_steals)
            .Set("speedup", speedup);
    // On a single hardware thread no parallel run can beat the
    // sequential one; mark the row so bench_gate's speedup floors
    // exempt it instead of failing on an impossible claim.
    if (threads > 1 && std::thread::hardware_concurrency() <= 1) {
      row.Set("single_core_host", true);
    }
  }
}

void Run() {
  DimsatOptions options;
  options.enumerate_all = true;
  options.max_frozen = 1 << 20;

  BenchReporter reporter("parallel");
  WorkloadCase uniform{"uniform", UniformWorkload(), kNoCategory};
  uniform.base = uniform.ds.hierarchy().FindCategory("Base");
  RunWorkload(reporter, uniform, options);

  WorkloadCase skewed{"skewed", SkewedWorkload(), kNoCategory};
  skewed.base = skewed.ds.hierarchy().FindCategory("Base");
  RunWorkload(reporter, skewed, options);

  std::printf(
      "\nOn a single core only the correctness claim and the scheduling "
      "overhead are observable. This host reports %u hardware threads; "
      "docs/performance.md reads the recorded numbers.\n",
      std::thread::hardware_concurrency());
  reporter.WriteJson();
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
