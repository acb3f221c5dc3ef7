// Tests for parallel DIMSAT (RunDimsat with num_threads > 1): semantic
// equivalence with the sequential search across thread counts,
// workloads, and modes, the expand-call cap over the whole run, plus
// prompt propagation of Budget cancellation to every worker.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "exec/work_stealing_pool.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

// Canonical serialization of a frozen-dimension set: sorted rendered
// strings, so two enumerations compare as sets regardless of the order
// workers happened to discover them in.
std::vector<std::string> Canonical(const std::vector<FrozenDimension>& fs,
                                   const HierarchySchema& schema) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const FrozenDimension& f : fs) out.push_back(f.ToString(schema));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ParallelDimsatTest, LocationEnumerationMatchesSequential) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult sequential = RunDimsat(ds, store, options);
  for (int threads : {1, 2, 4, 8}) {
    options.num_threads = threads;
    DimsatResult parallel = RunDimsat(ds, store, options);
    ASSERT_OK(parallel.status);
    EXPECT_EQ(Canonical(parallel.frozen, ds.hierarchy()),
              Canonical(sequential.frozen, ds.hierarchy()))
        << threads << " threads";
  }
}

TEST(ParallelDimsatTest, ExplicitPoolIsUsed) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  exec::WorkStealingPool pool(3);
  DimsatOptions options;
  options.enumerate_all = true;
  options.pool = &pool;
  DimsatResult sequential = RunDimsat(ds, store, options);
  options.num_threads = 3;
  DimsatResult parallel = RunDimsat(ds, store, options);
  ASSERT_OK(parallel.status);
  EXPECT_EQ(Canonical(parallel.frozen, ds.hierarchy()),
            Canonical(sequential.frozen, ds.hierarchy()));
  // The search ran as pool tasks, and the pool saw them.
  EXPECT_GT(parallel.stats.parallel_tasks, 0u);
  EXPECT_GT(pool.Stats().tasks_executed, 0u);
}

// A run that asks for more threads than the process pool has still
// runs on the process pool: the engine starts no pool of its own, and
// the pool's size bounds the parallelism.
TEST(ParallelDimsatTest, OversizedRequestRunsOnTheProcessPool) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult sequential = RunDimsat(ds, store, options);

  exec::WorkStealingPool& pool = exec::ProcessPool();
  const uint64_t before = pool.Stats().tasks_executed;
  options.num_threads = pool.num_threads() + 2;
  DimsatResult parallel = RunDimsat(ds, store, options);
  ASSERT_OK(parallel.status);
  EXPECT_EQ(Canonical(parallel.frozen, ds.hierarchy()),
            Canonical(sequential.frozen, ds.hierarchy()));
  EXPECT_GT(parallel.stats.parallel_tasks, 0u);
  EXPECT_EQ(pool.Stats().tasks_executed - before,
            parallel.stats.parallel_tasks);
}

TEST(ParallelDimsatTest, DecisionModeFindsAWitness) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatOptions options;
  options.num_threads = 4;
  DimsatResult r = RunDimsat(ds, store, options);
  ASSERT_OK(r.status);
  EXPECT_TRUE(r.satisfiable);
  ASSERT_FALSE(r.frozen.empty());
  // Whatever witness a worker found, it is a genuine frozen dimension.
  ASSERT_OK(r.frozen.front().ToInstance(ds).status());
}

TEST(ParallelDimsatTest, UnsatisfiableStaysUnsatisfiable) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  DimensionSchema extended = ds.WithExtraConstraint(
      testing_util::ParseC(ds.hierarchy(), "!SaleRegion/Country"));
  CategoryId store = ds.hierarchy().FindCategory("Store");
  for (int threads : {2, 4}) {
    DimsatOptions options;
    options.num_threads = threads;
    DimsatResult r = RunDimsat(extended, store, options);
    ASSERT_OK(r.status);
    EXPECT_FALSE(r.satisfiable);
  }
}

TEST(ParallelDimsatTest, AllRootFallsBackToSequential) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  DimsatOptions options;
  options.num_threads = 4;
  DimsatResult r = RunDimsat(ds, ds.hierarchy().all(), options);
  EXPECT_TRUE(r.satisfiable);
}

// A cancelled Budget must stop every worker promptly: cancellation is
// polled through per-worker BudgetCheckers and fanned out via the
// shared stop flag, so the whole pool drains in bounded time even when
// the search space is astronomically larger than any deadline allows.
TEST(ParallelDimsatTest, CancelStopsAllWorkersPromptly) {
  SchemaGenOptions schema_options;
  schema_options.num_levels = 7;
  schema_options.categories_per_level = 3;
  schema_options.extra_edge_prob = 0.35;
  schema_options.seed = 99;
  ASSERT_OK_AND_ASSIGN(HierarchySchemaPtr hierarchy,
                       GenerateLayeredHierarchy(schema_options));
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.3;
  constraint_options.num_choice_constraints = 1;
  constraint_options.num_equality_constraints = 1;
  constraint_options.seed = 99;
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, GenerateConstrainedSchema(
                                               hierarchy, constraint_options));
  CategoryId base = ds.hierarchy().FindCategory("Base");

  CancellationSource source;
  Budget budget = Budget::Unbounded();
  budget.SetCancellation(source.token());

  DimsatOptions options;
  options.enumerate_all = true;
  options.max_frozen = 1u << 20;
  options.max_expand_calls = ~0ull;
  options.budget = &budget;
  options.num_threads = 4;

  DimsatResult result;
  std::thread runner([&] { result = RunDimsat(ds, base, options); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto cancel_time = std::chrono::steady_clock::now();
  source.RequestCancel();
  runner.join();
  const double drain_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - cancel_time)
          .count();

  // Generous bound (sanitizer builds are slow), but far below what the
  // full enumeration would take: each worker notices the cancellation
  // within one BudgetChecker stride.
  EXPECT_LT(drain_ms, 10000.0) << "workers did not stop promptly";
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled)
      << result.status.ToString();
}

// bench/parallel_speedup's uniform workload: 84,177 EXPANDs over 309
// work-stealing tasks when enumerated in full.
DimensionSchema UniformWorkload() {
  SchemaGenOptions schema_options;
  schema_options.num_levels = 5;
  schema_options.categories_per_level = 3;
  schema_options.extra_edge_prob = 0.25;
  schema_options.seed = 4;
  auto hierarchy = GenerateLayeredHierarchy(schema_options);
  OLAPDC_CHECK(hierarchy.ok()) << hierarchy.status().ToString();
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.4;
  constraint_options.num_choice_constraints = 2;
  constraint_options.num_equality_constraints = 2;
  constraint_options.seed = 29;
  auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
  OLAPDC_CHECK(ds.ok()) << ds.status().ToString();
  return *std::move(ds);
}

// The ablation bench's mc4: four independent components, which a
// decomposed run searches as one task each.
DimensionSchema FourComponentWorkload() {
  MultiComponentGenOptions options;
  options.num_components = 4;
  options.levels_per_component = 2;
  options.categories_per_level = 3;
  options.seed = 23;
  auto ds = GenerateMultiComponentSchema(options);
  OLAPDC_CHECK(ds.ok()) << ds.status().ToString();
  return *std::move(ds);
}

// max_expand_calls caps the whole run, not each pool task or component
// search: a parallel run is exhausted exactly when the sequential run
// with the same cap is, and never counts more EXPANDs than the cap.
TEST(ParallelDimsatTest, ExpandCapBoundsTheWholeRun) {
  struct Case {
    const char* name;
    DimensionSchema ds;
    bool decompose;
  };
  const Case cases[] = {{"uniform", UniformWorkload(), false},
                        {"mc4", FourComponentWorkload(), true}};
  for (const Case& c : cases) {
    const CategoryId base = c.ds.hierarchy().FindCategory("Base");
    for (uint64_t cap : {100, 1000, 10000}) {
      DimsatOptions options;
      options.enumerate_all = true;
      options.decompose = c.decompose;
      options.max_expand_calls = cap;
      const DimsatResult sequential = RunDimsat(c.ds, base, options);
      const bool exhausted =
          sequential.status.code() == StatusCode::kResourceExhausted;
      if (!exhausted) ASSERT_OK(sequential.status);
      EXPECT_LE(sequential.stats.expand_calls, cap);
      for (int threads : {2, 4}) {
        exec::WorkStealingPool pool(threads);
        options.num_threads = threads;
        options.pool = &pool;
        const DimsatResult parallel = RunDimsat(c.ds, base, options);
        const std::string where = std::string(c.name) + " cap " +
                                  std::to_string(cap) + " threads " +
                                  std::to_string(threads);
        EXPECT_GT(parallel.stats.parallel_tasks, 0u) << where;
        EXPECT_LE(parallel.stats.expand_calls, cap) << where;
        EXPECT_EQ(parallel.status.code() == StatusCode::kResourceExhausted,
                  exhausted)
            << where << ": " << parallel.status.ToString();
        if (exhausted) {
          // Every slot of the shared count went to exactly one EXPAND.
          EXPECT_EQ(parallel.stats.expand_calls, cap) << where;
        } else {
          EXPECT_TRUE(parallel.status.ok())
              << where << ": " << parallel.status.ToString();
          EXPECT_EQ(parallel.stats.expand_calls,
                    sequential.stats.expand_calls)
              << where;
          EXPECT_EQ(parallel.frozen.size(), sequential.frozen.size())
              << where;
        }
      }
    }
  }
}

class ParallelRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelRandomTest, MatchesSequentialOnRandomSchemas) {
  const int seed = GetParam();
  SchemaGenOptions schema_options;
  schema_options.num_levels = 3;
  schema_options.categories_per_level = 2;
  schema_options.extra_edge_prob = 0.3;
  schema_options.seed = static_cast<uint64_t>(seed) * 911 + 3;
  auto hierarchy = GenerateLayeredHierarchy(schema_options);
  ASSERT_TRUE(hierarchy.ok());
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.4;
  constraint_options.num_choice_constraints = 1;
  constraint_options.num_equality_constraints = 1;
  constraint_options.seed = seed;
  auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
  ASSERT_TRUE(ds.ok());
  CategoryId base = ds->hierarchy().FindCategory("Base");

  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult sequential = RunDimsat(*ds, base, options);
  ASSERT_OK(sequential.status);
  options.num_threads = 4;
  DimsatResult parallel = RunDimsat(*ds, base, options);
  ASSERT_OK(parallel.status);
  EXPECT_EQ(Canonical(parallel.frozen, ds->hierarchy()),
            Canonical(sequential.frozen, ds->hierarchy()))
      << "seed " << seed;
  // Decision mode agrees on satisfiability.
  DimsatOptions decision_options;
  decision_options.num_threads = 4;
  DimsatResult decision = RunDimsat(*ds, base, decision_options);
  EXPECT_EQ(decision.satisfiable, sequential.satisfiable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandomTest, ::testing::Range(0, 24));

}  // namespace
}  // namespace olapdc
