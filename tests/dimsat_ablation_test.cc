// Equivalence pinning for the DIMSAT speed techniques
// (DimsatOptions::decompose and DimsatOptions::branch_heuristic): every
// technique, alone and combined, sequential and parallel, must produce
// the same canonical frozen-dimension set as the baseline search —
// across the seeded random corpus, the multi-component workloads that
// actually trigger decomposition, both witness and enumerate modes,
// with and without no-good stores, and across checkpoint
// interrupt/resume chains.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/memory_budget.h"
#include "core/decompose.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "core/nogood.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

std::vector<std::string> Canonical(const std::vector<FrozenDimension>& fs,
                                   const HierarchySchema& schema) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const FrozenDimension& f : fs) out.push_back(f.ToString(schema));
  std::sort(out.begin(), out.end());
  return out;
}

DimensionSchema RandomSchema(int seed) {
  SchemaGenOptions schema_options;
  schema_options.num_levels = 3;
  schema_options.categories_per_level = 2;
  schema_options.extra_edge_prob = 0.3;
  schema_options.seed = static_cast<uint64_t>(seed) * 911 + 3;
  auto hierarchy = GenerateLayeredHierarchy(schema_options);
  OLAPDC_CHECK(hierarchy.ok()) << hierarchy.status().ToString();
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.4;
  constraint_options.num_choice_constraints = 1;
  constraint_options.num_equality_constraints = 1;
  constraint_options.seed = seed;
  auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
  OLAPDC_CHECK(ds.ok()) << ds.status().ToString();
  return *std::move(ds);
}

DimensionSchema MultiComponentSchema(int seed, int components = 3) {
  MultiComponentGenOptions options;
  options.num_components = components;
  options.levels_per_component = 2;
  options.categories_per_level = 3;
  options.seed = static_cast<uint64_t>(seed) * 613 + 7;
  auto ds = GenerateMultiComponentSchema(options);
  OLAPDC_CHECK(ds.ok()) << ds.status().ToString();
  return *std::move(ds);
}

struct Technique {
  const char* name;
  bool decompose;
  bool branch_heuristic;
};

constexpr Technique kTechniques[] = {
    {"decompose", true, false},
    {"branching", false, true},
    {"all", true, true},
};

class AblationCorpusTest : public ::testing::TestWithParam<int> {};

TEST_P(AblationCorpusTest, EveryTechniquePreservesTheModelSet) {
  const int seed = GetParam();
  const DimensionSchema ds =
      seed % 3 == 0 ? MultiComponentSchema(seed) : RandomSchema(seed);
  const CategoryId base = ds.hierarchy().FindCategory("Base");
  ASSERT_NE(base, kNoCategory);

  for (bool enumerate : {false, true}) {
    DimsatOptions baseline_options;
    baseline_options.enumerate_all = enumerate;
    const DimsatResult baseline = RunDimsat(ds, base, baseline_options);
    ASSERT_OK(baseline.status);
    const std::vector<std::string> want =
        Canonical(baseline.frozen, ds.hierarchy());

    for (const Technique& t : kTechniques) {
      for (int threads : {1, 4}) {
        DimsatOptions options;
        options.enumerate_all = enumerate;
        options.decompose = t.decompose;
        options.branch_heuristic = t.branch_heuristic;
        options.num_threads = threads;
        const DimsatResult got = RunDimsat(ds, base, options);
        ASSERT_TRUE(got.status.ok())
            << t.name << " threads " << threads << ": "
            << got.status.ToString();
        EXPECT_EQ(got.satisfiable, baseline.satisfiable)
            << t.name << " threads " << threads << " enumerate=" << enumerate
            << " seed " << seed;
        if (enumerate) {
          EXPECT_EQ(Canonical(got.frozen, ds.hierarchy()), want)
              << t.name << " threads " << threads << " seed " << seed;
        } else if (got.satisfiable) {
          // Witness mode: any valid model is acceptable; materialization
          // re-checks C1-C7 and every constraint.
          ASSERT_EQ(got.frozen.size(), 1u) << t.name << " threads " << threads;
          EXPECT_TRUE(got.frozen[0].ToInstance(ds).ok())
              << t.name << " threads " << threads;
        }
      }
    }
  }
}

TEST_P(AblationCorpusTest, TechniquesComposeWithNoGoodStores) {
  const int seed = GetParam();
  const DimensionSchema ds =
      seed % 2 == 0 ? MultiComponentSchema(seed, 2) : RandomSchema(seed);
  const CategoryId base = ds.hierarchy().FindCategory("Base");
  ASSERT_NE(base, kNoCategory);

  DimsatOptions baseline_options;
  baseline_options.enumerate_all = true;
  const DimsatResult baseline = RunDimsat(ds, base, baseline_options);
  ASSERT_OK(baseline.status);
  const std::vector<std::string> want =
      Canonical(baseline.frozen, ds.hierarchy());

  // A warm store must not change the model set either: component
  // searches salt their signatures away from the monolithic space.
  NoGoodStore store;
  for (int round = 0; round < 2; ++round) {
    DimsatOptions options;
    options.enumerate_all = true;
    options.decompose = true;
    options.branch_heuristic = true;
    options.nogoods = &store;
    const DimsatResult got = RunDimsat(ds, base, options);
    ASSERT_TRUE(got.status.ok())
        << "round " << round << ": " << got.status.ToString();
    EXPECT_EQ(Canonical(got.frozen, ds.hierarchy()), want)
        << "round " << round << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, AblationCorpusTest,
                         ::testing::Range(0, 24));

TEST(DecomposeSplitTest, MultiComponentSchemasSplitAsBuilt) {
  for (int components : {2, 3, 4}) {
    const DimensionSchema ds = MultiComponentSchema(17, components);
    const CategoryId base = ds.hierarchy().FindCategory("Base");
    std::vector<DimensionConstraint> relevant;
    for (const DimensionConstraint* c : ds.RelevantConstraints(base)) {
      relevant.push_back(*c);
    }
    const ComponentSplit split =
        ComputeComponentSplit(ds, base, relevant, /*nogood_salt=*/0);
    ASSERT_TRUE(split.eligible) << split.ineligible_reason;
    EXPECT_EQ(static_cast<int>(split.num_components()), components);
    // Base's edges carry no constraints, so every component may be
    // absent and salts must be pairwise distinct.
    for (size_t k = 0; k < split.num_components(); ++k) {
      EXPECT_TRUE(split.absent_valid[k]);
      for (size_t j = k + 1; j < split.num_components(); ++j) {
        EXPECT_NE(split.salts[k], split.salts[j]);
      }
    }
  }
}

TEST(DecomposeSplitTest, LocationSchemaFallsBackToMonolithic) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  const CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatOptions options;
  options.enumerate_all = true;
  const DimsatResult baseline = RunDimsat(ds, store, options);
  options.decompose = true;
  const DimsatResult decomposed = RunDimsat(ds, store, options);
  ASSERT_OK(decomposed.status);
  EXPECT_EQ(Canonical(decomposed.frozen, ds.hierarchy()),
            Canonical(baseline.frozen, ds.hierarchy()));
}

TEST(DecomposeSpeedTest, DecompositionReducesExpandCalls) {
  const DimensionSchema ds = MultiComponentSchema(5, 3);
  const CategoryId base = ds.hierarchy().FindCategory("Base");
  DimsatOptions options;
  options.enumerate_all = true;
  const DimsatResult baseline = RunDimsat(ds, base, options);
  ASSERT_OK(baseline.status);
  options.decompose = true;
  const DimsatResult decomposed = RunDimsat(ds, base, options);
  ASSERT_OK(decomposed.status);
  EXPECT_EQ(Canonical(decomposed.frozen, ds.hierarchy()),
            Canonical(baseline.frozen, ds.hierarchy()));
  // The CI bench gate holds the calibrated floor; this is the cheap
  // always-on sanity version of the same claim.
  EXPECT_LT(decomposed.stats.expand_calls, baseline.stats.expand_calls);
}

TEST(DecomposeParallelTest, ParallelDecomposedMatchesSequential) {
  for (int seed : {1, 4, 9}) {
    const DimensionSchema ds = MultiComponentSchema(seed, 3);
    const CategoryId base = ds.hierarchy().FindCategory("Base");
    for (bool enumerate : {false, true}) {
      DimsatOptions options;
      options.enumerate_all = enumerate;
      options.decompose = true;
      options.branch_heuristic = true;
      const DimsatResult sequential = RunDimsat(ds, base, options);
      ASSERT_OK(sequential.status);
      for (int threads : {2, 4}) {
        options.num_threads = threads;
        const DimsatResult parallel = RunDimsat(ds, base, options);
        ASSERT_OK(parallel.status);
        EXPECT_EQ(parallel.satisfiable, sequential.satisfiable)
            << "seed " << seed << " threads " << threads;
        if (enumerate) {
          EXPECT_EQ(Canonical(parallel.frozen, ds.hierarchy()),
                    Canonical(sequential.frozen, ds.hierarchy()))
              << "seed " << seed << " threads " << threads;
        } else if (parallel.satisfiable) {
          ASSERT_EQ(parallel.frozen.size(), 1u);
          EXPECT_OK(parallel.frozen[0].ToInstance(ds).status());
        }
      }
    }
  }
}

TEST(DecomposeCheckpointTest, InterruptedChainMatchesUninterrupted) {
  for (int seed : {2, 6, 12}) {
    const DimensionSchema ds = MultiComponentSchema(seed, 3);
    const CategoryId base = ds.hierarchy().FindCategory("Base");

    DimsatOptions full_options;
    full_options.enumerate_all = true;
    full_options.decompose = true;
    full_options.branch_heuristic = true;
    const DimsatResult full = RunDimsat(ds, base, full_options);
    ASSERT_OK(full.status);

    // Interrupt every few expand calls; resume until the chain runs to
    // completion. The final resumed result must carry the whole
    // composed model set.
    DimsatCheckpoint checkpoint;
    DimsatOptions chunk_options = full_options;
    chunk_options.max_expand_calls = 7;
    chunk_options.checkpoint = &checkpoint;
    DimsatResult result = RunDimsat(ds, base, chunk_options);
    int resumes = 0;
    while (!checkpoint.empty()) {
      ASSERT_LT(resumes, 10000) << "resume chain does not converge";
      // Round-trip through the text format so every resume exercises
      // the v2 serialization.
      ASSERT_OK_AND_ASSIGN(
          DimsatCheckpoint reloaded,
          DimsatCheckpoint::Deserialize(checkpoint.Serialize()));
      checkpoint = DimsatCheckpoint{};
      result = ResumeDimsat(ds, base, chunk_options, std::move(reloaded));
      ++resumes;
    }
    ASSERT_TRUE(result.status.ok())
        << "seed " << seed << ": " << result.status.ToString();
    EXPECT_GT(resumes, 0) << "seed " << seed
                          << ": workload too small to interrupt";
    EXPECT_EQ(Canonical(result.frozen, ds.hierarchy()),
              Canonical(full.frozen, ds.hierarchy()))
        << "seed " << seed;
  }
}

TEST(DecomposeCheckpointTest, DecomposedCheckpointNeedsMatchingOptions) {
  const DimensionSchema ds = MultiComponentSchema(3, 3);
  const CategoryId base = ds.hierarchy().FindCategory("Base");
  DimsatCheckpoint checkpoint;
  DimsatOptions options;
  options.enumerate_all = true;
  options.decompose = true;
  options.max_expand_calls = 5;
  options.checkpoint = &checkpoint;
  const DimsatResult interrupted = RunDimsat(ds, base, options);
  ASSERT_FALSE(interrupted.status.ok());
  ASSERT_FALSE(checkpoint.empty());
  ASSERT_GT(checkpoint.num_components, 0);

  // Resuming without decomposition enabled cannot reproduce the
  // component split and must be rejected, not silently misresumed.
  DimsatOptions plain;
  plain.enumerate_all = true;
  const DimsatResult rejected = ResumeDimsat(ds, base, plain, checkpoint);
  EXPECT_FALSE(rejected.status.ok());
}

// Composition is budgeted like the searches. A byte cap that the
// component searches fit under stops the run while it composes, with
// every component solved; resuming that checkpoint past its deadline
// has nothing left to search, so only the composition can notice.
TEST(DecomposeCheckpointTest, CompositionHonorsTheBudget) {
  const DimensionSchema ds = MultiComponentSchema(2, 3);
  const CategoryId base = ds.hierarchy().FindCategory("Base");
  DimsatOptions options;
  options.enumerate_all = true;
  options.decompose = true;
  const DimsatResult full = RunDimsat(ds, base, options);
  ASSERT_OK(full.status);
  MemoryBudget memory(FrozenDimensionBytes(full.frozen) / 2);
  Budget capped;
  capped.SetMemory(&memory);
  DimsatCheckpoint solved;
  DimsatOptions capped_options = options;
  capped_options.budget = &capped;
  capped_options.checkpoint = &solved;
  const DimsatResult stopped = RunDimsat(ds, base, capped_options);
  ASSERT_EQ(stopped.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(stopped.frozen.empty());
  EXPECT_EQ(stopped.stats.expand_calls, full.stats.expand_calls);
  ASSERT_FALSE(solved.empty());
  ASSERT_TRUE(solved.frames.empty());

  Budget expired = Budget::WithDeadlineMs(0);
  DimsatCheckpoint recompose;
  DimsatOptions late_options = options;
  late_options.budget = &expired;
  late_options.checkpoint = &recompose;
  const DimsatResult late =
      ResumeDimsat(ds, base, late_options, std::move(solved));
  EXPECT_EQ(late.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(late.frozen.empty());
  EXPECT_EQ(late.stats.expand_calls, 0u);
  ASSERT_TRUE(recompose.frames.empty());

  const DimsatResult resumed =
      ResumeDimsat(ds, base, options, std::move(recompose));
  ASSERT_OK(resumed.status);
  EXPECT_EQ(Canonical(resumed.frozen, ds.hierarchy()),
            Canonical(full.frozen, ds.hierarchy()));
}

}  // namespace
}  // namespace olapdc
