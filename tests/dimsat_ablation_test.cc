// Equivalence pinning for the DIMSAT speed techniques
// (DimsatOptions::decompose and DimsatOptions::branch_heuristic): every
// technique, alone and combined, sequential and parallel, must produce
// the same canonical frozen-dimension set as the baseline search —
// across the seeded random corpus, the multi-component workloads that
// actually trigger decomposition, both witness and enumerate modes,
// with and without no-good stores, and across checkpoint
// interrupt/resume chains. Only enumerate-all runs without a
// checkpoint decompose; every other run is the monolithic search.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
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

void ExpectSameStats(const DimsatStats& got, const DimsatStats& want) {
  EXPECT_EQ(got.expand_calls, want.expand_calls);
  EXPECT_EQ(got.check_calls, want.check_calls);
  EXPECT_EQ(got.structural_rejections, want.structural_rejections);
  EXPECT_EQ(got.assignments_tried, want.assignments_tried);
  EXPECT_EQ(got.into_prunes, want.into_prunes);
  EXPECT_EQ(got.shortcut_prunes, want.shortcut_prunes);
  EXPECT_EQ(got.cycle_prunes, want.cycle_prunes);
  EXPECT_EQ(got.dead_ends, want.dead_ends);
  EXPECT_EQ(got.nogood_prunes, want.nogood_prunes);
  EXPECT_EQ(got.frozen_found, want.frozen_found);
  EXPECT_EQ(got.parallel_tasks, want.parallel_tasks);
  EXPECT_EQ(got.parallel_steals, want.parallel_steals);
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
        if (!enumerate && threads == 1 && !t.branch_heuristic) {
          // Decision mode never decomposes: `decompose` alone is the
          // baseline search, node for node.
          SCOPED_TRACE(testing::Message() << "decision mode, seed " << seed);
          ExpectSameStats(got.stats, baseline.stats);
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

// Shorthand atoms reach the component split unexpanded: the
// preparation folds the ones no subhierarchy can change, an atom from
// the root to All trips the split, and every other one lies inside one
// component. Each theory must list the monolithic model set, with the
// EXPAND count of the split that reads every shorthand atom as its
// simple-path expansion.
TEST(DecomposeSplitTest, ShorthandAtomsSplitAsTheirExpansionsDid) {
  // Three components under Base; A2 -> All and B1 -> All are schema
  // shortcuts, and no path leaves a component.
  const std::vector<std::pair<std::string, std::string>> hand_edges = {
      {"Base", "AHub"}, {"AHub", "A1"}, {"AHub", "A2"}, {"A1", "A3"},
      {"A2", "A3"},     {"A2", "All"},  {"A3", "All"},  {"Base", "BHub"},
      {"BHub", "B1"},   {"BHub", "B2"}, {"B1", "B3"},   {"B2", "B3"},
      {"B1", "All"},    {"B3", "All"},  {"Base", "CHub"}, {"CHub", "C1"},
      {"CHub", "C2"},   {"C1", "All"},  {"C2", "All"}};
  const DimensionSchema generated = MultiComponentSchema(3, 3);
  struct Theory {
    const char* name;
    bool hand;  // hand_edges, else `generated`
    std::vector<std::string> constraints;
    bool splits;
    uint64_t decomposed_expands;
  };
  const Theory theories[] = {
      {"composed", true, {"Base.A3"}, true, 45},
      {"through or composed", true, {"Base.A1.A3 | Base.B3"}, true, 145},
      {"root to All", true, {"Base.All -> Base/AHub"}, false, 524},
      {"intermediate-rooted", true, {"AHub.A3", "B1.B3", "BHub.B2.All"},
       true, 45},
      {"g-independent",
       true,
       {"Base.Base & !Base.AHub.Base", "Base.Base.Base -> Base.C1",
        "Base.A1.Base | Base.B1", "A1.A1"},
       true,
       45},
      {"no path", true, {"!A1.B3", "Base.C1 | Base.B3.A3", "AHub.C1 | AHub.A2"},
       true, 45},
      {"generated",
       false,
       {"Base.P0L2C0", "Base.P1Hub.P1L2C1 | Base.P2L1C0", "P0Hub.P0L2C1",
        "!P0L1C0.P1L2C0", "Base.P2Hub.Base | Base.P2L2C2"},
       true,
       1906},
  };
  for (const Theory& t : theories) {
    SCOPED_TRACE(t.name);
    DimensionSchema ds =
        t.hand ? testing_util::MakeSchema(hand_edges, {}) : generated;
    for (const std::string& text : t.constraints) {
      ds = ds.WithExtraConstraint(testing_util::ParseC(ds.hierarchy(), text));
    }
    const CategoryId base = ds.hierarchy().FindCategory("Base");
    DimsatOptions options;
    options.enumerate_all = true;
    const DimsatResult monolithic = RunDimsat(ds, base, options);
    ASSERT_OK(monolithic.status);
    options.decompose = true;
    const DimsatResult decomposed = RunDimsat(ds, base, options);
    ASSERT_OK(decomposed.status);
    EXPECT_FALSE(monolithic.frozen.empty());
    EXPECT_EQ(Canonical(decomposed.frozen, ds.hierarchy()),
              Canonical(monolithic.frozen, ds.hierarchy()));
    EXPECT_EQ(decomposed.stats.expand_calls, t.decomposed_expands);
    if (t.splits) {
      EXPECT_LT(decomposed.stats.expand_calls, monolithic.stats.expand_calls);
    } else {
      EXPECT_EQ(decomposed.stats.expand_calls, monolithic.stats.expand_calls);
    }
  }
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

// A checkpoint pins the monolithic search, so a decomposed enumeration
// interrupted every few EXPANDs writes v1 tokens, and its chain lists
// the uncapped decomposed run's model set.
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

    DimsatCheckpoint checkpoint;
    DimsatOptions chunk_options = full_options;
    chunk_options.max_expand_calls = 7;
    chunk_options.checkpoint = &checkpoint;
    DimsatResult result = RunDimsat(ds, base, chunk_options);
    std::vector<FrozenDimension> listed = std::move(result.frozen);
    int resumes = 0;
    while (!checkpoint.empty()) {
      ASSERT_LT(resumes, 10000) << "resume chain does not converge";
      // Round-trip through the text format, as a daemon client would.
      const std::string token = checkpoint.Serialize();
      ASSERT_EQ(token.rfind("dimsat-checkpoint v1\n", 0), 0u) << token;
      ASSERT_OK_AND_ASSIGN(DimsatCheckpoint reloaded,
                           DimsatCheckpoint::Deserialize(
                               token, ds.hierarchy().num_categories()));
      checkpoint = DimsatCheckpoint{};
      result = ResumeDimsat(ds, base, chunk_options, std::move(reloaded));
      for (FrozenDimension& f : result.frozen) listed.push_back(std::move(f));
      ++resumes;
    }
    ASSERT_TRUE(result.status.ok())
        << "seed " << seed << ": " << result.status.ToString();
    EXPECT_GT(resumes, 0) << "seed " << seed
                          << ": workload too small to interrupt";
    EXPECT_EQ(Canonical(listed, ds.hierarchy()),
              Canonical(full.frozen, ds.hierarchy()))
        << "seed " << seed;
  }
}

// Composition is budgeted like the searches. Each half stops a run
// whose component searches all finish (the EXPAND count is the
// uncapped run's) while it composes, and lists nothing: partial model
// sets do not compose.
TEST(DecomposeCheckpointTest, CompositionHonorsTheBudget) {
  // 4 components, 419 EXPANDs, 28,898 composed models.
  const DimensionSchema ds = MultiComponentSchema(3, 4);
  const CategoryId base = ds.hierarchy().FindCategory("Base");
  DimsatOptions options;
  options.enumerate_all = true;
  options.decompose = true;
  const auto start = std::chrono::steady_clock::now();
  const DimsatResult full = RunDimsat(ds, base, options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_OK(full.status);

  // A byte cap the component model lists fit under, half of what the
  // composed list needs.
  MemoryBudget memory(FrozenDimensionBytes(full.frozen) / 2);
  Budget capped;
  capped.SetMemory(&memory);
  DimsatOptions capped_options = options;
  capped_options.budget = &capped;
  const DimsatResult over_bytes = RunDimsat(ds, base, capped_options);
  EXPECT_EQ(over_bytes.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(over_bytes.frozen.empty());
  EXPECT_EQ(over_bytes.stats.expand_calls, full.stats.expand_calls);

  // A deadline at a sixth of the uncapped run. The component searches
  // take about 1/50 of it (0.4 of 20 ms in a release build) and
  // composition the rest. A loaded host can still stall the searches
  // past the deadline, or speed this run past it, so a miss re-aims
  // the deadline (later or earlier) and tries again.
  auto deadline = elapsed / 6;
  DimsatOptions late_options = options;
  DimsatResult over_time;
  for (int attempt = 0; attempt < 5; ++attempt) {
    Budget late = Budget::WithDeadline(deadline);
    late_options.budget = &late;
    over_time = RunDimsat(ds, base, late_options);
    if (over_time.status.ok()) {
      deadline /= 2;
    } else if (over_time.stats.expand_calls < full.stats.expand_calls) {
      deadline *= 2;
    } else {
      break;
    }
  }
  EXPECT_EQ(over_time.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(over_time.frozen.empty());
  EXPECT_EQ(over_time.stats.expand_calls, full.stats.expand_calls);
}

}  // namespace
}  // namespace olapdc
