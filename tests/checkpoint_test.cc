// Checkpoint/resume property tests: an interrupted-then-resumed DIMSAT
// search must be indistinguishable from an uninterrupted one — same
// verdict, same frozen-dimension *set*, and *exactly* the same combined
// statistics, because the interrupted and resumed runs partition the
// search tree (no node is counted twice, none is skipped). The property
// is exercised across interrupt causes (expand cap, wall-clock
// deadline, memory budget), chain lengths (resume of a resume), and a
// serialize/deserialize round-trip of the frontier.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/memory_budget.h"
#include "core/checkpoint.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "io/schema_io.h"
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

void ExpectStatsEqual(const DimsatStats& a, const DimsatStats& b) {
  EXPECT_EQ(a.expand_calls, b.expand_calls);
  EXPECT_EQ(a.check_calls, b.check_calls);
  EXPECT_EQ(a.structural_rejections, b.structural_rejections);
  EXPECT_EQ(a.assignments_tried, b.assignments_tried);
  EXPECT_EQ(a.into_prunes, b.into_prunes);
  EXPECT_EQ(a.shortcut_prunes, b.shortcut_prunes);
  EXPECT_EQ(a.cycle_prunes, b.cycle_prunes);
  EXPECT_EQ(a.dead_ends, b.dead_ends);
  EXPECT_EQ(a.frozen_found, b.frozen_found);
}

/// Runs DIMSAT under `options` but with every run in the chain capped /
/// budgeted, resuming until the search completes. Returns the combined
/// result (accumulated stats, concatenated frozen) and the number of
/// resume links in `*chains`.
DimsatResult RunInterrupted(const DimensionSchema& ds, CategoryId root,
                            DimsatOptions options, int* chains) {
  DimsatCheckpoint cp;
  options.checkpoint = &cp;
  DimsatResult combined = RunDimsat(ds, root, options);
  // Interrupt causes driven by a per-run Budget (deadline / memory)
  // must not recur on the resumed runs, or the chain may never make
  // progress; the expand cap renews per run and is fine.
  options.budget = nullptr;
  while (!cp.empty()) {
    ++*chains;
    DimsatCheckpoint from = std::move(cp);
    cp.frames.clear();
    DimsatResult next = ResumeDimsat(ds, root, options, std::move(from));
    AccumulateStats(&combined.stats, next.stats);
    for (FrozenDimension& f : next.frozen) {
      combined.frozen.push_back(std::move(f));
    }
    combined.satisfiable = combined.satisfiable || next.satisfiable;
    combined.status = next.status;
  }
  return combined;
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

class ResumeEquivalenceTest : public ::testing::TestWithParam<int> {};

// The core property, driven by the expand-call cap (fully
// deterministic): chain of capped runs == one uncapped run, exactly.
TEST_P(ResumeEquivalenceTest, CapInterruptedChainMatchesUninterrupted) {
  const int seed = GetParam();
  DimensionSchema ds = RandomSchema(seed);
  CategoryId base = ds.hierarchy().FindCategory("Base");

  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult uninterrupted = RunDimsat(ds, base, options);
  ASSERT_OK(uninterrupted.status);

  // A tiny odd cap lands interrupts at awkward places (mid-mask-loop,
  // inside deep recursion) across the seeds.
  options.max_expand_calls = 7;
  int chains = 0;
  DimsatResult combined = RunInterrupted(ds, base, options, &chains);

  ASSERT_TRUE(combined.status.ok())
      << "seed " << seed << ": " << combined.status.ToString();
  EXPECT_EQ(combined.satisfiable, uninterrupted.satisfiable) << "seed "
                                                             << seed;
  EXPECT_EQ(Canonical(combined.frozen, ds.hierarchy()),
            Canonical(uninterrupted.frozen, ds.hierarchy()))
      << "seed " << seed;
  ExpectStatsEqual(combined.stats, uninterrupted.stats);
  if (uninterrupted.stats.expand_calls > options.max_expand_calls) {
    EXPECT_GT(chains, 0) << "seed " << seed
                         << ": the cap never actually interrupted";
  }
}

// Same property in decision mode: the chain stops at the first witness
// and that witness is genuine.
TEST_P(ResumeEquivalenceTest, DecisionModeAgrees) {
  const int seed = GetParam();
  DimensionSchema ds = RandomSchema(seed);
  CategoryId base = ds.hierarchy().FindCategory("Base");

  DimsatResult uninterrupted = RunDimsat(ds, base, {});
  ASSERT_OK(uninterrupted.status);

  DimsatOptions options;
  options.max_expand_calls = 5;
  int chains = 0;
  DimsatResult combined = RunInterrupted(ds, base, options, &chains);
  ASSERT_OK(combined.status);
  EXPECT_EQ(combined.satisfiable, uninterrupted.satisfiable) << "seed "
                                                             << seed;
  if (combined.satisfiable) {
    ASSERT_FALSE(combined.frozen.empty());
    ASSERT_OK(combined.frozen.front().ToInstance(ds).status());
  }
}

// Serialize → deserialize the frontier mid-chain; resuming from the
// round-tripped checkpoint must behave identically.
TEST_P(ResumeEquivalenceTest, SerializedFrontierResumesIdentically) {
  const int seed = GetParam();
  DimensionSchema ds = RandomSchema(seed);
  CategoryId base = ds.hierarchy().FindCategory("Base");

  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult uninterrupted = RunDimsat(ds, base, options);
  ASSERT_OK(uninterrupted.status);

  DimsatCheckpoint cp;
  options.checkpoint = &cp;
  options.max_expand_calls = 9;
  DimsatResult first = RunDimsat(ds, base, options);
  if (cp.empty()) {
    ASSERT_OK(first.status);  // finished under the cap; nothing to test
    return;
  }
  ASSERT_EQ(first.status.code(), StatusCode::kResourceExhausted);

  ASSERT_OK_AND_ASSIGN(DimsatCheckpoint restored,
                       DimsatCheckpoint::Deserialize(cp.Serialize()));
  EXPECT_EQ(restored.frames.size(), cp.frames.size());

  options.max_expand_calls = UINT64_MAX;
  options.checkpoint = nullptr;
  DimsatResult rest = ResumeDimsat(ds, base, options, std::move(restored));
  ASSERT_OK(rest.status);
  AccumulateStats(&first.stats, rest.stats);
  for (FrozenDimension& f : rest.frozen) first.frozen.push_back(std::move(f));
  EXPECT_EQ(Canonical(first.frozen, ds.hierarchy()),
            Canonical(uninterrupted.frozen, ds.hierarchy()))
      << "seed " << seed;
  ExpectStatsEqual(first.stats, uninterrupted.stats);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResumeEquivalenceTest,
                         ::testing::Range(0, 24));

// Deadline interrupts stop at a timing-dependent point, but wherever
// that is, the partition property still makes the combined run exact.
TEST(CheckpointTest, DeadlineInterruptedRunResumesExactly) {
  DimensionSchema ds = RandomSchema(7);
  CategoryId base = ds.hierarchy().FindCategory("Base");

  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult uninterrupted = RunDimsat(ds, base, options);
  ASSERT_OK(uninterrupted.status);

  // Already-expired deadline: deterministically trips on the first
  // probe (BudgetChecker always probes call #1), so the whole tree
  // lands in the checkpoint.
  Budget budget = Budget::WithDeadlineMs(0);
  options.budget = &budget;
  options.budget_check_stride = 1;
  int chains = 0;
  DimsatResult combined = RunInterrupted(ds, base, options, &chains);
  EXPECT_GT(chains, 0);
  ASSERT_OK(combined.status);
  EXPECT_EQ(Canonical(combined.frozen, ds.hierarchy()),
            Canonical(uninterrupted.frozen, ds.hierarchy()));
  ExpectStatsEqual(combined.stats, uninterrupted.stats);
}

// Memory-budget interrupts leave the frontier behind like any other
// budget error; resuming without the cap finishes the search exactly.
TEST(CheckpointTest, MemoryInterruptedRunResumesExactly) {
  DimensionSchema ds = RandomSchema(11);
  CategoryId base = ds.hierarchy().FindCategory("Base");

  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult uninterrupted = RunDimsat(ds, base, options);
  ASSERT_OK(uninterrupted.status);

  // A cap small enough that even the base search-state reservation
  // fails: the run stops before expanding anything and checkpoints the
  // root frame.
  MemoryBudget mem(64);
  Budget budget = Budget::Unbounded();
  budget.SetMemory(&mem);
  options.budget = &budget;
  int chains = 0;
  DimsatResult combined = RunInterrupted(ds, base, options, &chains);
  EXPECT_GT(chains, 0);
  ASSERT_OK(combined.status);
  EXPECT_EQ(Canonical(combined.frozen, ds.hierarchy()),
            Canonical(uninterrupted.frozen, ds.hierarchy()));
  ExpectStatsEqual(combined.stats, uninterrupted.stats);
  EXPECT_TRUE(mem.exhausted());
}

TEST(CheckpointTest, EmptyCheckpointReturnsImmediately) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatResult r = ResumeDimsat(ds, store, {}, DimsatCheckpoint{});
  ASSERT_OK(r.status);
  EXPECT_FALSE(r.satisfiable);
  EXPECT_EQ(r.stats.expand_calls, 0u);
}

TEST(CheckpointTest, MismatchedCheckpointIsRejected) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");

  DimsatCheckpoint cp;
  DimsatOptions options;
  options.checkpoint = &cp;
  options.max_expand_calls = 1;
  (void)RunDimsat(ds, store, options);
  ASSERT_FALSE(cp.empty());

  DimsatCheckpoint wrong_root = cp;
  wrong_root.root = cp.root + 1;
  EXPECT_EQ(ResumeDimsat(ds, store, {}, std::move(wrong_root)).status.code(),
            StatusCode::kInvalidArgument);

  DimsatCheckpoint wrong_size = cp;
  wrong_size.num_categories = cp.num_categories + 1;
  EXPECT_EQ(ResumeDimsat(ds, store, {}, std::move(wrong_size)).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, DeserializeRejectsGarbage) {
  EXPECT_EQ(DimsatCheckpoint::Deserialize("").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(DimsatCheckpoint::Deserialize("not a checkpoint").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(DimsatCheckpoint::Deserialize("dimsat-checkpoint v99\n")
                .status()
                .code(),
            StatusCode::kParseError);
  // Valid header, frame that is not root-reachable.
  EXPECT_EQ(DimsatCheckpoint::Deserialize(
                "dimsat-checkpoint v1\n"
                "root 0 categories 3 frames 1\n"
                "frame 0 0 1 1 2\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// A two-component schema (Brand/Maker beside Shelf/Dept/Aisle under
// Item) with named constants, one of them holding a space.
constexpr char kTwoComponentSchema[] =
    "edge Item Brand\n"
    "edge Item Shelf\n"
    "edge Brand Maker\n"
    "edge Brand All\n"
    "edge Maker All\n"
    "edge Shelf Dept\n"
    "edge Shelf Aisle\n"
    "edge Dept All\n"
    "edge Aisle All\n"
    "constraint (a) Item/Brand\n"
    "constraint (b) Item/Shelf\n"
    "constraint (c) Brand.Maker = 'Acme' | Brand.Maker = 'Bolt Co'\n"
    "constraint (d) Shelf = 'Fresh Food' <-> Shelf/Aisle\n";

// A v2 token as written by the decomposed enumeration of Item capped at
// 5 EXPANDs: component 0 interrupted with two models collected,
// component 1 not started. Stored models are edge lists now, so this
// pins the record format they must keep reading and writing.
constexpr char kTwoComponentToken[] =
    "dimsat-checkpoint v2\n"
    "root 2 categories 7 frames 2 components 2 solved 1\n"
    "frame 0 0 2 3 1 0 1 4 2 1\n"
    "frame 1 0 0 0\n"
    "solved 0 2\n"
    "model 3 1 4 2 1 4 0 1 4 Acme\n"
    "model 3 1 4 2 1 4 0 1 4 Bolt%sCo\n";

TEST(CheckpointTest, StoredV2TokenRoundTripsAndResumes) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds,
                       ParseSchemaText(kTwoComponentSchema));
  const CategoryId item = ds.hierarchy().FindCategory("Item");
  ASSERT_OK_AND_ASSIGN(DimsatCheckpoint cp,
                       ParseCheckpointFor(ds, item, kTwoComponentToken));
  EXPECT_EQ(cp.Serialize(), kTwoComponentToken);

  DimsatOptions options;
  options.enumerate_all = true;
  options.decompose = true;
  DimsatResult resumed = ResumeDimsat(ds, item, options, std::move(cp));
  ASSERT_OK(resumed.status);
  const std::vector<std::string> expected = {
      "{Brand->Maker, Item->Brand, Item->Shelf, Shelf->Aisle, Maker->All, "
      "Aisle->All} with Shelf=Fresh Food, Maker=Acme",
      "{Brand->Maker, Item->Brand, Item->Shelf, Shelf->Aisle, Maker->All, "
      "Aisle->All} with Shelf=Fresh Food, Maker=Bolt Co",
      "{Brand->Maker, Item->Brand, Item->Shelf, Shelf->Dept, Maker->All, "
      "Dept->All} with Maker=Acme",
      "{Brand->Maker, Item->Brand, Item->Shelf, Shelf->Dept, Maker->All, "
      "Dept->All} with Maker=Bolt Co",
      "{Brand->Maker, Item->Brand, Item->Shelf, Shelf->Dept, Shelf->Aisle, "
      "Maker->All, Dept->All, Aisle->All} with Shelf=Fresh Food, Maker=Acme",
      "{Brand->Maker, Item->Brand, Item->Shelf, Shelf->Dept, Shelf->Aisle, "
      "Maker->All, Dept->All, Aisle->All} with Shelf=Fresh Food, "
      "Maker=Bolt Co",
  };
  EXPECT_EQ(Canonical(resumed.frozen, ds.hierarchy()), expected);
}

// Resume tokens are client input: a model record whose edges do not
// hang from the root is rejected, not composed into a verdict.
TEST(CheckpointTest, TamperedModelRecordIsRejected) {
  std::string token = kTwoComponentToken;
  const std::string model = "model 3 1 4 2 1 4 0 1 4 Acme";
  const size_t at = token.find(model);
  ASSERT_NE(at, std::string::npos);
  // Drop Item->Brand: Brand and Maker no longer hang from the root.
  token.replace(at, model.size(), "model 2 1 4 4 0 1 4 Acme");
  EXPECT_EQ(DimsatCheckpoint::Deserialize(token).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace olapdc
