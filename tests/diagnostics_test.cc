// Tests for schema diagnostics: redundant-constraint detection,
// constraint-set minimization, and unsatisfiable cores.

#include <gtest/gtest.h>

#include "core/diagnostics.h"
#include "core/implication.h"
#include "core/location_example.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

using testing_util::MakeSchema;
using testing_util::ParseC;

TEST(RedundancyTest, DetectsImpliedConstraint) {
  // With the detour A -> C -> B available, the composed atom A.B is
  // strictly weaker than the into constraint A/B: only the latter is
  // redundant.
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"A", "C"}, {"C", "B"}, {"B", "All"}},
      {"A/B", "A.B"});
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> redundant,
                       FindRedundantConstraints(ds));
  EXPECT_EQ(redundant, std::vector<size_t>({1}));
}

TEST(RedundancyTest, MutuallyRedundantPairBothReported) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"B", "All"}}, {"A/B", "A/B"});
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> redundant,
                       FindRedundantConstraints(ds));
  EXPECT_EQ(redundant.size(), 2u);
}

TEST(RedundancyTest, LocationSchemaIsIrredundant) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> redundant,
                       FindRedundantConstraints(ds));
  EXPECT_TRUE(redundant.empty())
      << "every locationSch constraint is load-bearing";
}

TEST(MinimizeTest, KeepsSemanticsDropsDuplicates) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"A", "C"}, {"B", "All"}, {"C", "All"}},
      {"A/B", "A.B", "A/B & true"});
  ASSERT_OK_AND_ASSIGN(DimensionSchema minimized, MinimizeConstraintSet(ds));
  EXPECT_LT(minimized.constraints().size(), ds.constraints().size());
  // Semantics preserved: each original constraint still implied.
  for (const DimensionConstraint& c : ds.constraints()) {
    ASSERT_OK_AND_ASSIGN(ImplicationResult r, Implies(minimized, c));
    EXPECT_TRUE(r.implied);
  }
  // And minimal: nothing left is redundant.
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> still_redundant,
                       FindRedundantConstraints(minimized));
  EXPECT_TRUE(still_redundant.empty());
}

TEST(UnsatCoreTest, FindsMinimalConflict) {
  // Constraints 0 and 2 conflict; 1 and 3 are innocent bystanders.
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"A", "C"}, {"B", "All"}, {"C", "All"}},
      {"A/B", "A.C | A.B", "!A/B & !A/C", "B/All"});
  CategoryId a = ds.hierarchy().FindCategory("A");
  ASSERT_OK_AND_ASSIGN(bool satisfiable, IsCategorySatisfiable(ds, a));
  ASSERT_FALSE(satisfiable);
  // `olapdc check --threads N` passes N through: the core is the same
  // whether its searches run on the caller's thread or on the pool.
  for (int threads : {1, 2}) {
    DimsatOptions options;
    options.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(std::vector<size_t> core,
                         UnsatisfiableCore(ds, a, options));
    // The core is {2} alone: !A/B & !A/C contradicts C7 by itself.
    EXPECT_EQ(core, std::vector<size_t>({2})) << threads << " threads";
  }
}

TEST(UnsatCoreTest, TwoConstraintCore) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"A", "C"}, {"B", "All"}, {"C", "All"}},
      {"B/All", "A/B", "!A/B | false"});
  CategoryId a = ds.hierarchy().FindCategory("A");
  for (int threads : {1, 2}) {
    DimsatOptions options;
    options.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(std::vector<size_t> core,
                         UnsatisfiableCore(ds, a, options));
    EXPECT_EQ(core, std::vector<size_t>({1, 2})) << threads << " threads";
  }
}

TEST(UnsatCoreTest, RejectsSatisfiableCategory) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  EXPECT_EQ(UnsatisfiableCore(ds, ds.hierarchy().FindCategory("Store"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(UnsatCoreTest, Example11Core) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  DimensionSchema extended = ds.WithExtraConstraint(
      ParseC(ds.hierarchy(), "!SaleRegion/Country", "(x)"));
  CategoryId sale_region = ds.hierarchy().FindCategory("SaleRegion");
  ASSERT_OK_AND_ASSIGN(std::vector<size_t> core,
                       UnsatisfiableCore(extended, sale_region));
  // The Example 11 constraint alone kills SaleRegion (C7 provides the
  // other half), so the core is just the new constraint.
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(extended.constraints()[core[0]].label, "(x)");
}

}  // namespace
}  // namespace olapdc
