// Tests for constraint mining (learning dimension constraints from an
// instance) and its interplay with the reasoner.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "constraint/evaluator.h"
#include "constraint/printer.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "core/mining.h"
#include "core/summarizability.h"
#include "tests/test_util.h"
#include "workload/instance_generator.h"

namespace olapdc {
namespace {

TEST(MiningTest, MinedConstraintsHoldOnTheirInstance) {
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, LocationInstance());
  ASSERT_OK_AND_ASSIGN(std::vector<DimensionConstraint> mined,
                       MineConstraints(d));
  ASSERT_FALSE(mined.empty());
  for (const DimensionConstraint& c : mined) {
    EXPECT_TRUE(Satisfies(d, c))
        << ConstraintToString(d.hierarchy(), c);
  }
}

TEST(MiningTest, SplitsReflectObservedStructures) {
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, LocationInstance());
  const HierarchySchema& schema = d.hierarchy();
  ASSERT_OK_AND_ASSIGN(std::vector<DimensionConstraint> mined,
                       MineConstraints(d));
  // The mined schema admits exactly the structures the instance
  // exhibits: stores of location come in the {City} and {City,
  // SaleRegion} parent-set flavors, cities in {Province}, {State},
  // {Country}.
  DimensionSchema mined_schema(d.schema(), mined);
  DimsatResult frozen = EnumerateFrozenDimensions(
      mined_schema, schema.FindCategory("Store"));
  ASSERT_OK(frozen.status);
  EXPECT_GE(frozen.frozen.size(), 3u);
  // Every frozen structure's store has a City parent (all observed
  // stores do).
  for (const FrozenDimension& f : frozen.frozen) {
    EXPECT_TRUE(f.HasEdge(schema.FindCategory("Store"),
                            schema.FindCategory("City")));
  }
}

TEST(MiningTest, EqualityConditionsRecovered) {
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, LocationInstance());
  const HierarchySchema& schema = d.hierarchy();
  ASSERT_OK_AND_ASSIGN(std::vector<DimensionConstraint> mined,
                       MineConstraints(d));
  // Among the mined conditionals: cities under Canada use the
  // {Province} alternative — the spirit of Example 6.
  bool found_canada_rule = false;
  for (const DimensionConstraint& c : mined) {
    std::string text = ConstraintToString(schema, c);
    if (text.find("'Canada'") != std::string::npos &&
        c.root == schema.FindCategory("City") &&
        text.find("City/Province") != std::string::npos) {
      found_canada_rule = true;
    }
  }
  EXPECT_TRUE(found_canada_rule);
}

TEST(MiningTest, MiningDisabledConditions) {
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, LocationInstance());
  MiningOptions options;
  options.mine_equality_conditions = false;
  ASSERT_OK_AND_ASSIGN(std::vector<DimensionConstraint> mined,
                       MineConstraints(d, options));
  for (const DimensionConstraint& c : mined) {
    EXPECT_EQ(c.label, "split");
  }
}

TEST(MiningTest, HomogeneousInstanceMinesIntoConstraints) {
  HierarchySchemaPtr schema = testing_util::MakeHierarchy(
      {{"A", "B"}, {"B", "All"}});
  DimensionInstanceBuilder builder(schema);
  builder.AddMember("b1", "B")
      .AddMemberUnder("a1", "A", "b1")
      .AddMemberUnder("a2", "A", "b1");
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, builder.Build());
  ASSERT_OK_AND_ASSIGN(std::vector<DimensionConstraint> mined,
                       MineConstraints(d));
  // One split per populated category (A and B), each a single
  // alternative == a conjunction of into-atoms.
  ASSERT_EQ(mined.size(), 2u);
  CategoryId child, parent;
  EXPECT_TRUE(IsIntoConstraint(mined[0], &child, &parent));
}

TEST(MiningTest, RoundTripThroughGenerator) {
  // Mine a generated instance of locationSch; the generated instance
  // must satisfy its own mined constraints, and summarizability
  // verdicts under the mined schema must be sound for this instance.
  ASSERT_OK_AND_ASSIGN(DimensionSchema original, LocationSchema());
  InstanceGenOptions gen;
  gen.branching = 2;
  ASSERT_OK_AND_ASSIGN(DimensionInstance d,
                       GenerateInstanceFromFrozen(original, gen));
  ASSERT_OK_AND_ASSIGN(DimensionSchema mined, MineSchema(d));
  EXPECT_TRUE(SatisfiesAll(d, mined.constraints()));

  const HierarchySchema& schema = original.hierarchy();
  CategoryId country = schema.FindCategory("Country");
  CategoryId city = schema.FindCategory("City");
  ASSERT_OK_AND_ASSIGN(SummarizabilityResult mined_verdict,
                       IsSummarizable(mined, country, {city}));
  if (mined_verdict.summarizable) {
    ASSERT_OK_AND_ASSIGN(bool instance_level,
                         IsSummarizableInInstance(d, country, {city}));
    EXPECT_TRUE(instance_level)
        << "schema-level yes must hold on the mined-from instance";
  }
}

}  // namespace
}  // namespace olapdc
