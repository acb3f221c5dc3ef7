// Tests for the workload generators: structural validity, determinism,
// and the central property that generated instances are valid models of
// their schemas (C1-C7 + Sigma).

#include <gtest/gtest.h>

#include "constraint/evaluator.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "tests/test_util.h"
#include "workload/instance_generator.h"
#include "workload/realistic.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

TEST(SchemaGeneratorTest, ShapeAndDeterminism) {
  SchemaGenOptions options;
  options.num_levels = 3;
  options.categories_per_level = 3;
  options.seed = 11;
  ASSERT_OK_AND_ASSIGN(HierarchySchemaPtr a, GenerateLayeredHierarchy(options));
  // 1 (Base) + 3*3 + All = 11 categories; Base is the unique bottom.
  EXPECT_EQ(a->num_categories(), 11);
  EXPECT_EQ(a->bottom_categories().size(), 1u);
  EXPECT_EQ(a->CategoryName(a->bottom_categories()[0]), "Base");

  ASSERT_OK_AND_ASSIGN(HierarchySchemaPtr b, GenerateLayeredHierarchy(options));
  EXPECT_TRUE(a->graph() == b->graph()) << "same seed, same schema";
  options.seed = 12;
  ASSERT_OK_AND_ASSIGN(HierarchySchemaPtr c, GenerateLayeredHierarchy(options));
  EXPECT_FALSE(a->graph() == c->graph());
}

TEST(SchemaGeneratorTest, ConstraintsRespectKnobs) {
  SchemaGenOptions schema_options;
  schema_options.seed = 5;
  ASSERT_OK_AND_ASSIGN(HierarchySchemaPtr hierarchy,
                       GenerateLayeredHierarchy(schema_options));

  ConstraintGenOptions none;
  none.into_fraction = 0.0;
  none.num_choice_constraints = 0;
  none.num_equality_constraints = 0;
  ASSERT_OK_AND_ASSIGN(DimensionSchema empty,
                       GenerateConstrainedSchema(hierarchy, none));
  EXPECT_TRUE(empty.constraints().empty());

  ConstraintGenOptions full;
  full.into_fraction = 1.0;
  full.num_choice_constraints = 0;
  full.num_equality_constraints = 0;
  ASSERT_OK_AND_ASSIGN(DimensionSchema homogeneous,
                       GenerateConstrainedSchema(hierarchy, full));
  // Every non-shortcut edge carries an into constraint.
  for (const DimensionConstraint& c : homogeneous.constraints()) {
    EXPECT_TRUE(IsIntoConstraint(c, nullptr, nullptr));
  }
  EXPECT_GT(homogeneous.constraints().size(), 0u);

  ConstraintGenOptions eq;
  eq.into_fraction = 0.0;
  eq.num_choice_constraints = 1;
  eq.num_equality_constraints = 2;
  eq.num_constants = 3;
  ASSERT_OK_AND_ASSIGN(DimensionSchema with_eq,
                       GenerateConstrainedSchema(hierarchy, eq));
  EXPECT_GE(with_eq.constraints().size(), 1u);
}

class GeneratedInstanceValidityTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedInstanceValidityTest, InstancesAreModelsOfTheirSchema) {
  const int seed = GetParam();
  SchemaGenOptions schema_options;
  schema_options.num_levels = 2 + seed % 2;
  schema_options.categories_per_level = 2 + seed % 2;
  schema_options.extra_edge_prob = 0.3;
  schema_options.seed = static_cast<uint64_t>(seed) * 37 + 5;
  auto hierarchy = GenerateLayeredHierarchy(schema_options);
  ASSERT_TRUE(hierarchy.ok());
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.4;
  constraint_options.num_choice_constraints = 1 + seed % 2;
  constraint_options.num_equality_constraints = seed % 3;
  constraint_options.seed = seed;
  auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
  ASSERT_TRUE(ds.ok());

  InstanceGenOptions gen;
  gen.branching = 2;
  gen.copies = 1 + seed % 2;
  gen.max_structures = 8;
  auto d = GenerateInstanceFromFrozen(*ds, gen);
  if (!d.ok()) {
    // Only acceptable cause: the schema is unsatisfiable at the base.
    EXPECT_FALSE(
        RunDimsat(*ds, ds->hierarchy().FindCategory("Base")).satisfiable)
        << d.status().ToString();
    return;
  }
  // Builder already validated C1-C7; re-assert plus Sigma satisfaction.
  EXPECT_OK(d->Validate());
  for (const DimensionConstraint& c : ds->constraints()) {
    EXPECT_TRUE(Satisfies(*d, c)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedInstanceValidityTest,
                         ::testing::Range(0, 20));

TEST(InstanceGeneratorTest, SizeKnobs) {
  auto ds = LocationSchema();
  ASSERT_TRUE(ds.ok());
  InstanceGenOptions small;
  small.branching = 1;
  small.copies = 1;
  ASSERT_OK_AND_ASSIGN(DimensionInstance a, GenerateInstanceFromFrozen(*ds, small));
  InstanceGenOptions bigger = small;
  bigger.copies = 3;
  ASSERT_OK_AND_ASSIGN(DimensionInstance b,
                       GenerateInstanceFromFrozen(*ds, bigger));
  // Copies scale member count (shared all member excluded).
  EXPECT_EQ((b.num_members() - 1), (a.num_members() - 1) * 3);
  InstanceGenOptions deeper = small;
  deeper.branching = 3;
  ASSERT_OK_AND_ASSIGN(DimensionInstance c,
                       GenerateInstanceFromFrozen(*ds, deeper));
  EXPECT_GT(c.num_members(), a.num_members());
}

TEST(InstanceGeneratorTest, UnsatisfiableSchemaRejected) {
  DimensionSchema ds = testing_util::MakeSchema(
      {{"A", "B"}, {"B", "All"}}, {"!A/B"});
  // A (the only bottom) is unsatisfiable -> no instance.
  EXPECT_FALSE(GenerateInstanceFromFrozen(ds).ok());
}

TEST(FactGeneratorTest, FactsCoverBaseMembers) {
  auto ds = LocationSchema();
  ASSERT_TRUE(ds.ok());
  InstanceGenOptions gen;
  gen.branching = 2;
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, GenerateInstanceFromFrozen(*ds, gen));
  FactGenOptions fact_options;
  fact_options.facts_per_base_member = 3;
  FactTable facts = GenerateFacts(d, fact_options);
  size_t base_members = 0;
  for (CategoryId b : d.hierarchy().bottom_categories()) {
    base_members += d.MembersOf(b).size();
  }
  EXPECT_EQ(facts.size(), base_members * 3);
  EXPECT_OK(facts.ValidateAgainst(d));
  // Deterministic.
  FactTable again = GenerateFacts(d, fact_options);
  ASSERT_EQ(again.size(), facts.size());
  for (size_t i = 0; i < facts.size(); ++i) {
    EXPECT_EQ(facts.rows()[i].measure, again.rows()[i].measure);
  }
}

TEST(RealisticSchemaTest, HealthcareAndProductAreWellFormed) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema healthcare, HealthcareSchema());
  ASSERT_OK_AND_ASSIGN(DimensionSchema product, ProductSchema());
  // Every category satisfiable in both.
  for (const DimensionSchema* ds : {&healthcare, &product}) {
    for (CategoryId c = 0; c < ds->hierarchy().num_categories(); ++c) {
      EXPECT_TRUE(RunDimsat(*ds, c).satisfiable)
          << ds->hierarchy().CategoryName(c);
    }
  }
  // Healthcare heterogeneity: exactly two diagnosis structures.
  DimsatResult frozen = EnumerateFrozenDimensions(
      healthcare, healthcare.hierarchy().FindCategory("Diagnosis"));
  ASSERT_OK(frozen.status);
  EXPECT_EQ(frozen.frozen.size(), 2u);
  // Generated instances over both schemas are valid models.
  for (const DimensionSchema* ds : {&healthcare, &product}) {
    InstanceGenOptions gen;
    gen.branching = 2;
    ASSERT_OK_AND_ASSIGN(DimensionInstance d,
                         GenerateInstanceFromFrozen(*ds, gen));
    EXPECT_OK(d.Validate());
    EXPECT_TRUE(SatisfiesAll(d, ds->constraints()));
  }
}

}  // namespace
}  // namespace olapdc
