// End-to-end integration: generate schema -> instance -> facts, then
// drive the aggregate navigator and check every answer against direct
// computation from base facts. This exercises the full pipeline the
// paper motivates: dimension constraints -> DIMSAT -> summarizability
// -> correct aggregate navigation.

#include <gtest/gtest.h>

#include <map>

#include "constraint/evaluator.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "core/summarizability.h"
#include "olap/navigator.h"
#include "tests/test_util.h"
#include "workload/instance_generator.h"
#include "workload/realistic.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

void RunNavigatorPipeline(const DimensionSchema& ds, uint64_t seed,
                          NavigatorMode mode) {
  InstanceGenOptions gen;
  gen.branching = 2;
  gen.copies = 2;
  auto d_result = GenerateInstanceFromFrozen(ds, gen);
  ASSERT_TRUE(d_result.ok()) << d_result.status().ToString();
  const DimensionInstance& d = *d_result;
  ASSERT_TRUE(SatisfiesAll(d, ds.constraints()));

  FactGenOptions fact_options;
  fact_options.seed = seed;
  FactTable facts = GenerateFacts(d, fact_options);
  ASSERT_OK(facts.ValidateAgainst(d));

  const HierarchySchema& schema = ds.hierarchy();
  // Materialize every category except All and the bottoms.
  std::map<CategoryId, CubeViewResult> materialized;
  std::vector<CategoryId> categories;
  DynamicBitset excluded(schema.num_categories());
  excluded.set(schema.all());
  for (CategoryId b : schema.bottom_categories()) excluded.set(b);
  for (CategoryId c = 0; c < schema.num_categories(); ++c) {
    if (!excluded.test(c)) {
      materialized[c] = ComputeCubeView(d, facts, c, AggFn::kSum);
    }
  }

  NavigatorOptions options;
  options.mode = mode;
  int answered = 0;
  for (CategoryId target = 0; target < schema.num_categories(); ++target) {
    if (excluded.test(target) && target != schema.all()) continue;
    auto answer =
        AnswerFromViews(ds, d, materialized, target, AggFn::kSum, options);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    if (!answer->answered) continue;
    ++answered;
    CubeViewResult direct = ComputeCubeView(d, facts, target, AggFn::kSum);
    EXPECT_TRUE(CubeViewsEqual(answer->view, direct))
        << "navigator answer diverged for "
        << schema.CategoryName(target);
  }
  // At least the materialized categories themselves are answerable.
  EXPECT_GT(answered, 0);
}

TEST(IntegrationTest, LocationPipelineSchemaLevel) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  RunNavigatorPipeline(ds, 1, NavigatorMode::kSchemaLevel);
}

TEST(IntegrationTest, LocationPipelineInstanceLevel) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  RunNavigatorPipeline(ds, 2, NavigatorMode::kInstanceLevel);
}

TEST(IntegrationTest, HealthcarePipeline) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, HealthcareSchema());
  RunNavigatorPipeline(ds, 3, NavigatorMode::kSchemaLevel);
}

TEST(IntegrationTest, ProductPipeline) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, ProductSchema());
  RunNavigatorPipeline(ds, 4, NavigatorMode::kSchemaLevel);
}

class GeneratedPipelineTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedPipelineTest, NavigatorNeverLies) {
  const int seed = GetParam();
  SchemaGenOptions schema_options;
  schema_options.num_levels = 2;
  schema_options.categories_per_level = 2;
  schema_options.extra_edge_prob = 0.35;
  schema_options.seed = static_cast<uint64_t>(seed) * 101 + 7;
  auto hierarchy = GenerateLayeredHierarchy(schema_options);
  ASSERT_TRUE(hierarchy.ok());
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.5;
  constraint_options.num_choice_constraints = 1;
  constraint_options.seed = seed;
  auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
  ASSERT_TRUE(ds.ok());
  if (!RunDimsat(*ds, ds->hierarchy().FindCategory("Base")).satisfiable) {
    GTEST_SKIP() << "generated schema unsatisfiable at Base";
  }
  RunNavigatorPipeline(*ds, seed, NavigatorMode::kSchemaLevel);
  RunNavigatorPipeline(*ds, seed, NavigatorMode::kInstanceLevel);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedPipelineTest, ::testing::Range(0, 10));

// Instance-level navigation is a superset of schema-level navigation:
// anything the schema proves, the instance admits too (Theorem 1 is an
// instance property; the schema quantifies over instances).
class ModeMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(ModeMonotonicityTest, SchemaRewritesAreInstanceRewrites) {
  const int seed = GetParam();
  auto ds_result = LocationSchema();
  ASSERT_TRUE(ds_result.ok());
  const DimensionSchema& ds = *ds_result;
  InstanceGenOptions gen;
  gen.branching = 1 + seed % 3;
  auto d_result = GenerateInstanceFromFrozen(ds, gen);
  ASSERT_TRUE(d_result.ok());
  const DimensionInstance& d = *d_result;
  const HierarchySchema& schema = ds.hierarchy();

  std::vector<CategoryId> middles;
  for (CategoryId c = 0; c < schema.num_categories(); ++c) {
    if (c != schema.all() && schema.graph().InDegree(c) > 0) {
      middles.push_back(c);
    }
  }
  for (CategoryId target : middles) {
    NavigatorOptions schema_mode;
    auto schema_rewrite =
        FindRewriteSet(ds, d, middles, target, schema_mode);
    ASSERT_TRUE(schema_rewrite.ok());
    if (!schema_rewrite->has_value()) continue;
    // The exact set found at schema level must verify at instance
    // level too.
    auto inst = IsSummarizableInInstance(d, target, **schema_rewrite);
    ASSERT_TRUE(inst.ok());
    EXPECT_TRUE(*inst) << schema.CategoryName(target);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeMonotonicityTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace olapdc
