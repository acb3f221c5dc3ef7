// Differential testing: DIMSAT against the brute-force Theorem 3
// oracle, on the paper's schema and on random generated workloads, and
// on implication questions whose α carries composed and through atoms
// (DIMSAT reads them off g's reachability; NaiveSat expands them).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "constraint/printer.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "core/naive_sat.h"
#include "core/summarizability.h"
#include "tests/test_util.h"
#include "workload/realistic.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

/// Canonical text form of a frozen-dimension set for comparison.
std::vector<std::string> Canonical(const std::vector<FrozenDimension>& fs,
                                   const HierarchySchema& schema) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const FrozenDimension& f : fs) out.push_back(f.ToString(schema));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(NaiveVsDimsatTest, LocationSchemaAgreesExactly) {
  auto ds_result = LocationSchema();
  ASSERT_TRUE(ds_result.ok());
  const DimensionSchema& ds = *ds_result;
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    DimsatOptions options;
    options.enumerate_all = true;
    DimsatResult dimsat = RunDimsat(ds, c, options);
    ASSERT_OK(dimsat.status);
    NaiveSatOptions naive_options;
    naive_options.enumerate_all = true;
    ASSERT_OK_AND_ASSIGN(DimsatResult naive, NaiveSat(ds, c, naive_options));
    EXPECT_EQ(dimsat.satisfiable, naive.satisfiable)
        << ds.hierarchy().CategoryName(c);
    EXPECT_EQ(Canonical(dimsat.frozen, ds.hierarchy()),
              Canonical(naive.frozen, ds.hierarchy()))
        << ds.hierarchy().CategoryName(c);
  }
}

TEST(NaiveVsDimsatTest, NaiveRefusesOversizedInputs) {
  auto ds_result = LocationSchema();
  ASSERT_TRUE(ds_result.ok());
  NaiveSatOptions options;
  options.max_edges = 3;
  CategoryId store = ds_result->hierarchy().FindCategory("Store");
  EXPECT_EQ(NaiveSat(*ds_result, store, options).status().code(),
            StatusCode::kResourceExhausted);
}

// Property sweep: random layered schemas with random constraints; both
// procedures must produce identical frozen-dimension sets from the
// bottom category.
class RandomDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDifferentialTest, FrozenSetsAgree) {
  const int seed = GetParam();
  SchemaGenOptions schema_options;
  schema_options.num_levels = 2 + (seed % 2);
  schema_options.categories_per_level = 2;
  schema_options.extra_edge_prob = 0.35;
  schema_options.seed = static_cast<uint64_t>(seed) * 7919 + 1;
  auto hierarchy = GenerateLayeredHierarchy(schema_options);
  ASSERT_TRUE(hierarchy.ok());

  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.3 + 0.1 * (seed % 5);
  constraint_options.num_choice_constraints = seed % 3;
  constraint_options.num_equality_constraints = seed % 3;
  constraint_options.seed = static_cast<uint64_t>(seed) * 104729 + 3;
  auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
  ASSERT_TRUE(ds.ok());

  CategoryId base = ds->hierarchy().FindCategory("Base");
  ASSERT_NE(base, kNoCategory);

  DimsatOptions dimsat_options;
  dimsat_options.enumerate_all = true;
  DimsatResult dimsat = RunDimsat(*ds, base, dimsat_options);
  ASSERT_OK(dimsat.status);

  NaiveSatOptions naive_options;
  naive_options.enumerate_all = true;
  naive_options.max_edges = 22;
  auto naive = NaiveSat(*ds, base, naive_options);
  if (!naive.ok()) GTEST_SKIP() << "edge count beyond brute-force budget";

  EXPECT_EQ(dimsat.satisfiable, naive->satisfiable) << "seed " << seed;
  EXPECT_EQ(Canonical(dimsat.frozen, ds->hierarchy()),
            Canonical(naive->frozen, ds->hierarchy()))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDifferentialTest,
                         ::testing::Range(0, 30));

// The ablations must also agree with the oracle (soundness does not
// depend on pruning).
class AblationDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(AblationDifferentialTest, UnprunedSearchAgrees) {
  const int seed = GetParam();
  SchemaGenOptions schema_options;
  schema_options.num_levels = 2;
  schema_options.categories_per_level = 2;
  schema_options.extra_edge_prob = 0.4;
  schema_options.seed = static_cast<uint64_t>(seed) * 31 + 17;
  auto hierarchy = GenerateLayeredHierarchy(schema_options);
  ASSERT_TRUE(hierarchy.ok());
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.6;
  constraint_options.num_choice_constraints = 1;
  constraint_options.seed = seed;
  auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
  ASSERT_TRUE(ds.ok());
  CategoryId base = ds->hierarchy().FindCategory("Base");

  DimsatOptions pruned;
  pruned.enumerate_all = true;
  DimsatOptions unpruned = pruned;
  unpruned.prune_shortcuts = false;
  unpruned.prune_cycles = false;
  unpruned.prune_into = false;

  DimsatResult a = RunDimsat(*ds, base, pruned);
  DimsatResult b = RunDimsat(*ds, base, unpruned);
  ASSERT_OK(a.status);
  ASSERT_OK(b.status);
  EXPECT_EQ(Canonical(a.frozen, ds->hierarchy()),
            Canonical(b.frozen, ds->hierarchy()))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AblationDifferentialTest,
                         ::testing::Range(0, 15));

/// The α of implication questions rooted at c, in the shapes the
/// service workloads ask: c.a, c.m.a and c/p -> c.a for every ancestor
/// a, intermediate m and parent p of c, and Theorem 1's c.a ⊃ ⊙ c.m.a
/// over each single m and over every m between c and a.
std::vector<ExprPtr> ShorthandAlphas(const HierarchySchema& schema,
                                     CategoryId c) {
  std::vector<ExprPtr> alphas;
  const DynamicBitset& up = schema.UpSet(c);
  up.ForEach([&](int a) {
    if (a == c) return;
    alphas.push_back(MakeComposedAtom(c, a));
    for (CategoryId p : schema.graph().OutNeighbors(c)) {
      alphas.push_back(
          MakeImplies(MakePathAtom({c, p}), MakeComposedAtom(c, a)));
    }
    std::vector<CategoryId> between;
    up.ForEach([&](int m) {
      if (m == c || m == a || !schema.Reaches(m, a)) return;
      between.push_back(m);
      alphas.push_back(MakeThroughAtom(c, m, a));
      auto single = SummarizabilityConstraint(schema, c, a, {m});
      OLAPDC_CHECK(single.ok());
      alphas.push_back(single->expr);
    });
    auto all = SummarizabilityConstraint(schema, c, a, between);
    OLAPDC_CHECK(all.ok());
    alphas.push_back(all->expr);
  });
  return alphas;
}

/// For every bottom category c and α of ShorthandAlphas(c): DIMSAT,
/// monolithic and decomposed, lists NaiveSat's model set of Σ ∪ {¬α}.
void ExpectShorthandQuestionsAgree(const DimensionSchema& ds,
                                   const std::string& name) {
  const HierarchySchema& schema = ds.hierarchy();
  for (CategoryId c : schema.bottom_categories()) {
    if (c == schema.all()) continue;
    for (const ExprPtr& alpha : ShorthandAlphas(schema, c)) {
      const std::string question =
          name + ": not " + ExprToString(schema, alpha);
      const DimensionSchema extended =
          ds.WithExtraConstraint(DimensionConstraint{c, MakeNot(alpha), ""});
      NaiveSatOptions naive_options;
      naive_options.enumerate_all = true;
      ASSERT_OK_AND_ASSIGN(DimsatResult naive,
                           NaiveSat(extended, c, naive_options));
      for (bool decompose : {false, true}) {
        DimsatOptions options;
        options.enumerate_all = true;
        options.decompose = decompose;
        const DimsatResult dimsat = RunDimsat(extended, c, options);
        ASSERT_OK(dimsat.status);
        EXPECT_EQ(Canonical(dimsat.frozen, schema),
                  Canonical(naive.frozen, schema))
            << question << (decompose ? " (decomposed)" : "");
      }
    }
  }
}

TEST(NaiveVsDimsatTest, ShorthandQuestionsOnTheBuiltInSchemas) {
  for (auto make : {LocationSchema, HealthcareSchema, ProductSchema,
                    TimeSchema}) {
    ASSERT_OK_AND_ASSIGN(DimensionSchema ds, make());
    const HierarchySchema& schema = ds.hierarchy();
    ASSERT_NO_FATAL_FAILURE(ExpectShorthandQuestionsAgree(
        ds, schema.CategoryName(schema.bottom_categories()[0])));
  }
}

// Small generated schemas: layered ones with random constraints, and
// two-component ones, where the decomposed search splits.
class ShorthandDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ShorthandDifferentialTest, ImplicationModelSetsAgree) {
  const int seed = GetParam();
  if (seed % 2 == 0) {
    SchemaGenOptions schema_options;
    schema_options.num_levels = 2;
    schema_options.categories_per_level = 2;
    schema_options.extra_edge_prob = 0.4;
    schema_options.seed = static_cast<uint64_t>(seed) * 7717 + 29;
    auto hierarchy = GenerateLayeredHierarchy(schema_options);
    ASSERT_TRUE(hierarchy.ok());
    ConstraintGenOptions constraint_options;
    constraint_options.into_fraction = 0.3;
    constraint_options.num_choice_constraints = seed % 3;
    constraint_options.num_equality_constraints = (seed / 2) % 2;
    constraint_options.seed = static_cast<uint64_t>(seed) * 331 + 1;
    auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
    ASSERT_TRUE(ds.ok());
    ExpectShorthandQuestionsAgree(*ds, "layered seed " + std::to_string(seed));
  } else {
    MultiComponentGenOptions options;
    options.num_components = 2;
    options.levels_per_component = 1;
    options.categories_per_level = 2;
    options.seed = static_cast<uint64_t>(seed) * 613 + 7;
    auto ds = GenerateMultiComponentSchema(options);
    ASSERT_TRUE(ds.ok());
    ExpectShorthandQuestionsAgree(*ds,
                                  "two-component seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShorthandDifferentialTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace olapdc
