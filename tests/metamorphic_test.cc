// Metamorphic properties of the reasoner: transformations of the input
// that must not change (or must change predictably) the output.
//
//  M1 Constraint order irrelevance: permuting Sigma leaves the frozen
//     set unchanged.
//  M2 Implied-constraint invariance: adding a constraint the schema
//     already implies leaves the frozen set unchanged.
//  M3 Isomorphism invariance: renaming categories (rebuilding the
//     schema under a permuted insertion order) preserves frozen counts
//     and satisfiability.
//  M4 Constraint strengthening monotonicity: adding any constraint can
//     only shrink the frozen set (as a set of structures).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>

#include "constraint/parser.h"
#include "constraint/printer.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/location_example.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

std::multiset<std::string> FrozenSet(const DimensionSchema& ds,
                                     CategoryId root) {
  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult r = RunDimsat(ds, root, options);
  OLAPDC_CHECK(r.status.ok());
  std::multiset<std::string> out;
  for (const FrozenDimension& f : r.frozen) {
    out.insert(f.ToString(ds.hierarchy()));
  }
  return out;
}

class MetamorphicTest : public ::testing::TestWithParam<int> {
 protected:
  DimensionSchema RandomSchema(int seed) {
    SchemaGenOptions schema_options;
    schema_options.num_levels = 2;
    schema_options.categories_per_level = 2;
    schema_options.extra_edge_prob = 0.35;
    schema_options.seed = static_cast<uint64_t>(seed) * 271 + 13;
    auto hierarchy = GenerateLayeredHierarchy(schema_options);
    OLAPDC_CHECK(hierarchy.ok());
    ConstraintGenOptions constraint_options;
    constraint_options.into_fraction = 0.4;
    constraint_options.num_choice_constraints = 1;
    constraint_options.num_equality_constraints = 1;
    constraint_options.seed = seed;
    auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
    OLAPDC_CHECK(ds.ok());
    return std::move(ds).ValueOrDie();
  }
};

TEST_P(MetamorphicTest, M1ConstraintOrderIrrelevant) {
  DimensionSchema ds = RandomSchema(GetParam());
  CategoryId base = ds.hierarchy().FindCategory("Base");
  auto original = FrozenSet(ds, base);

  std::vector<DimensionConstraint> shuffled = ds.constraints();
  std::mt19937_64 rng(GetParam());
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  DimensionSchema permuted(ds.hierarchy_ptr(), std::move(shuffled));
  EXPECT_EQ(FrozenSet(permuted, base), original);
}

TEST_P(MetamorphicTest, M2AddingImpliedConstraintChangesNothing) {
  DimensionSchema ds = RandomSchema(GetParam());
  CategoryId base = ds.hierarchy().FindCategory("Base");
  auto original = FrozenSet(ds, base);
  if (ds.constraints().empty()) GTEST_SKIP();

  // Weaken an existing constraint: c | anything is implied by c.
  const DimensionConstraint& c = ds.constraints().front();
  DimensionConstraint weakened{
      c.root, MakeOr({c.expr, MakeComposedAtom(c.root, ds.hierarchy().all())}),
      "weak"};
  ASSERT_OK_AND_ASSIGN(ImplicationResult check, Implies(ds, weakened));
  ASSERT_TRUE(check.implied);
  DimensionSchema extended = ds.WithExtraConstraint(weakened);
  EXPECT_EQ(FrozenSet(extended, base), original);
}

TEST_P(MetamorphicTest, M4StrengtheningShrinksTheFrozenSet) {
  DimensionSchema ds = RandomSchema(GetParam());
  const HierarchySchema& schema = ds.hierarchy();
  CategoryId base = schema.FindCategory("Base");
  auto original = FrozenSet(ds, base);

  // Force an arbitrary extra condition rooted at Base.
  CategoryId target = schema.graph().OutNeighbors(base).front();
  DimensionSchema strengthened = ds.WithExtraConstraint(
      DimensionConstraint{base, MakePathAtom({base, target}), "force"});
  auto restricted = FrozenSet(strengthened, base);
  EXPECT_LE(restricted.size(), original.size());
  for (const std::string& f : restricted) {
    EXPECT_TRUE(original.count(f) > 0)
        << "strengthening may only filter, never invent: " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicTest, ::testing::Range(0, 15));

TEST(IsomorphismTest, M3LocationUnderReversedInsertion) {
  // Build locationSch with edges inserted in reverse order: category
  // ids permute, reasoning results must not.
  ASSERT_OK_AND_ASSIGN(DimensionSchema original, LocationSchema());
  HierarchySchemaBuilder builder;
  auto edges = original.hierarchy().graph().Edges();
  std::reverse(edges.begin(), edges.end());
  for (const auto& [u, v] : edges) {
    builder.AddEdge(original.hierarchy().CategoryName(u),
                    original.hierarchy().CategoryName(v));
  }
  ASSERT_OK_AND_ASSIGN(HierarchySchemaPtr reversed, builder.BuildShared());
  std::vector<DimensionConstraint> constraints;
  for (const DimensionConstraint& c : original.constraints()) {
    constraints.push_back(testing_util::ParseC(
        *reversed, ExprToString(original.hierarchy(), c.expr), c.label));
  }
  DimensionSchema renamed(reversed, std::move(constraints));

  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult a = RunDimsat(
      original, original.hierarchy().FindCategory("Store"), options);
  DimsatResult b =
      RunDimsat(renamed, reversed->FindCategory("Store"), options);
  ASSERT_OK(a.status);
  ASSERT_OK(b.status);
  EXPECT_EQ(a.frozen.size(), b.frozen.size());
  EXPECT_EQ(a.satisfiable, b.satisfiable);
  // Structure sets agree after normalizing ids back to names.
  auto canonical = [](const std::vector<FrozenDimension>& frozen,
                      const HierarchySchema& schema) {
    std::multiset<std::string> out;
    for (const FrozenDimension& f : frozen) {
      std::multiset<std::string> edge_names;
      for (auto [u, v] : f.edges) {
        edge_names.insert(schema.CategoryName(u) + ">" +
                          schema.CategoryName(v));
      }
      std::string key;
      for (const std::string& e : edge_names) key += e + ";";
      out.insert(std::move(key));
    }
    return out;
  };
  EXPECT_EQ(canonical(a.frozen, original.hierarchy()),
            canonical(b.frozen, *reversed));
}

}  // namespace
}  // namespace olapdc
