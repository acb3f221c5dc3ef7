// Tests for the circle operator Sigma ∘ g (Definition 8), including a
// verbatim reproduction of Figure 5 on the Example 12 subhierarchy, and
// a property test holding its reachability reading of composed and
// through atoms to their simple-path expansions.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "constraint/normalize.h"
#include "constraint/printer.h"
#include "core/assignment.h"
#include "core/circle.h"
#include "core/location_example.h"
#include "core/schema.h"
#include "tests/test_util.h"
#include "workload/realistic.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

class CircleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(ds_, LocationSchema());
    const HierarchySchema& schema = ds_->hierarchy();
    store_ = schema.FindCategory("Store");
    city_ = schema.FindCategory("City");
    province_ = schema.FindCategory("Province");
    state_ = schema.FindCategory("State");
    sale_region_ = schema.FindCategory("SaleRegion");
    country_ = schema.FindCategory("Country");
    all_ = schema.all();
  }

  /// The Example 12 subhierarchy: a "mixed" structure containing both
  /// Province and State:
  ///   Store->City, City->{Province, State}, Province->SaleRegion,
  ///   State->Country, SaleRegion->Country, Country->All.
  Subhierarchy Example12Subhierarchy() {
    auto g = Subhierarchy::FromEdges(
        ds_->hierarchy().num_categories(), store_, all_,
        {{store_, city_},
         {city_, province_},
         {city_, state_},
         {province_, sale_region_},
         {state_, country_},
         {sale_region_, country_},
         {country_, all_}});
    OLAPDC_CHECK(g.has_value());
    return *g;
  }

  std::string Circled(const DimensionConstraint& c, const Subhierarchy& g) {
    PrinterOptions paper;
    paper.paper_symbols = true;
    return ExprToString(ds_->hierarchy(),
                        ApplyCircleToConstraint(c, g), paper);
  }

  std::optional<DimensionSchema> ds_;
  CategoryId store_, city_, province_, state_, sale_region_, country_, all_;
};

TEST_F(CircleTest, Figure5Reproduction) {
  Subhierarchy g = Example12Subhierarchy();
  EXPECT_FALSE(g.HasCycleIn());
  EXPECT_FALSE(g.HasShortcut());

  const auto& sigma = ds_->constraints();
  ASSERT_EQ(sigma.size(), 7u);

  // Figure 5, right column, row by row.
  EXPECT_EQ(Circled(sigma[0], g), "⊤");  // (a) Store_City
  EXPECT_EQ(Circled(sigma[1], g), "⊤");  // (b) Store.SaleRegion
  EXPECT_EQ(Circled(sigma[2], g),
            "City≈Washington ≡ ⊥");  // (c)
  EXPECT_EQ(Circled(sigma[3], g),
            "City≈Washington ⊃ City.Country≈USA");  // (d) unchanged
  EXPECT_EQ(Circled(sigma[4], g),
            "State.Country≈Mexico ∨ State.Country≈USA");  // (e) unchanged
  EXPECT_EQ(Circled(sigma[5], g),
            "State.Country≈Mexico ≡ ⊥");  // (f)
  EXPECT_EQ(Circled(sigma[6], g),
            "Province.Country≈Canada");  // (g) unchanged
}

TEST_F(CircleTest, Example12SubhierarchyInducesNoFrozenDimension) {
  // (e) forces Country ∈ {Mexico, USA}; (g) forces Country = Canada.
  // The mixed subhierarchy therefore fails CHECK — the schema keeps the
  // Canadian and Mexican/US structures apart.
  Subhierarchy g = Example12Subhierarchy();
  std::vector<ExprPtr> circled;
  for (const DimensionConstraint& c : ds_->constraints()) {
    ExprPtr e = Simplify(ApplyCircleToConstraint(c, g));
    if (!IsTrueLiteral(e)) circled.push_back(e);
  }
  AssignmentSearchResult search = FindAssignments(g, circled);
  EXPECT_TRUE(search.assignments.empty());
}

TEST_F(CircleTest, ConstraintWithRootOutsideGIsVacuous) {
  // The Canada structure contains no State category; the State-rooted
  // constraints (e) and (f) must circle to ⊤, not ⊥ (DESIGN.md
  // deviation 1).
  auto g = Subhierarchy::FromEdges(
      ds_->hierarchy().num_categories(), store_, all_,
      {{store_, city_},
       {city_, province_},
       {province_, sale_region_},
       {sale_region_, country_},
       {country_, all_}});
  ASSERT_TRUE(g.has_value());
  const auto& sigma = ds_->constraints();
  EXPECT_TRUE(IsTrueLiteral(ApplyCircleToConstraint(sigma[4], *g)));
  EXPECT_TRUE(IsTrueLiteral(ApplyCircleToConstraint(sigma[5], *g)));
  // And the Canada structure does induce a frozen dimension.
  std::vector<ExprPtr> circled;
  for (const DimensionConstraint& c : sigma) {
    ExprPtr e = Simplify(ApplyCircleToConstraint(c, *g));
    ASSERT_FALSE(IsFalseLiteral(e)) << c.label;
    if (!IsTrueLiteral(e)) circled.push_back(e);
  }
  AssignmentSearchResult search = FindAssignments(*g, circled);
  ASSERT_EQ(search.assignments.size(), 1u);
  EXPECT_EQ(search.assignments[0][country_], "Canada");
  EXPECT_FALSE(search.assignments[0][city_].has_value());  // nk
}

TEST_F(CircleTest, PathAtomsReplacedByTruthValues) {
  Subhierarchy g = Example12Subhierarchy();
  ExprPtr in_g = MakePathAtom({store_, city_, province_});
  ExprPtr not_in_g = MakePathAtom({store_, sale_region_});
  EXPECT_TRUE(IsTrueLiteral(ApplyCircleToExpr(in_g, g)));
  EXPECT_TRUE(IsFalseLiteral(ApplyCircleToExpr(not_in_g, g)));
}

TEST_F(CircleTest, ComposedAndThroughAtomsCircledByReachability) {
  Subhierarchy g = Example12Subhierarchy();
  EXPECT_TRUE(IsTrueLiteral(
      ApplyCircleToExpr(MakeComposedAtom(store_, country_), g)));
  EXPECT_TRUE(IsTrueLiteral(
      ApplyCircleToExpr(MakeThroughAtom(store_, state_, country_), g)));
  // No path from Store through SaleRegion to State exists in g:
  EXPECT_TRUE(IsFalseLiteral(ApplyCircleToExpr(
      MakeThroughAtom(store_, sale_region_, state_), g)));
  EXPECT_TRUE(IsTrueLiteral(
      ApplyCircleToExpr(MakeComposedAtom(store_, store_), g)));
}

TEST_F(CircleTest, EqualityAtomTargetOutsideReachIsFalse) {
  Subhierarchy g = Example12Subhierarchy();
  // Province-rooted atom about State: no path Province -> State.
  ExprPtr atom = MakeEqualityAtom(province_, state_, "x");
  EXPECT_TRUE(IsFalseLiteral(ApplyCircleToExpr(atom, g)));
}

/// Params 0-3: the built-in schemas (locationSch and the healthcare,
/// product and time schemas); the rest: small generated layered ones.
HierarchySchemaPtr ShorthandSchema(int param) {
  if (param < 4) {
    Result<DimensionSchema> ds = param == 0   ? LocationSchema()
                                 : param == 1 ? HealthcareSchema()
                                 : param == 2 ? ProductSchema()
                                              : TimeSchema();
    OLAPDC_CHECK(ds.ok()) << ds.status().ToString();
    return ds->hierarchy_ptr();
  }
  SchemaGenOptions options;
  options.num_levels = 3;
  options.categories_per_level = 2;
  options.extra_edge_prob = 0.4;
  options.seed = static_cast<uint64_t>(param) * 389 + 5;
  auto hierarchy = GenerateLayeredHierarchy(options);
  OLAPDC_CHECK(hierarchy.ok()) << hierarchy.status().ToString();
  return *hierarchy;
}

class ShorthandReachabilityTest : public ::testing::TestWithParam<int> {};

// Random walks of EXPAND steps from every root. On each acyclic,
// shortcut-free g a walk reaches, every composed and through atom over
// the schema's categories circles to the value of its simple-path
// expansion, and FoldShorthands folds an atom only to that value.
TEST_P(ShorthandReachabilityTest, CircledAtomEqualsCircledExpansion) {
  const HierarchySchemaPtr schema = ShorthandSchema(GetParam());
  const int n = schema->num_categories();
  struct Atom {
    ExprPtr atom;
    ExprPtr expanded;
    ExprPtr folded;
  };
  std::vector<Atom> atoms;
  auto add = [&](ExprPtr atom) {
    ASSERT_OK_AND_ASSIGN(ExprPtr expanded, ExpandShorthands(*schema, atom));
    ExprPtr folded = FoldShorthands(*schema, atom);
    atoms.push_back(Atom{std::move(atom), std::move(expanded),
                         std::move(folded)});
  };
  for (CategoryId c = 0; c < n; ++c) {
    for (CategoryId cj = 0; cj < n; ++cj) {
      ASSERT_NO_FATAL_FAILURE(add(MakeComposedAtom(c, cj)));
      for (CategoryId ci = 0; ci < n; ++ci) {
        ASSERT_NO_FATAL_FAILURE(add(MakeThroughAtom(c, ci, cj)));
      }
    }
  }

  std::mt19937_64 rng(GetParam() * 131 + 7);
  uint64_t checked = 0;
  for (CategoryId root = 0; root < n; ++root) {
    if (root == schema->all()) continue;
    for (int walk = 0; walk < 4; ++walk) {
      Subhierarchy g(n, root);
      SubhierarchyUndoLog log;
      for (;;) {
        if (!g.HasCycleIn() && !g.HasShortcut()) {
          ++checked;
          for (const Atom& a : atoms) {
            const ExprPtr direct = Simplify(ApplyCircleToExpr(a.atom, g));
            ASSERT_TRUE(ExprEquals(
                direct, Simplify(ApplyCircleToExpr(a.expanded, g))))
                << ExprToString(*schema, a.atom) << " on "
                << g.num_edges() << "-edge g from "
                << schema->CategoryName(root);
            if (a.folded->IsLiteralTruth()) {
              ASSERT_TRUE(ExprEquals(a.folded, direct))
                  << ExprToString(*schema, a.atom);
            }
          }
        }
        std::vector<CategoryId> expandable;
        g.top().ForEach([&](int c) {
          if (c != schema->all()) expandable.push_back(c);
        });
        if (expandable.empty()) break;
        const CategoryId ctop = expandable[rng() % expandable.size()];
        const std::vector<int>& parents = schema->graph().OutNeighbors(ctop);
        DynamicBitset r(n);
        while (r.none()) {
          for (int p : parents) {
            if (rng() % 2 == 0) r.set(p);
          }
        }
        g.ExpandLogged(ctop, r, &log);
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemas, ShorthandReachabilityTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace olapdc
