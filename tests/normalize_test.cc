// Tests for shorthand expansion (Sections 3.1 and 3.3), the folding of
// g-independent shorthand atoms, and truth-constant simplification.

#include <gtest/gtest.h>

#include <tuple>

#include "constraint/normalize.h"
#include "constraint/parser.h"
#include "constraint/printer.h"
#include "core/location_example.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

class NormalizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(schema_, LocationHierarchy());
    store_ = schema_->FindCategory("Store");
    city_ = schema_->FindCategory("City");
    state_ = schema_->FindCategory("State");
    province_ = schema_->FindCategory("Province");
    sale_region_ = schema_->FindCategory("SaleRegion");
    country_ = schema_->FindCategory("Country");
  }

  int CountPathAtoms(const ExprPtr& e) {
    std::vector<const Expr*> atoms;
    CollectAtoms(e, &atoms);
    int count = 0;
    for (const Expr* a : atoms) count += (a->kind == ExprKind::kPathAtom);
    return count;
  }

  HierarchySchemaPtr schema_;
  CategoryId store_, city_, state_, province_, sale_region_, country_;
};

TEST_F(NormalizeTest, ComposedAtomExpandsToAllSimplePaths) {
  // Store rolls up to SaleRegion via: Store/SaleRegion,
  // Store/City/Province/SaleRegion, Store/City/State/SaleRegion.
  ASSERT_OK_AND_ASSIGN(
      ExprPtr e,
      ExpandShorthands(*schema_, MakeComposedAtom(store_, sale_region_)));
  EXPECT_EQ(e->kind, ExprKind::kOr);
  EXPECT_EQ(CountPathAtoms(e), 3);
}

TEST_F(NormalizeTest, ComposedAtomSameCategoryIsTrue) {
  ASSERT_OK_AND_ASSIGN(
      ExprPtr e, ExpandShorthands(*schema_, MakeComposedAtom(store_, store_)));
  EXPECT_TRUE(IsTrueLiteral(e));
}

TEST_F(NormalizeTest, ComposedAtomUnreachableIsFalse) {
  ASSERT_OK_AND_ASSIGN(
      ExprPtr e,
      ExpandShorthands(*schema_, MakeComposedAtom(country_, store_)));
  EXPECT_TRUE(IsFalseLiteral(e));
}

TEST_F(NormalizeTest, ThroughAtomFiveCases) {
  // c == ci == cj: True.
  ASSERT_OK_AND_ASSIGN(
      ExprPtr all_equal,
      ExpandShorthands(*schema_, MakeThroughAtom(store_, store_, store_)));
  EXPECT_TRUE(IsTrueLiteral(all_equal));

  // c == cj != ci: False.
  ASSERT_OK_AND_ASSIGN(
      ExprPtr back_to_self,
      ExpandShorthands(*schema_, MakeThroughAtom(store_, city_, store_)));
  EXPECT_TRUE(IsFalseLiteral(back_to_self));

  // c == ci != cj: same as c.cj.
  ASSERT_OK_AND_ASSIGN(
      ExprPtr via_self,
      ExpandShorthands(*schema_, MakeThroughAtom(store_, store_, country_)));
  ASSERT_OK_AND_ASSIGN(
      ExprPtr composed,
      ExpandShorthands(*schema_, MakeComposedAtom(store_, country_)));
  EXPECT_TRUE(ExprEquals(via_self, composed));

  // ci == cj != c: same as c.ci.
  ASSERT_OK_AND_ASSIGN(
      ExprPtr to_via,
      ExpandShorthands(*schema_, MakeThroughAtom(store_, city_, city_)));
  ASSERT_OK_AND_ASSIGN(
      ExprPtr composed_city,
      ExpandShorthands(*schema_, MakeComposedAtom(store_, city_)));
  EXPECT_TRUE(ExprEquals(to_via, composed_city));

  // All distinct: only paths through the via category.
  ASSERT_OK_AND_ASSIGN(
      ExprPtr through_prov,
      ExpandShorthands(*schema_,
                       MakeThroughAtom(store_, province_, country_)));
  // Exactly one simple path Store..Country passes through Province:
  // Store/City/Province/SaleRegion/Country.
  EXPECT_EQ(through_prov->kind, ExprKind::kPathAtom);
  EXPECT_EQ(through_prov->path.size(), 5u);
}

TEST_F(NormalizeTest, ThroughAtomNoMatchingPathIsFalse) {
  // No path from Province to Country passes through City.
  ASSERT_OK_AND_ASSIGN(
      ExprPtr e,
      ExpandShorthands(*schema_, MakeThroughAtom(province_, city_, country_)));
  EXPECT_TRUE(IsFalseLiteral(e));
}

TEST_F(NormalizeTest, ExpansionRecursesThroughConnectives) {
  ASSERT_OK_AND_ASSIGN(
      ExprPtr parsed,
      ParseExpr(*schema_, "Store.SaleRegion -> Store.City.Country"));
  ASSERT_OK_AND_ASSIGN(ExprPtr expanded, ExpandShorthands(*schema_, parsed));
  std::vector<const Expr*> atoms;
  CollectAtoms(expanded, &atoms);
  for (const Expr* a : atoms) {
    EXPECT_TRUE(a->kind == ExprKind::kPathAtom ||
                a->kind == ExprKind::kEqualityAtom);
  }
}

TEST_F(NormalizeTest, ExpansionIsIdentityWithoutShorthands) {
  ASSERT_OK_AND_ASSIGN(ExprPtr parsed,
                       ParseExpr(*schema_, "Store/City & !Store/SaleRegion"));
  ASSERT_OK_AND_ASSIGN(ExprPtr expanded, ExpandShorthands(*schema_, parsed));
  EXPECT_EQ(parsed, expanded);  // same node, not merely equal
}

TEST_F(NormalizeTest, PathLimitEnforced) {
  EXPECT_EQ(ExpandShorthands(*schema_, MakeComposedAtom(store_, country_),
                             /*path_limit=*/2)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  // The limit bounds the whole expression: Store.Country abbreviates 5
  // simple paths, so two of them need 10.
  const ExprPtr twice = MakeOr({MakeComposedAtom(store_, country_),
                                MakeComposedAtom(store_, country_)});
  EXPECT_EQ(ExpandShorthands(*schema_, twice, /*path_limit=*/9)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(ExpandShorthands(*schema_, twice, /*path_limit=*/10).ok());
}

TEST_F(NormalizeTest, FoldShorthandsKeepsOnlyAtomsSomeGCanDecide) {
  auto folded = [&](const ExprPtr& e) {
    return ExprToString(*schema_, FoldShorthands(*schema_, e));
  };
  EXPECT_EQ(folded(MakeComposedAtom(store_, store_)), "true");
  EXPECT_EQ(folded(MakeThroughAtom(store_, store_, store_)), "true");
  EXPECT_EQ(folded(MakeThroughAtom(store_, city_, store_)), "false");
  // No schema path Country -> Store, nor SaleRegion -> City.
  EXPECT_EQ(folded(MakeComposedAtom(country_, store_)), "false");
  EXPECT_EQ(folded(MakeThroughAtom(store_, sale_region_, city_)), "false");
  // Atoms some subhierarchy makes true and another false stay, as the
  // same nodes, so an unchanged constraint is not copied.
  const ExprPtr kept =
      MakeAnd({MakeComposedAtom(store_, country_),
               MakeThroughAtom(store_, city_, sale_region_),
               MakeThroughAtom(store_, store_, province_)});
  EXPECT_EQ(FoldShorthands(*schema_, kept), kept);
  ASSERT_OK_AND_ASSIGN(ExprPtr parsed,
                       ParseExpr(*schema_, "Store.Store -> Country.Store"));
  EXPECT_EQ(folded(parsed), "true -> false");
}

// --- Simplify ---------------------------------------------------------

TEST_F(NormalizeTest, SimplifyConnectives) {
  ExprPtr atom = MakePathAtom({store_, city_});
  ExprPtr t = MakeTrue(), f = MakeFalse();

  EXPECT_TRUE(IsFalseLiteral(Simplify(MakeNot(t))));
  EXPECT_TRUE(IsTrueLiteral(Simplify(MakeNot(f))));
  EXPECT_TRUE(ExprEquals(Simplify(MakeNot(MakeNot(atom))), atom));

  EXPECT_TRUE(ExprEquals(Simplify(MakeAnd({t, atom, t})), atom));
  EXPECT_TRUE(IsFalseLiteral(Simplify(MakeAnd({atom, f}))));
  EXPECT_TRUE(IsTrueLiteral(Simplify(MakeAnd({}))));
  EXPECT_TRUE(ExprEquals(Simplify(MakeOr({f, atom})), atom));
  EXPECT_TRUE(IsTrueLiteral(Simplify(MakeOr({atom, t}))));
  EXPECT_TRUE(IsFalseLiteral(Simplify(MakeOr({}))));

  EXPECT_TRUE(IsTrueLiteral(Simplify(MakeImplies(f, atom))));
  EXPECT_TRUE(ExprEquals(Simplify(MakeImplies(t, atom)), atom));
  EXPECT_TRUE(IsTrueLiteral(Simplify(MakeImplies(atom, t))));
  EXPECT_EQ(Simplify(MakeImplies(atom, f))->kind, ExprKind::kNot);

  EXPECT_TRUE(ExprEquals(Simplify(MakeEquiv(t, atom)), atom));
  EXPECT_EQ(Simplify(MakeEquiv(atom, f))->kind, ExprKind::kNot);
  EXPECT_TRUE(ExprEquals(Simplify(MakeXor(f, atom)), atom));
  EXPECT_EQ(Simplify(MakeXor(atom, t))->kind, ExprKind::kNot);
}

TEST_F(NormalizeTest, SimplifyExactlyOne) {
  ExprPtr a = MakePathAtom({store_, city_});
  ExprPtr b = MakePathAtom({store_, sale_region_});
  ExprPtr t = MakeTrue(), f = MakeFalse();

  // Two known-true: contradiction.
  EXPECT_TRUE(IsFalseLiteral(Simplify(MakeExactlyOne({t, t, a}))));
  // One known-true: all the rest must be false.
  ExprPtr forced = Simplify(MakeExactlyOne({t, a, b}));
  EXPECT_EQ(forced->kind, ExprKind::kAnd);
  EXPECT_EQ(forced->children[0]->kind, ExprKind::kNot);
  // One true, nothing else: True.
  EXPECT_TRUE(IsTrueLiteral(Simplify(MakeExactlyOne({t, f}))));
  // All false: False.
  EXPECT_TRUE(IsFalseLiteral(Simplify(MakeExactlyOne({f, f}))));
  EXPECT_TRUE(IsFalseLiteral(Simplify(MakeExactlyOne({}))));
  // Single unknown: itself.
  EXPECT_TRUE(ExprEquals(Simplify(MakeExactlyOne({f, a})), a));
  // Several unknowns stay.
  EXPECT_EQ(Simplify(MakeExactlyOne({a, b}))->kind, ExprKind::kExactlyOne);
}

// Exhaustive truth-table check: for every binary connective and every
// combination of truth constants, Simplify agrees with the semantics.
using TruthCase = std::tuple<ExprKind, bool, bool, bool>;

class TruthTableTest : public ::testing::TestWithParam<TruthCase> {};

TEST_P(TruthTableTest, SimplifyMatchesSemantics) {
  auto [kind, a, b, expected] = GetParam();
  ExprPtr ea = MakeBool(a), eb = MakeBool(b);
  ExprPtr e;
  switch (kind) {
    case ExprKind::kAnd: e = MakeAnd({ea, eb}); break;
    case ExprKind::kOr: e = MakeOr({ea, eb}); break;
    case ExprKind::kImplies: e = MakeImplies(ea, eb); break;
    case ExprKind::kEquiv: e = MakeEquiv(ea, eb); break;
    case ExprKind::kXor: e = MakeXor(ea, eb); break;
    default: FAIL();
  }
  ExprPtr s = Simplify(e);
  ASSERT_TRUE(s->IsLiteralTruth());
  EXPECT_EQ(IsTrueLiteral(s), expected);
}

std::vector<TruthCase> AllTruthCases() {
  std::vector<TruthCase> cases;
  for (bool a : {false, true}) {
    for (bool b : {false, true}) {
      cases.emplace_back(ExprKind::kAnd, a, b, a && b);
      cases.emplace_back(ExprKind::kOr, a, b, a || b);
      cases.emplace_back(ExprKind::kImplies, a, b, !a || b);
      cases.emplace_back(ExprKind::kEquiv, a, b, a == b);
      cases.emplace_back(ExprKind::kXor, a, b, a != b);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConnectives, TruthTableTest,
                         ::testing::ValuesIn(AllTruthCases()));

}  // namespace
}  // namespace olapdc
