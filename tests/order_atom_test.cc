// Tests for the Section 6 extension: order atoms (built-in comparison
// predicates over numeric Name domains), end to end — parser, printer,
// model checker, circle operator, c-assignment region abstraction,
// DIMSAT, implication.

#include <gtest/gtest.h>

#include "constraint/evaluator.h"
#include "constraint/parser.h"
#include "constraint/printer.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/naive_sat.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

using testing_util::MakeHierarchy;
using testing_util::MakeSchema;
using testing_util::ParseC;

// Product -> PriceBand -> All; Product -> Luxury -> All. The paper's
// own example: "if the value of the price of a product is less than a
// given amount, the product rolls up to some particular path".
HierarchySchemaPtr PriceSchema() {
  return MakeHierarchy({{"Product", "PriceBand"},
                        {"Product", "Luxury"},
                        {"PriceBand", "All"},
                        {"Luxury", "All"}});
}

TEST(OrderAtomTest, ParseAndPrint) {
  HierarchySchemaPtr schema = PriceSchema();
  ASSERT_OK_AND_ASSIGN(ExprPtr e,
                       ParseExpr(*schema, "Product.PriceBand < 100"));
  ASSERT_EQ(e->kind, ExprKind::kOrderAtom);
  EXPECT_EQ(e->cmp_op, CmpOp::kLt);
  EXPECT_EQ(e->threshold, 100.0);
  EXPECT_EQ(ExprToString(*schema, e), "Product.PriceBand < 100");

  // All four operators round-trip; own-category form too.
  for (const char* text :
       {"Product.PriceBand < 100", "Product.PriceBand <= 99.5",
        "Product.PriceBand > 0.25", "Product.PriceBand >= 10",
        "Product < 5"}) {
    ASSERT_OK_AND_ASSIGN(ExprPtr parsed, ParseExpr(*schema, text));
    std::string printed = ExprToString(*schema, parsed);
    ASSERT_OK_AND_ASSIGN(ExprPtr reparsed, ParseExpr(*schema, printed));
    EXPECT_TRUE(ExprEquals(parsed, reparsed)) << text;
  }
  // Errors: missing / non-numeric operand.
  EXPECT_FALSE(ParseExpr(*schema, "Product.PriceBand < ").ok());
  EXPECT_FALSE(ParseExpr(*schema, "Product.PriceBand < cheap").ok());
  // '<=' must not be confused with '<' '=' or '<->'.
  ASSERT_OK_AND_ASSIGN(ExprPtr le, ParseExpr(*schema, "Product <= 3"));
  EXPECT_EQ(le->cmp_op, CmpOp::kLe);
}

TEST(OrderAtomTest, CmpSemantics) {
  EXPECT_TRUE(EvalCmp(CmpOp::kLt, 1, 2));
  EXPECT_FALSE(EvalCmp(CmpOp::kLt, 2, 2));
  EXPECT_TRUE(EvalCmp(CmpOp::kLe, 2, 2));
  EXPECT_TRUE(EvalCmp(CmpOp::kGt, 3, 2));
  EXPECT_FALSE(EvalCmp(CmpOp::kGe, 1, 2));
  EXPECT_EQ(CmpOpToString(CmpOp::kGe), ">=");
  EXPECT_EQ(ParseNumericName("42"), 42.0);
  EXPECT_EQ(ParseNumericName("-1.5"), -1.5);
  EXPECT_FALSE(ParseNumericName("Canada").has_value());
  EXPECT_FALSE(ParseNumericName("").has_value());
  EXPECT_FALSE(ParseNumericName("12x").has_value());
}

TEST(OrderAtomTest, ModelChecking) {
  HierarchySchemaPtr schema = PriceSchema();
  DimensionInstanceBuilder builder(schema);
  builder.AddMember("band-low", "PriceBand", "49.99")
      .AddMember("band-high", "PriceBand", "500")
      .AddMember("lux", "Luxury")
      .AddMemberUnder("soap", "Product", "band-low")
      .AddMemberUnder("watch", "Product", "band-high")
      .AddChildParent("watch", "lux");
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, builder.Build());

  DimensionConstraint cheap_no_lux = ParseC(
      *schema, "Product.PriceBand < 100 -> !Product/Luxury");
  EXPECT_TRUE(Satisfies(d, cheap_no_lux));
  DimensionConstraint all_cheap = ParseC(*schema, "Product.PriceBand < 100");
  EXPECT_FALSE(Satisfies(d, all_cheap));
  // Non-numeric names never satisfy order atoms.
  DimensionConstraint lux_priced =
      ParseC(*schema, "Product.Luxury >= 0");
  auto watch = d.MemberIdOf("watch");
  ASSERT_TRUE(watch.ok());
  EXPECT_FALSE(EvalForMember(d, *lux_priced.expr, *watch))
      << "'lux' is not numeric";
  // Boundary semantics.
  DimensionConstraint le = ParseC(*schema, "Product.PriceBand <= 500");
  EXPECT_TRUE(Satisfies(d, le));
  DimensionConstraint lt = ParseC(*schema, "Product.PriceBand < 500");
  EXPECT_FALSE(EvalForMember(d, *lt.expr, *watch));
}

TEST(OrderAtomTest, DimsatRegionAbstraction) {
  // The paper's Section 6 scenario: cheap products skip Luxury.
  HierarchySchemaPtr schema = PriceSchema();
  std::vector<DimensionConstraint> sigma = {
      ParseC(*schema, "Product/PriceBand"),
      ParseC(*schema, "Product.PriceBand < 100 -> !Product/Luxury"),
  };
  DimensionSchema ds(schema, sigma);
  CategoryId product = schema->FindCategory("Product");
  CategoryId price_band = schema->FindCategory("PriceBand");
  CategoryId luxury = schema->FindCategory("Luxury");

  DimsatResult r = EnumerateFrozenDimensions(ds, product);
  ASSERT_OK(r.status);
  EXPECT_TRUE(r.satisfiable);
  // Structures with Luxury may carry a numeric price band only in the
  // >= 100 region (the < 100 region is contradictory); a non-numeric
  // (nk) band name is also fine — it never satisfies "< 100".
  for (const FrozenDimension& f : r.frozen) {
    if (f.HasEdge(product, luxury) && f.names[price_band].has_value()) {
      std::optional<double> price = ParseNumericName(*f.names[price_band]);
      ASSERT_TRUE(price.has_value());
      EXPECT_GE(*price, 100.0) << *f.names[price_band];
    }
  }
  // And at least one Luxury structure exists (price >= 100 works).
  bool has_luxury_structure = false;
  for (const FrozenDimension& f : r.frozen) {
    has_luxury_structure |= f.HasEdge(product, luxury);
  }
  EXPECT_TRUE(has_luxury_structure);

  // Frozen dimensions materialize and satisfy Sigma (order atoms
  // checked by the model checker on the materialized instance).
  for (const FrozenDimension& f : r.frozen) {
    ASSERT_OK_AND_ASSIGN(DimensionInstance inst, f.ToInstance(ds));
    EXPECT_TRUE(SatisfiesAll(inst, ds.constraints()))
        << f.ToString(*schema);
  }
}

TEST(OrderAtomTest, ImplicationWithOrderAtoms) {
  HierarchySchemaPtr schema = PriceSchema();
  std::vector<DimensionConstraint> sigma = {
      ParseC(*schema, "Product/PriceBand"),
      ParseC(*schema, "Product.PriceBand < 100 -> !Product/Luxury"),
  };
  DimensionSchema ds(schema, sigma);

  auto implied = [&](const char* text) {
    auto r = Implies(ds, ParseC(*schema, text));
    OLAPDC_CHECK(r.ok()) << r.status().ToString();
    return r->implied;
  };
  // Contrapositive reasoning across the region abstraction.
  EXPECT_TRUE(implied("Product/Luxury -> !(Product.PriceBand < 100)"));
  EXPECT_TRUE(implied("Product.PriceBand < 50 -> !Product/Luxury"));
  EXPECT_FALSE(implied("Product.PriceBand < 200 -> !Product/Luxury"));
  EXPECT_FALSE(implied("Product.PriceBand >= 100"));
  // Interval reasoning: < 100 and >= 100 cannot hold together.
  EXPECT_TRUE(implied(
      "!(Product.PriceBand < 100 & Product.PriceBand >= 100)"));
  // But < 100 and >= 50 can.
  EXPECT_FALSE(implied(
      "!(Product.PriceBand < 100 & Product.PriceBand >= 50)"));
  // Strict/inclusive boundary distinction: <= 100 and >= 100 meet at
  // exactly 100.
  EXPECT_FALSE(implied(
      "!(Product.PriceBand <= 100 & Product.PriceBand >= 100)"));
}

TEST(OrderAtomTest, EqualityAndOrderInteract) {
  HierarchySchemaPtr schema = PriceSchema();
  std::vector<DimensionConstraint> sigma = {
      ParseC(*schema, "Product/PriceBand"),
      // Named band "100" is also numerically 100.
      ParseC(*schema,
             "Product.PriceBand = '100' -> Product.PriceBand >= 100"),
  };
  DimensionSchema ds(schema, sigma);
  CategoryId product = schema->FindCategory("Product");
  EXPECT_TRUE(RunDimsat(ds, product).satisfiable);

  // A schema where the named constant contradicts the order atom makes
  // that constant unusable but the category stays satisfiable via nk.
  std::vector<DimensionConstraint> contradictory = {
      ParseC(*schema, "Product/PriceBand"),
      ParseC(*schema, "Product.PriceBand = '100'"),
      ParseC(*schema, "Product.PriceBand < 50"),
  };
  DimensionSchema ds2(schema, contradictory);
  EXPECT_FALSE(RunDimsat(ds2, product).satisfiable)
      << "name must be '100' but numerically < 50 — impossible";
}

TEST(OrderAtomTest, NaiveOracleAgreesWithOrderAtoms) {
  HierarchySchemaPtr schema = PriceSchema();
  for (const char* extra :
       {"Product.PriceBand < 100 -> !Product/Luxury",
        "Product/Luxury <-> Product.PriceBand >= 250",
        "Product.PriceBand > 10 & Product.PriceBand < 20 -> "
        "Product/Luxury"}) {
    std::vector<DimensionConstraint> sigma = {
        ParseC(*schema, "Product/PriceBand"), ParseC(*schema, extra)};
    DimensionSchema ds(schema, sigma);
    CategoryId product = schema->FindCategory("Product");
    DimsatOptions options;
    options.enumerate_all = true;
    DimsatResult dimsat = RunDimsat(ds, product, options);
    ASSERT_OK(dimsat.status);
    NaiveSatOptions naive_options;
    naive_options.enumerate_all = true;
    ASSERT_OK_AND_ASSIGN(DimsatResult naive,
                         NaiveSat(ds, product, naive_options));
    EXPECT_EQ(dimsat.satisfiable, naive.satisfiable) << extra;
    EXPECT_EQ(dimsat.frozen.size(), naive.frozen.size()) << extra;
  }
}

}  // namespace
}  // namespace olapdc
