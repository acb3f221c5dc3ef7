// Tests for the implication problem (Theorem 2 reduction), including
// the paper's Example 2: without constraints the hierarchy schema alone
// cannot prove that stores reach Country through City.

#include <gtest/gtest.h>

#include "constraint/evaluator.h"
#include "constraint/parser.h"
#include "core/implication.h"
#include "core/location_example.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

using testing_util::MakeSchema;
using testing_util::ParseC;

class ImplicationTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_OK_AND_ASSIGN(ds_, LocationSchema()); }

  bool Implied(const std::string& text) {
    auto alpha = ParseConstraintWithRoot(ds_->hierarchy(), "Store", text);
    OLAPDC_CHECK(alpha.ok()) << text << ": " << alpha.status().ToString();
    auto result = Implies(*ds_, *alpha);
    OLAPDC_CHECK(result.ok()) << result.status().ToString();
    return result->implied;
  }

  std::optional<DimensionSchema> ds_;
};

TEST_F(ImplicationTest, Example2WithConstraints) {
  // locationSch ⊨ "stores reach Country through City".
  EXPECT_TRUE(Implied("Store.Country -> Store.City.Country"));
  // Indeed all stores reach Country outright.
  EXPECT_TRUE(Implied("Store.Country"));
  EXPECT_TRUE(Implied("Store.City"));
  EXPECT_TRUE(Implied("Store.SaleRegion"));
}

TEST_F(ImplicationTest, Example2WithoutConstraintsFails) {
  // The bare hierarchy schema admits stores that reach Country only
  // through SaleRegion, so the implication must fail (this is the
  // paper's motivation for dimension constraints).
  DimensionSchema bare(ds_->hierarchy_ptr(), {});
  ASSERT_OK_AND_ASSIGN(
      ImplicationResult r,
      Implies(bare, ParseC(ds_->hierarchy(), "Store.Country -> Store.City.Country")));
  EXPECT_FALSE(r.implied);
  // The counterexample is a frozen dimension avoiding City.
  ASSERT_TRUE(r.counterexample.has_value());
  EXPECT_FALSE(r.counterexample->Contains(
      ds_->hierarchy().FindCategory("City")));
}

TEST_F(ImplicationTest, NonImplications) {
  EXPECT_FALSE(Implied("Store.Province"));
  EXPECT_FALSE(Implied("Store/SaleRegion"));
  EXPECT_FALSE(Implied("Store.Country = 'Canada'"));
  EXPECT_FALSE(Implied("Store.City.Province"));
}

TEST_F(ImplicationTest, ConstraintConsequences) {
  // (g) Province.Country = 'Canada' propagates to stores with a
  // province.
  EXPECT_TRUE(Implied("Store.Province -> Store.Country = 'Canada'"));
  // (f)+(e): a state whose country is not Mexico is a US state.
  EXPECT_TRUE(Implied(
      "Store.State.Country -> "
      "(Store.Country = 'Mexico' | Store.Country = 'USA')"));
  // Washington stores are in the USA (via (c) and (d)).
  EXPECT_TRUE(
      Implied("Store.City = 'Washington' -> Store.Country = 'USA'"));
  // Stores reaching Province never reach State (structures are
  // disjoint).
  EXPECT_TRUE(Implied("Store.Province -> !Store.State"));
  // But reaching State does not pin the country to Mexico.
  EXPECT_FALSE(Implied("Store.State -> Store.Country = 'Mexico'"));
}

TEST_F(ImplicationTest, CounterexamplesSatisfySchemaAndViolateAlpha) {
  DimensionConstraint alpha =
      ParseC(ds_->hierarchy(), "Store.State -> Store.Country = 'Mexico'");
  ASSERT_OK_AND_ASSIGN(ImplicationResult r, Implies(*ds_, alpha));
  ASSERT_FALSE(r.implied);
  ASSERT_TRUE(r.counterexample.has_value());
  ASSERT_OK_AND_ASSIGN(DimensionInstance witness,
                       r.counterexample->ToInstance(*ds_));
  EXPECT_TRUE(SatisfiesAll(witness, ds_->constraints()));
  EXPECT_FALSE(Satisfies(witness, alpha));
}

TEST_F(ImplicationTest, TautologiesAlwaysImplied) {
  EXPECT_TRUE(Implied("Store/City | !Store/City"));
  EXPECT_TRUE(Implied("true"));
  EXPECT_FALSE(Implied("false"));
}

TEST(ImplicationBasicsTest, CategorySatisfiabilityApi) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"B", "All"}}, {"!A/B"});
  // !A/B contradicts C7 (B is A's only parent category).
  ASSERT_OK_AND_ASSIGN(
      bool a_sat,
      IsCategorySatisfiable(ds, ds.hierarchy().FindCategory("A")));
  EXPECT_FALSE(a_sat);
  ASSERT_OK_AND_ASSIGN(
      bool b_sat,
      IsCategorySatisfiable(ds, ds.hierarchy().FindCategory("B")));
  EXPECT_TRUE(b_sat);
}

TEST(ImplicationBasicsTest, Proposition1EverySchemaSatisfiable) {
  // Even wildly contradictory constraint sets leave All satisfiable
  // (Proposition 1: the one-member instance).
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"B", "All"}},
      {"A/B & !A/B", "false & B/All | false"});
  ASSERT_OK_AND_ASSIGN(bool all_sat,
                       IsCategorySatisfiable(ds, ds.hierarchy().all()));
  EXPECT_TRUE(all_sat);
}

TEST(ImplicationBasicsTest, UnsatisfiableCategoryImpliesEverything) {
  DimensionSchema ds = MakeSchema({{"A", "B"}, {"B", "All"}}, {"!A/B"});
  // A is unsatisfiable, so any A-rooted constraint is implied.
  ASSERT_OK_AND_ASSIGN(
      ImplicationResult r,
      Implies(ds, testing_util::ParseC(ds.hierarchy(), "A.B = 'anything'")));
  EXPECT_TRUE(r.implied);
}

}  // namespace
}  // namespace olapdc
