// Tests for the related-work baselines: Pedersen-Jensen null padding,
// Lehner dimensional normal form, and ICDT'01 split constraints.

#include <gtest/gtest.h>

#include <string>

#include "constraint/evaluator.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "tests/test_util.h"
#include "transform/dnf_transform.h"
#include "transform/null_padding.h"
#include "transform/split_constraints.h"

namespace olapdc {
namespace {

using testing_util::MakeHierarchy;
using testing_util::MakeSchema;

TEST(NullPaddingTest, LocationPadsToTotalRollups) {
  auto d_result = LocationInstance();
  ASSERT_TRUE(d_result.ok());
  const DimensionInstance& d = *d_result;
  ASSERT_OK_AND_ASSIGN(NullPaddingResult padded, PadWithNullMembers(d));
  const DimensionInstance& p = padded.padded;
  const HierarchySchema& schema = p.hierarchy();

  // Placeholder members were added and the stats record the blow-up.
  EXPECT_GT(padded.stats.padded_members, 0);
  EXPECT_GT(padded.stats.padded_edges, 0);
  EXPECT_GT(padded.stats.placeholder_fraction, 0.0);
  EXPECT_EQ(padded.stats.original_members, d.num_members());

  // After padding, every member rolls up to every category reachable
  // from its own (the Pedersen-Jensen "covering" totality).
  for (MemberId m = 0; m < p.num_members(); ++m) {
    CategoryId c = p.member(m).category;
    schema.UpSet(c).ForEach([&](int target) {
      EXPECT_NE(p.RollUpMember(m, target), kNoMember)
          << p.member(m).key << " misses "
          << schema.CategoryName(target);
    });
  }

  // Fusion resolved Washington's missing SaleRegion onto the real
  // SR-USA (its store carries the direct link).
  ASSERT_OK_AND_ASSIGN(MemberId washington, p.MemberIdOf("Washington"));
  ASSERT_OK_AND_ASSIGN(MemberId sr_usa, p.MemberIdOf("SR-USA"));
  EXPECT_EQ(
      p.RollUpMember(washington, schema.FindCategory("SaleRegion")), sr_usa);

  // C5 is intentionally relaxed; everything else still validates.
  EXPECT_OK(p.Validate(/*enforce_shortcut_condition=*/false));
}

TEST(NullPaddingTest, HomogeneousInstanceIsUntouched) {
  HierarchySchemaPtr schema =
      MakeHierarchy({{"A", "B"}, {"B", "All"}});
  DimensionInstanceBuilder builder(schema);
  builder.AddMember("b1", "B").AddMemberUnder("a1", "A", "b1");
  auto d = builder.Build();
  ASSERT_TRUE(d.ok());
  ASSERT_OK_AND_ASSIGN(NullPaddingResult padded, PadWithNullMembers(*d));
  EXPECT_EQ(padded.stats.padded_members, 0);
  EXPECT_EQ(padded.stats.placeholder_fraction, 0.0);
}

TEST(NullPaddingTest, UnfusablePairsOfRealMembersRejected) {
  // Two stores share the city but carry different direct sale regions:
  // the city's missing SaleRegion would have to fuse with both.
  HierarchySchemaPtr schema = MakeHierarchy({{"Store", "City"},
                                             {"Store", "SaleRegion"},
                                             {"City", "SaleRegion"},
                                             {"City", "Country"},
                                             {"SaleRegion", "Country"},
                                             {"Country", "All"}});
  DimensionInstanceBuilder builder(schema);
  builder.AddMember("X", "Country")
      .AddMemberUnder("SR1", "SaleRegion", "X")
      .AddMemberUnder("SR2", "SaleRegion", "X")
      .AddMemberUnder("c", "City", "X")
      .AddMemberUnder("s1", "Store", "c")
      .AddChildParent("s1", "SR1")
      .AddMemberUnder("s2", "Store", "c")
      .AddChildParent("s2", "SR2");
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, builder.Build());
  Status status = PadWithNullMembers(d).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidModel);
  EXPECT_NE(status.message().find("fuse"), std::string::npos);
}

TEST(DnfTest, LocationDemotesProvinceAndState) {
  auto d_result = LocationInstance();
  ASSERT_TRUE(d_result.ok());
  ASSERT_OK_AND_ASSIGN(DnfResult dnf, ToDimensionalNormalForm(*d_result));
  const HierarchySchema& original = d_result->hierarchy();

  // Every store reaches City, SaleRegion, Country, All -> kept; only
  // Canadian stores reach Province and only Mexican/US ones reach
  // State -> demoted.
  auto name_of = [&](CategoryId c) { return original.CategoryName(c); };
  std::vector<std::string> demoted;
  for (CategoryId c : dnf.demoted) demoted.push_back(name_of(c));
  EXPECT_EQ(demoted, std::vector<std::string>({"Province", "State"}));
  EXPECT_EQ(dnf.kept.size(), 5u);

  // The homogeneous instance keeps all non-demoted members and is
  // fully valid (C1-C7, including C5).
  EXPECT_OK(dnf.homogeneous.Validate());
  const HierarchySchema& reduced = dnf.homogeneous.hierarchy();
  EXPECT_EQ(reduced.FindCategory("Province"), kNoCategory);
  EXPECT_EQ(dnf.homogeneous
                .MembersOf(reduced.FindCategory("Store")).size(),
            7u);

  // Rollups into kept categories are preserved.
  ASSERT_OK_AND_ASSIGN(MemberId store,
                       dnf.homogeneous.MemberIdOf("st-tor-1"));
  ASSERT_OK_AND_ASSIGN(MemberId canada, dnf.homogeneous.MemberIdOf("Canada"));
  EXPECT_EQ(dnf.homogeneous.RollUpMember(
                store, reduced.FindCategory("Country")),
            canada);

  // The attribute tables record the lost ancestors: st-tor-1's former
  // province.
  const auto& province_attrs =
      dnf.attributes.at(original.FindCategory("Province"));
  EXPECT_EQ(province_attrs.at("st-tor-1"), "Ontario");
  EXPECT_EQ(province_attrs.count("st-was-1"), 0u);  // had none

  // The paper's criticism, made concrete: after DNF, a Province cube
  // view can no longer be derived (the category is gone).
}

TEST(DnfTest, HomogeneousInstanceIsFixpoint) {
  HierarchySchemaPtr schema = MakeHierarchy({{"A", "B"}, {"B", "All"}});
  DimensionInstanceBuilder builder(schema);
  builder.AddMember("b1", "B").AddMemberUnder("a1", "A", "b1");
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, builder.Build());
  ASSERT_OK_AND_ASSIGN(DnfResult dnf, ToDimensionalNormalForm(d));
  EXPECT_TRUE(dnf.demoted.empty());
  EXPECT_EQ(dnf.homogeneous.num_members(), d.num_members());
}

TEST(SplitConstraintTest, CompilesToDimensionConstraint) {
  auto schema_result = LocationHierarchy();
  ASSERT_TRUE(schema_result.ok());
  const HierarchySchema& schema = **schema_result;
  CategoryId city = schema.FindCategory("City");
  CategoryId province = schema.FindCategory("Province");
  CategoryId state = schema.FindCategory("State");
  CategoryId country = schema.FindCategory("Country");

  // Cities have parents in exactly {Province} or exactly {State} or
  // exactly {Country} — the Fig 1 reality.
  SplitConstraint split{city, {{province}, {state}, {country}}};
  ASSERT_OK_AND_ASSIGN(DimensionConstraint compiled,
                       CompileSplitConstraint(schema, split));
  EXPECT_EQ(compiled.root, city);

  // The location instance satisfies the compiled constraint.
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, LocationInstance());
  EXPECT_TRUE(Satisfies(d, compiled));

  // A different split (cities always under provinces) is violated.
  SplitConstraint wrong{city, {{province}}};
  ASSERT_OK_AND_ASSIGN(DimensionConstraint wrong_compiled,
                       CompileSplitConstraint(schema, wrong));
  EXPECT_FALSE(Satisfies(d, wrong_compiled));
}

TEST(SplitConstraintTest, DrivesDimsatLikeAnyConstraint) {
  // Split constraints are a subclass of dimension constraints: feed the
  // compiled form to DIMSAT and check the structures obey it.
  auto schema_result = LocationHierarchy();
  ASSERT_TRUE(schema_result.ok());
  HierarchySchemaPtr schema = *schema_result;
  CategoryId store = schema->FindCategory("Store");
  CategoryId city = schema->FindCategory("City");
  CategoryId sale_region = schema->FindCategory("SaleRegion");

  SplitConstraint split{store, {{city}}};  // stores only under City
  ASSERT_OK_AND_ASSIGN(DimensionConstraint compiled,
                       CompileSplitConstraint(*schema, split));
  DimensionSchema ds(schema, {compiled});
  DimsatResult r = EnumerateFrozenDimensions(ds, store);
  ASSERT_OK(r.status);
  EXPECT_TRUE(r.satisfiable);
  for (const FrozenDimension& f : r.frozen) {
    EXPECT_TRUE(f.HasEdge(store, city));
    EXPECT_FALSE(f.HasEdge(store, sale_region));
  }
}

TEST(SplitConstraintTest, InputValidation) {
  auto schema_result = LocationHierarchy();
  ASSERT_TRUE(schema_result.ok());
  const HierarchySchema& schema = **schema_result;
  CategoryId city = schema.FindCategory("City");
  CategoryId country = schema.FindCategory("Country");
  EXPECT_FALSE(CompileSplitConstraint(schema, {city, {}}).ok());
  EXPECT_FALSE(CompileSplitConstraint(schema, {city, {{}}}).ok());
  // Country is not directly above Store.
  CategoryId store = schema.FindCategory("Store");
  EXPECT_FALSE(CompileSplitConstraint(schema, {store, {{country}}}).ok());
  EXPECT_FALSE(CompileSplitConstraint(schema, {-1, {{city}}}).ok());
}

}  // namespace
}  // namespace olapdc
