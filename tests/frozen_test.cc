// Unit tests for the FrozenDimension value type (string/DOT rendering,
// materialization details, equality) complementing the behavioural
// coverage in dimsat_test.cc.

#include <gtest/gtest.h>

#include <string>

#include "constraint/evaluator.h"
#include "core/dimsat.h"
#include "core/frozen.h"
#include "core/location_example.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

using testing_util::MakeSchema;
using testing_util::ParseC;

FrozenDimension SampleFrozen(const DimensionSchema& ds) {
  DimsatResult r = RunDimsat(ds, ds.hierarchy().FindCategory("Store"));
  OLAPDC_CHECK(r.status.ok() && !r.frozen.empty());
  return r.frozen.front();
}

TEST(FrozenTest, ToStringListsEdgesAndBindings) {
  auto ds = LocationSchema();
  ASSERT_TRUE(ds.ok());
  FrozenDimension f = SampleFrozen(*ds);
  std::string s = f.ToString(ds->hierarchy());
  EXPECT_NE(s.find("Store->City"), std::string::npos) << s;
  EXPECT_NE(s.find("Country="), std::string::npos) << s;
  EXPECT_NE(s.find("Country->All"), std::string::npos) << s;
}

TEST(FrozenTest, MaterializationNamesNkDistinctly) {
  auto ds = LocationSchema();
  ASSERT_TRUE(ds.ok());
  FrozenDimension f = SampleFrozen(*ds);
  ASSERT_OK_AND_ASSIGN(DimensionInstance inst, f.ToInstance(*ds));
  // One member per category of g; keys are the category names.
  EXPECT_EQ(inst.num_members(), f.g.categories().count());
  ASSERT_OK_AND_ASSIGN(MemberId store, inst.MemberIdOf("Store"));
  // Store has no constant: its Name carries the nk prefix, which never
  // collides with a Sigma constant.
  EXPECT_EQ(inst.member(store).name, "~Store");
  ASSERT_OK_AND_ASSIGN(MemberId country, inst.MemberIdOf("Country"));
  EXPECT_TRUE(inst.member(country).name == "Canada" ||
              inst.member(country).name == "Mexico" ||
              inst.member(country).name == "USA");
  // The All member is the conventional "all".
  EXPECT_EQ(inst.member(inst.all_member()).key, "All");
  EXPECT_EQ(inst.member(inst.all_member()).name, "all");
}

TEST(FrozenTest, CustomNkPrefix) {
  auto ds = LocationSchema();
  ASSERT_TRUE(ds.ok());
  FrozenDimension f = SampleFrozen(*ds);
  ASSERT_OK_AND_ASSIGN(DimensionInstance inst, f.ToInstance(*ds, "nk:"));
  ASSERT_OK_AND_ASSIGN(MemberId store, inst.MemberIdOf("Store"));
  EXPECT_EQ(inst.member(store).name, "nk:Store");
}

TEST(FrozenTest, FrozenEquals) {
  auto ds = LocationSchema();
  ASSERT_TRUE(ds.ok());
  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult r =
      RunDimsat(*ds, ds->hierarchy().FindCategory("Store"), options);
  ASSERT_OK(r.status);
  ASSERT_GE(r.frozen.size(), 2u);
  EXPECT_TRUE(FrozenEquals(r.frozen[0], r.frozen[0]));
  EXPECT_FALSE(FrozenEquals(r.frozen[0], r.frozen[1]));
}

TEST(FrozenTest, MinimalModelIsMinimal) {
  // A frozen dimension has exactly one member per populated category —
  // the "minimal homogeneous instance" of the paper's Definition 5.
  auto ds = LocationSchema();
  ASSERT_TRUE(ds.ok());
  FrozenDimension f = SampleFrozen(*ds);
  ASSERT_OK_AND_ASSIGN(DimensionInstance inst, f.ToInstance(*ds));
  for (CategoryId c = 0; c < ds->hierarchy().num_categories(); ++c) {
    EXPECT_LE(inst.MembersOf(c).size(), 1u);
  }
  // And every member is reachable from the root member (Def 5(c)).
  ASSERT_OK_AND_ASSIGN(MemberId root, inst.MemberIdOf("Store"));
  for (MemberId m = 0; m < inst.num_members(); ++m) {
    EXPECT_TRUE(m == root || inst.RollsUpTo(root, m))
        << inst.member(m).key;
  }
}

}  // namespace
}  // namespace olapdc
