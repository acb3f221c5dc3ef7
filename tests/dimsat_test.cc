// Tests for the DIMSAT algorithm: Figure 4 (frozen dimensions of
// locationSch), Example 11 (unsatisfiable category), pruning ablations,
// budgets and the execution trace (Figure 7) as the explain stream
// records it.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "constraint/evaluator.h"
#include "constraint/parser.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "graph/algorithms.h"
#include "obs/search_tree.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

using testing_util::MakeSchema;
using testing_util::ParseC;

class DimsatLocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(ds_, LocationSchema());
    const HierarchySchema& schema = ds_->hierarchy();
    store_ = schema.FindCategory("Store");
    country_ = schema.FindCategory("Country");
    city_ = schema.FindCategory("City");
    sale_region_ = schema.FindCategory("SaleRegion");
  }

  std::optional<DimensionSchema> ds_;
  CategoryId store_, country_, city_, sale_region_;
};

TEST_F(DimsatLocationTest, StoreIsSatisfiable) {
  DimsatResult r = RunDimsat(*ds_, store_);
  ASSERT_OK(r.status);
  EXPECT_TRUE(r.satisfiable);
  ASSERT_EQ(r.frozen.size(), 1u);  // first witness only
  EXPECT_GT(r.stats.expand_calls, 0u);
}

TEST_F(DimsatLocationTest, Figure4FrozenDimensions) {
  DimsatResult r = EnumerateFrozenDimensions(*ds_, store_);
  ASSERT_OK(r.status);
  ASSERT_EQ(r.frozen.size(), 4u) << "Figure 4 shows four structures";

  // Classify by the Country constant.
  std::multiset<std::string> countries;
  int with_washington = 0;
  for (const FrozenDimension& f : r.frozen) {
    ASSERT_TRUE(f.names[country_].has_value());
    countries.insert(*f.names[country_]);
    if (f.names[city_].has_value()) {
      EXPECT_EQ(*f.names[city_], "Washington");
      ++with_washington;
      // The Washington structure uses the City -> Country shortcut
      // edge and must not contain State or Province.
      EXPECT_TRUE(f.HasEdge(city_, country_));
    }
  }
  EXPECT_EQ(countries.count("Canada"), 1u);
  EXPECT_EQ(countries.count("Mexico"), 1u);
  EXPECT_EQ(countries.count("USA"), 2u);  // plain USA + Washington
  EXPECT_EQ(with_washington, 1);

  // Every frozen dimension materializes as a valid instance over ds.
  for (const FrozenDimension& f : r.frozen) {
    ASSERT_OK_AND_ASSIGN(DimensionInstance inst, f.ToInstance(*ds_));
    EXPECT_OK(inst.Validate());
    EXPECT_TRUE(SatisfiesAll(inst, ds_->constraints()))
        << f.ToString(ds_->hierarchy());
  }
}

TEST_F(DimsatLocationTest, Example11SaleRegionBecomesUnsatisfiable) {
  // Adding ¬SaleRegion_Country contradicts condition C7: SaleRegion's
  // only way up is through Country.
  DimensionSchema extended = ds_->WithExtraConstraint(
      ParseC(ds_->hierarchy(), "!SaleRegion/Country"));
  DimsatResult before = RunDimsat(*ds_, sale_region_);
  EXPECT_TRUE(before.satisfiable);
  DimsatResult after = RunDimsat(extended, sale_region_);
  ASSERT_OK(after.status);
  EXPECT_FALSE(after.satisfiable);
  // Other categories stay satisfiable (the constraint only bites
  // above SaleRegion)... Store requires Store.SaleRegion by (b), which
  // now cannot reach Country — everything must route around it, but
  // (b) forces SaleRegion into every store structure, so Store is
  // unsatisfiable too.
  EXPECT_FALSE(RunDimsat(extended, store_).satisfiable);
  EXPECT_TRUE(RunDimsat(extended, country_).satisfiable);
}

TEST_F(DimsatLocationTest, AllCategoryAlwaysSatisfiable) {
  // Proposition 1's core: the one-member instance over All.
  DimsatResult r = RunDimsat(*ds_, ds_->hierarchy().all());
  EXPECT_TRUE(r.satisfiable);
}

TEST_F(DimsatLocationTest, EveryLocationCategoryIsSatisfiable) {
  for (CategoryId c = 0; c < ds_->hierarchy().num_categories(); ++c) {
    EXPECT_TRUE(RunDimsat(*ds_, c).satisfiable)
        << ds_->hierarchy().CategoryName(c);
  }
}

TEST_F(DimsatLocationTest, PruningAblationsAgree) {
  for (bool shortcuts : {false, true}) {
    for (bool cycles : {false, true}) {
      for (bool into : {false, true}) {
        DimsatOptions options;
        options.prune_shortcuts = shortcuts;
        options.prune_cycles = cycles;
        options.prune_into = into;
        options.enumerate_all = true;
        DimsatResult r = RunDimsat(*ds_, store_, options);
        ASSERT_OK(r.status);
        EXPECT_EQ(r.frozen.size(), 4u)
            << "shortcuts=" << shortcuts << " cycles=" << cycles
            << " into=" << into;
      }
    }
  }
}

TEST_F(DimsatLocationTest, PruningReducesWork) {
  DimsatOptions pruned;
  pruned.enumerate_all = true;
  DimsatOptions unpruned = pruned;
  unpruned.prune_shortcuts = false;
  unpruned.prune_cycles = false;
  unpruned.prune_into = false;
  DimsatResult with_pruning = RunDimsat(*ds_, store_, pruned);
  DimsatResult without_pruning = RunDimsat(*ds_, store_, unpruned);
  EXPECT_LT(with_pruning.stats.check_calls,
            without_pruning.stats.check_calls);
  // The incremental Ss test is not complete (DESIGN.md deviations):
  // a few structural rejections remain even with pruning on, but far
  // fewer than without it.
  EXPECT_GT(without_pruning.stats.structural_rejections,
            with_pruning.stats.structural_rejections);
}

TEST_F(DimsatLocationTest, TraceRecordsExpansionAndChecks) {
  obs::SearchTreeRecorder& recorder = obs::SearchTreeRecorder::Global();
  recorder.Enable();
  DimsatResult r = RunDimsat(*ds_, store_);
  const std::vector<obs::ExplainEvent> events = recorder.Drain();
  recorder.Disable();
  ASSERT_OK(r.status);
  ASSERT_EQ(r.frozen.size(), 1u);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, obs::ExplainEvent::Kind::kExpandBegin);
  bool has_success = false;
  obs::SubhierarchyReplay g(store_);
  for (const obs::ExplainEvent& event : events) {
    g.Apply(event);
    if (event.kind == obs::ExplainEvent::Kind::kCheckOk) {
      has_success = true;
      // The g rebuilt at the successful CHECK is the witness's, with
      // only All left to expand.
      EXPECT_EQ(g.Edges(), r.frozen[0].edges);
      EXPECT_EQ(g.Top(), std::vector<int>{ds_->hierarchy().all()});
    }
  }
  EXPECT_TRUE(has_success);
  // Events render with category names.
  const std::string report =
      obs::RenderExplainReport(events, [this](int id) {
        return ds_->hierarchy().CategoryName(static_cast<CategoryId>(id));
      });
  EXPECT_NE(report.find("EDGE Store->City depth=1"), std::string::npos);
}

TEST_F(DimsatLocationTest, ExpandBudgetExhaustion) {
  DimsatOptions options;
  options.max_expand_calls = 2;
  options.enumerate_all = true;
  DimsatResult r = RunDimsat(*ds_, store_, options);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
}

TEST_F(DimsatLocationTest, MaxFrozenCap) {
  DimsatOptions options;
  options.enumerate_all = true;
  options.max_frozen = 2;
  DimsatResult r = RunDimsat(*ds_, store_, options);
  ASSERT_OK(r.status);
  EXPECT_EQ(r.frozen.size(), 2u);
}

// EXPAND enumerates the subsets of a category's free successor
// choices as a 32-bit mask. A category with more choices than that is
// rejected with an error naming it — the process must not abort, at
// any thread count.
TEST(DimsatTest, TooWideCategoryIsAnErrorNotAnAbort) {
  std::vector<std::pair<std::string, std::string>> edges;
  for (int i = 0; i < 33; ++i) {
    edges.push_back({"A", "P" + std::to_string(i)});
    edges.push_back({"P" + std::to_string(i), "All"});
  }
  DimensionSchema ds = MakeSchema(edges, {});
  const CategoryId a = ds.hierarchy().FindCategory("A");
  for (int threads : {1, 2}) {
    for (bool enumerate : {false, true}) {
      DimsatOptions options;
      options.num_threads = threads;
      options.enumerate_all = enumerate;
      DimsatResult r = RunDimsat(ds, a, options);
      EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
          << threads << " threads: " << r.status.ToString();
      EXPECT_NE(r.status.message().find("category A has 33"),
                std::string::npos)
          << r.status.ToString();
      EXPECT_FALSE(r.satisfiable);
    }
  }
  // Narrow categories of the same schema still answer.
  EXPECT_TRUE(RunDimsat(ds, ds.hierarchy().FindCategory("P0")).satisfiable);
}

TEST(DimsatTest, HierarchyWithoutConstraintsIsAlwaysSatisfiable) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"B", "C"}, {"C", "All"}, {"A", "C"}}, {});
  for (CategoryId c = 0; c < ds.hierarchy().num_categories(); ++c) {
    EXPECT_TRUE(RunDimsat(ds, c).satisfiable);
  }
}

TEST(DimsatTest, ContradictoryIntoConstraints) {
  // A must go into both B and C, but B -> C makes {A->B, A->C, B->C} a
  // shortcut and A -> C alone misses the into constraint A/B... every
  // structure containing A is contradictory.
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"A", "C"}, {"B", "C"}, {"C", "All"}},
      {"A/B", "A/C"});
  EXPECT_FALSE(RunDimsat(ds, ds.hierarchy().FindCategory("A")).satisfiable);
  // Without pruning the same answer comes out of CHECK.
  DimsatOptions unpruned;
  unpruned.prune_into = false;
  unpruned.prune_shortcuts = false;
  EXPECT_FALSE(
      RunDimsat(ds, ds.hierarchy().FindCategory("A"), unpruned).satisfiable);
}

TEST(DimsatTest, CyclicSchemaExploredSafely) {
  // Example 4's cyclic schema: DIMSAT must terminate and find the
  // acyclic structures inside the cyclic hierarchy.
  DimensionSchema ds = MakeSchema({{"Store", "SaleDistrict"},
                                   {"SaleDistrict", "City"},
                                   {"City", "SaleDistrict"},
                                   {"City", "All"},
                                   {"SaleDistrict", "All"}},
                                  {});
  DimsatResult r =
      EnumerateFrozenDimensions(ds, ds.hierarchy().FindCategory("Store"));
  ASSERT_OK(r.status);
  EXPECT_TRUE(r.satisfiable);
  for (const FrozenDimension& f : r.frozen) {
    EXPECT_FALSE(HasCycle(f.ToDigraph(ds.hierarchy().num_categories())));
  }
  // From root Store the SaleDistrict -> City orientation appears...
  CategoryId sd = ds.hierarchy().FindCategory("SaleDistrict");
  CategoryId city = ds.hierarchy().FindCategory("City");
  bool district_city = false;
  for (const FrozenDimension& f : r.frozen) {
    district_city |= f.HasEdge(sd, city);
  }
  EXPECT_TRUE(district_city);
  // ... and from root City the reverse orientation appears: the cycle
  // lets *different* members use opposite directions (Example 4).
  DimsatResult from_city = EnumerateFrozenDimensions(ds, city);
  ASSERT_OK(from_city.status);
  bool city_district = false;
  for (const FrozenDimension& f : from_city.frozen) {
    city_district |= f.HasEdge(city, sd);
  }
  EXPECT_TRUE(city_district);
}

TEST(DimsatTest, EqualityConstraintsDriveStructure) {
  // (A.C = 'x' <-> A/B): enumerating with the equality forced both
  // ways yields structures with and without the B detour.
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"A", "C"}, {"B", "C"}, {"C", "All"}},
      {"A.C = 'x' <-> A/B"});
  DimsatResult r =
      EnumerateFrozenDimensions(ds, ds.hierarchy().FindCategory("A"));
  ASSERT_OK(r.status);
  CategoryId a = ds.hierarchy().FindCategory("A");
  CategoryId b = ds.hierarchy().FindCategory("B");
  CategoryId c = ds.hierarchy().FindCategory("C");
  int via_b = 0, direct = 0;
  for (const FrozenDimension& f : r.frozen) {
    if (f.HasEdge(a, b)) {
      ++via_b;
      EXPECT_EQ(f.names[c], "x");
    } else {
      ++direct;
      EXPECT_NE(f.names[c], "x");
    }
  }
  EXPECT_EQ(via_b, 1);
  EXPECT_EQ(direct, 1);
}

}  // namespace
}  // namespace olapdc
