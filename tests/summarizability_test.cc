// Tests for summarizability (Theorem 1): the paper's Example 10 at
// schema and instance level, plus the end-to-end property that
// schema-level summarizability exactly predicts correctness of the
// Definition 6 cube-view rewriting.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/location_example.h"
#include "core/summarizability.h"
#include "olap/cube_view.h"
#include "tests/test_util.h"
#include "workload/instance_generator.h"

namespace olapdc {
namespace {

class SummarizabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_OK_AND_ASSIGN(ds_, LocationSchema());
    ASSERT_OK_AND_ASSIGN(instance_, LocationInstance());
    const HierarchySchema& schema = ds_->hierarchy();
    store_ = schema.FindCategory("Store");
    city_ = schema.FindCategory("City");
    province_ = schema.FindCategory("Province");
    state_ = schema.FindCategory("State");
    sale_region_ = schema.FindCategory("SaleRegion");
    country_ = schema.FindCategory("Country");
  }

  bool SchemaLevel(CategoryId c, std::vector<CategoryId> s) {
    auto result = IsSummarizable(*ds_, c, s);
    OLAPDC_CHECK(result.ok()) << result.status().ToString();
    return result->summarizable;
  }

  bool InstanceLevel(CategoryId c, std::vector<CategoryId> s) {
    auto result = IsSummarizableInInstance(*instance_, c, s);
    OLAPDC_CHECK(result.ok()) << result.status().ToString();
    return *result;
  }

  std::optional<DimensionSchema> ds_;
  std::optional<DimensionInstance> instance_;
  CategoryId store_, city_, province_, state_, sale_region_, country_;
};

TEST_F(SummarizabilityTest, Example10SchemaLevel) {
  EXPECT_TRUE(SchemaLevel(country_, {city_}));
  EXPECT_FALSE(SchemaLevel(country_, {state_, province_}));
  EXPECT_TRUE(SchemaLevel(country_, {sale_region_}));
}

TEST_F(SummarizabilityTest, Example10InstanceLevel) {
  EXPECT_TRUE(InstanceLevel(country_, {city_}));
  EXPECT_FALSE(InstanceLevel(country_, {state_, province_}));
  EXPECT_TRUE(InstanceLevel(country_, {sale_region_}));
}

TEST_F(SummarizabilityTest, MoreSchemaLevelCases) {
  // Province is only reached through City.
  EXPECT_TRUE(SchemaLevel(province_, {city_}));
  // SaleRegion is NOT summarizable from {Province, State}: US stores
  // reach it directly.
  EXPECT_FALSE(SchemaLevel(sale_region_, {province_, state_}));
  // Country from {City, SaleRegion} double-counts: every store reaches
  // Country through both.
  EXPECT_FALSE(SchemaLevel(country_, {city_, sale_region_}));
  // A category is summarizable from itself.
  EXPECT_TRUE(SchemaLevel(country_, {country_}));
  EXPECT_TRUE(SchemaLevel(city_, {city_}));
  // Empty S: only works if nothing reaches c at all — not here.
  EXPECT_FALSE(SchemaLevel(country_, {}));
  // All from {Country}: every store reaches All through Country.
  EXPECT_TRUE(SchemaLevel(ds_->hierarchy().all(), {country_}));
}

TEST_F(SummarizabilityTest, DetailsIdentifyCounterexample) {
  ASSERT_OK_AND_ASSIGN(SummarizabilityResult r,
                       IsSummarizable(*ds_, country_, {state_, province_}));
  EXPECT_FALSE(r.summarizable);
  ASSERT_EQ(r.details.size(), 1u);  // one bottom category: Store
  EXPECT_EQ(r.details[0].bottom, store_);
  EXPECT_FALSE(r.details[0].implied);
  // The counterexample is the Washington structure: City -> Country.
  ASSERT_TRUE(r.details[0].counterexample.has_value());
  EXPECT_TRUE(r.details[0].counterexample->HasEdge(city_, country_));
}

// Theorem 1's S is a set. A repeated source is malformed input, not a
// question with an answer (⊙(a, a) would never hold), at the schema
// level and at the instance level alike.
TEST_F(SummarizabilityTest, RepeatedSourceIsInvalidArgument) {
  const CategoryId all = ds_->hierarchy().all();
  Result<SummarizabilityResult> schema_level =
      IsSummarizable(*ds_, all, {country_, country_});
  ASSERT_FALSE(schema_level.ok());
  EXPECT_EQ(schema_level.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(schema_level.status().message().find("Country"),
            std::string::npos);
  Result<bool> instance_level =
      IsSummarizableInInstance(*instance_, all, {country_, country_});
  ASSERT_FALSE(instance_level.ok());
  EXPECT_EQ(instance_level.status().code(), StatusCode::kInvalidArgument);
  // The same check guards the violator listing and the parallel sweep.
  EXPECT_EQ(SummarizabilityViolators(*instance_, all, {city_, country_, city_})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  DimsatOptions parallel;
  parallel.num_threads = 2;
  EXPECT_EQ(
      IsSummarizable(*ds_, all, {country_, country_}, parallel).status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(SummarizabilityTest, ViolatorsPinpointWashingtonStores) {
  ASSERT_OK_AND_ASSIGN(
      std::vector<MemberId> violators,
      SummarizabilityViolators(*instance_, country_, {state_, province_}));
  ASSERT_EQ(violators.size(), 1u);
  EXPECT_EQ(instance_->member(violators[0]).key, "st-was-1");
  // A summarizable pair has no violators.
  ASSERT_OK_AND_ASSIGN(std::vector<MemberId> none,
                       SummarizabilityViolators(*instance_, country_, {city_}));
  EXPECT_TRUE(none.empty());
  // Double counting also names the culprits (here: every store reaches
  // Country through both City and SaleRegion).
  ASSERT_OK_AND_ASSIGN(
      std::vector<MemberId> doubled,
      SummarizabilityViolators(*instance_, country_, {city_, sale_region_}));
  EXPECT_EQ(doubled.size(), 7u);
}

// The parallel per-bottom sweep (options.num_threads > 1) must agree
// with the sequential loop bottom-for-bottom; the location schema has
// a single bottom, so build a two-bottom schema where the sweep
// actually fans out.
TEST_F(SummarizabilityTest, ParallelSweepMatchesSequential) {
  HierarchySchemaBuilder b;
  b.AddEdge("Store", "City").AddEdge("Warehouse", "City");
  b.AddEdge("Warehouse", "Region").AddEdge("City", "Region");
  b.AddEdge("Region", "All");
  ASSERT_OK_AND_ASSIGN(HierarchySchemaPtr g, b.BuildShared());
  DimensionSchema ds(g, {});
  const CategoryId region = g->FindCategory("Region");
  const CategoryId city = g->FindCategory("City");

  DimsatOptions sequential_options;
  DimsatOptions parallel_options;
  parallel_options.num_threads = 4;
  for (const std::vector<CategoryId>& sources :
       {std::vector<CategoryId>{city}, std::vector<CategoryId>{region}}) {
    ASSERT_OK_AND_ASSIGN(SummarizabilityResult seq,
                         IsSummarizable(ds, region, sources,
                                        sequential_options));
    ASSERT_OK_AND_ASSIGN(SummarizabilityResult par,
                         IsSummarizable(ds, region, sources,
                                        parallel_options));
    EXPECT_EQ(par.summarizable, seq.summarizable);
    ASSERT_EQ(par.details.size(), seq.details.size());
    for (size_t i = 0; i < seq.details.size(); ++i) {
      EXPECT_EQ(par.details[i].bottom, seq.details[i].bottom);
      EXPECT_EQ(par.details[i].implied, seq.details[i].implied);
    }
  }
}

// The sweep's stats count every per-bottom test that ran. At 4 threads
// every bottom's test runs; here the first bottom (Big, 255 ways up
// to M) hits the expand cap and the second (Small) finishes.
TEST_F(SummarizabilityTest, ParallelSweepStatsCountEveryTestThatRan) {
  HierarchySchemaBuilder b;
  for (int i = 0; i < 8; ++i) {
    const std::string x = "X" + std::to_string(i);
    b.AddEdge("Big", x).AddEdge(x, "M");
  }
  b.AddEdge("Small", "M").AddEdge("M", "Top").AddEdge("Top", "All");
  ASSERT_OK_AND_ASSIGN(HierarchySchemaPtr g, b.BuildShared());
  DimensionSchema ds(g, {});
  const CategoryId big = g->FindCategory("Big");
  const CategoryId small = g->FindCategory("Small");
  const CategoryId top = g->FindCategory("Top");
  const std::vector<CategoryId> sources = {g->FindCategory("M")};
  ASSERT_EQ(g->bottom_categories(), (std::vector<CategoryId>{big, small}));

  DimsatOptions options;
  options.num_threads = 4;
  options.max_expand_calls = 100;
  ASSERT_OK_AND_ASSIGN(DimensionConstraint big_alpha,
                       SummarizabilityConstraint(*g, big, top, sources));
  ASSERT_OK_AND_ASSIGN(ImplicationResult big_test,
                       Implies(ds, big_alpha, options));
  ASSERT_EQ(big_test.status.code(), StatusCode::kResourceExhausted);
  ASSERT_OK_AND_ASSIGN(DimensionConstraint small_alpha,
                       SummarizabilityConstraint(*g, small, top, sources));
  ASSERT_OK_AND_ASSIGN(ImplicationResult small_test,
                       Implies(ds, small_alpha, options));
  ASSERT_OK(small_test.status);
  ASSERT_TRUE(small_test.implied);

  ASSERT_OK_AND_ASSIGN(SummarizabilityResult sweep,
                       IsSummarizable(ds, top, sources, options));
  EXPECT_EQ(sweep.status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(sweep.summarizable);
  EXPECT_TRUE(sweep.details.empty());
  EXPECT_EQ(sweep.stats.expand_calls,
            big_test.stats.expand_calls + small_test.stats.expand_calls);
}

TEST_F(SummarizabilityTest, InstanceMoreSummarizableThanSchema) {
  // Drop the Washington store: in the remaining instance Country IS
  // summarizable from {State, Province, City-direct}: actually from
  // {State, Province} since all remaining stores pass through one of
  // them. The schema still refuses (it must cover Washington-like
  // instances).
  DimensionInstanceBuilder builder(ds_->hierarchy_ptr());
  builder.AddMember("Canada", "Country")
      .AddMemberUnder("SR-Canada", "SaleRegion", "Canada")
      .AddMemberUnder("Ontario", "Province", "SR-Canada")
      .AddMemberUnder("Toronto", "City", "Ontario")
      .AddMemberUnder("s1", "Store", "Toronto");
  ASSERT_OK_AND_ASSIGN(DimensionInstance small, builder.Build());
  ASSERT_OK_AND_ASSIGN(
      bool inst_level,
      IsSummarizableInInstance(small, country_, {state_, province_}));
  EXPECT_TRUE(inst_level);
  EXPECT_FALSE(SchemaLevel(country_, {state_, province_}));
}

// End-to-end Theorem 1 / Definition 6 coherence: for every candidate
// (c, S) pair on the location dimension, schema-level summarizability
// must exactly predict whether the rewriting reproduces the direct cube
// view on the concrete instance... (one direction: summarizable =>
// equal; the converse needs the right witness instance, so for
// non-summarizable pairs we check against an instance generated from
// the schema's own frozen dimensions, which realizes every structure).
class RewriteCoherenceTest
    : public ::testing::TestWithParam<std::tuple<int, AggFn>> {};

TEST_P(RewriteCoherenceTest, SummarizabilityPredictsRewriteEquality) {
  auto [case_index, agg] = GetParam();
  auto ds_result = LocationSchema();
  ASSERT_TRUE(ds_result.ok());
  const DimensionSchema& ds = *ds_result;
  const HierarchySchema& schema = ds.hierarchy();
  CategoryId city = schema.FindCategory("City");
  CategoryId province = schema.FindCategory("Province");
  CategoryId state = schema.FindCategory("State");
  CategoryId sale_region = schema.FindCategory("SaleRegion");
  CategoryId country = schema.FindCategory("Country");

  struct Case {
    CategoryId target;
    std::vector<CategoryId> sources;
  };
  const std::vector<Case> cases = {
      {country, {city}},
      {country, {sale_region}},
      {country, {state, province}},
      {country, {city, sale_region}},
      {sale_region, {province, state}},
      {province, {city}},
      {country, {country}},
      {sale_region, {city}},
  };
  const Case& c = cases[case_index];

  // Instance realizing every structure of the schema + random facts.
  InstanceGenOptions gen;
  gen.branching = 2;
  gen.copies = 2;
  auto inst_result = GenerateInstanceFromFrozen(ds, gen);
  ASSERT_TRUE(inst_result.ok()) << inst_result.status().ToString();
  const DimensionInstance& d = *inst_result;
  FactGenOptions fact_gen;
  fact_gen.facts_per_base_member = 3;
  FactTable facts = GenerateFacts(d, fact_gen);

  auto summ = IsSummarizable(ds, c.target, c.sources);
  ASSERT_TRUE(summ.ok());

  CubeViewResult direct = ComputeCubeView(d, facts, c.target, agg);
  std::vector<CubeViewResult> source_views;
  for (CategoryId s : c.sources) {
    source_views.push_back(ComputeCubeView(d, facts, s, agg));
  }
  std::vector<MaterializedView> sources;
  for (size_t i = 0; i < c.sources.size(); ++i) {
    sources.push_back(MaterializedView{c.sources[i], &source_views[i]});
  }
  CubeViewResult rewritten = RewriteFromViews(d, sources, c.target, agg);

  if (summ->summarizable) {
    EXPECT_TRUE(CubeViewsEqual(direct, rewritten))
        << "summarizable pair must rewrite exactly (case " << case_index
        << ")";
  } else if (agg == AggFn::kSum || agg == AggFn::kCount) {
    // For SUM/COUNT the generated instance contains a structure
    // realizing the failure, so the rewriting must differ. (MIN/MAX
    // can coincide by accident: duplicates are absorbed.)
    EXPECT_FALSE(CubeViewsEqual(direct, rewritten))
        << "non-summarizable pair rewrote exactly (case " << case_index
        << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCasesAllAggregates, RewriteCoherenceTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(AggFn::kSum, AggFn::kCount,
                                         AggFn::kMin, AggFn::kMax)));

}  // namespace
}  // namespace olapdc
