// Tests for the heterogeneity report and the homogeneity test.

#include <gtest/gtest.h>

#include <string>

#include "core/location_example.h"
#include "core/report.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

using testing_util::MakeSchema;

TEST(ReportTest, LocationReportMentionsEverything) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  ASSERT_OK_AND_ASSIGN(std::string report, HeterogeneityReport(ds));
  // Sections.
  for (const char* marker :
       {"== structure ==", "== constraints (7) ==", "== satisfiability ==",
        "== frozen dimensions", "== summarizability matrix"}) {
    EXPECT_NE(report.find(marker), std::string::npos) << marker;
  }
  // Content spot checks.
  EXPECT_NE(report.find("4 frozen dimension(s)"), std::string::npos);
  EXPECT_NE(report.find("all categories satisfiable"), std::string::npos);
  EXPECT_NE(report.find("Washington"), std::string::npos);
  EXPECT_NE(report.find("City->Country"), std::string::npos);  // shortcut

  // `olapdc report --threads N` passes N through: the satisfiability
  // loop then runs on the pool, and the report is byte-identical.
  ReportOptions parallel;
  parallel.dimsat.num_threads = 2;
  ASSERT_OK_AND_ASSIGN(std::string parallel_report,
                       HeterogeneityReport(ds, parallel));
  EXPECT_EQ(parallel_report, report);
}

TEST(ReportTest, UnsatisfiableCategoryCalledOut) {
  DimensionSchema ds = MakeSchema({{"A", "B"}, {"B", "All"}}, {"!A/B"});
  ReportOptions options;
  options.include_summarizability_matrix = false;
  ASSERT_OK_AND_ASSIGN(std::string report, HeterogeneityReport(ds, options));
  EXPECT_NE(report.find("A: UNSATISFIABLE"), std::string::npos);
  EXPECT_EQ(report.find("summarizability matrix"), std::string::npos);
}

TEST(HomogeneityTest, LocationIsHeterogeneous) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  for (int threads : {1, 2}) {
    DimsatOptions options;
    options.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(bool homogeneous, IsHomogeneousSchema(ds, options));
    EXPECT_FALSE(homogeneous) << threads << " threads";
  }
}

TEST(HomogeneityTest, FullyIntoConstrainedChainIsHomogeneous) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"B", "C"}, {"C", "All"}}, {"A/B", "B/C"});
  for (int threads : {1, 2}) {
    DimsatOptions options;
    options.num_threads = threads;
    ASSERT_OK_AND_ASSIGN(bool homogeneous, IsHomogeneousSchema(ds, options));
    EXPECT_TRUE(homogeneous) << threads << " threads";
  }
}

TEST(HomogeneityTest, UnconstrainedDiamondIsHeterogeneous) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"A", "C"}, {"B", "All"}, {"C", "All"}}, {});
  ASSERT_OK_AND_ASSIGN(bool homogeneous, IsHomogeneousSchema(ds));
  EXPECT_FALSE(homogeneous) << "members may pick B, C, or both";
}

TEST(HomogeneityTest, ConstraintsCanRestoreHomogeneity) {
  DimensionSchema ds = MakeSchema(
      {{"A", "B"}, {"A", "C"}, {"B", "All"}, {"C", "All"}},
      {"A/B & A/C"});
  ASSERT_OK_AND_ASSIGN(bool homogeneous, IsHomogeneousSchema(ds));
  EXPECT_TRUE(homogeneous) << "both parents forced -> single structure";
}

TEST(ReportTest, FrozenDotOutput) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  DimsatResult r = EnumerateFrozenDimensions(
      ds, ds.hierarchy().FindCategory("Store"));
  ASSERT_OK(r.status);
  ASSERT_FALSE(r.frozen.empty());
  std::string all_dots;
  for (const FrozenDimension& f : r.frozen) {
    std::string dot = f.ToDot(ds.hierarchy());
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    all_dots += dot;
  }
  // The Washington structure annotates City with its constant.
  EXPECT_NE(all_dots.find("Washington"), std::string::npos);
}

}  // namespace
}  // namespace olapdc
