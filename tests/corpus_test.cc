// Data-driven corpus test: every schema file shipped under data/ must
// load, satisfy the well-formedness rules, keep all categories
// satisfiable, enumerate its frozen dimensions within budget, and
// round-trip through serialization with identical reasoning results.
// Adding a schema file to data/ automatically brings it under test.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/dimsat.h"
#include "core/implication.h"
#include "core/report.h"
#include "io/schema_io.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

std::vector<std::string> CorpusFiles() {
  std::vector<std::string> files;
  std::filesystem::path dir = std::filesystem::path(OLAPDC_SOURCE_DIR) /
                              "data";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".olapdc") {
      files.push_back(entry.path().string());
    }
  }
  OLAPDC_CHECK(!files.empty()) << "corpus directory empty";
  std::sort(files.begin(), files.end());
  return files;
}

class CorpusTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusTest, LoadsAuditsAndRoundTrips) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LoadSchemaFile(GetParam()));
  const HierarchySchema& schema = ds.hierarchy();
  EXPECT_GE(schema.num_categories(), 2);

  // Every category of the shipped schemas is satisfiable.
  for (CategoryId c = 0; c < schema.num_categories(); ++c) {
    ASSERT_OK_AND_ASSIGN(bool satisfiable, IsCategorySatisfiable(ds, c));
    EXPECT_TRUE(satisfiable) << schema.CategoryName(c);
  }

  // Frozen enumeration completes within a tight budget from every
  // bottom category, and the structures materialize into valid models.
  for (CategoryId b : schema.bottom_categories()) {
    DimsatOptions options;
    options.enumerate_all = true;
    options.max_expand_calls = 100000;
    DimsatResult r = RunDimsat(ds, b, options);
    ASSERT_OK(r.status);
    EXPECT_TRUE(r.satisfiable);
    for (const FrozenDimension& f : r.frozen) {
      ASSERT_OK(f.ToInstance(ds).status());
    }
  }

  // Serialization round-trip preserves reasoning.
  ASSERT_OK_AND_ASSIGN(DimensionSchema reparsed,
                       ParseSchemaText(SerializeSchema(ds)));
  for (CategoryId b : schema.bottom_categories()) {
    DimsatOptions options;
    options.enumerate_all = true;
    DimsatResult a = RunDimsat(ds, b, options);
    DimsatResult b2 = RunDimsat(
        reparsed, reparsed.hierarchy().FindCategory(schema.CategoryName(b)),
        options);
    EXPECT_EQ(a.frozen.size(), b2.frozen.size()) << GetParam();
  }

  // The heterogeneity report renders without error.
  ReportOptions report_options;
  report_options.include_summarizability_matrix = false;
  EXPECT_OK(HeterogeneityReport(ds, report_options).status());
}

INSTANTIATE_TEST_SUITE_P(
    DataDir, CorpusTest, ::testing::ValuesIn(CorpusFiles()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = std::filesystem::path(info.param).stem().string();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace olapdc
