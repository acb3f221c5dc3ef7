// Shared helpers for olapdc tests.

#ifndef OLAPDC_TESTS_TEST_UTIL_H_
#define OLAPDC_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "constraint/parser.h"
#include "core/schema.h"
#include "dim/hierarchy_schema.h"

#define ASSERT_OK(expr)                                               \
  do {                                                                \
    const auto& _st = (expr);                                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                          \
  } while (false)

#define EXPECT_OK(expr)                                               \
  do {                                                                \
    const auto& _st = (expr);                                         \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                          \
  } while (false)

/// Unwraps a Result<T>, failing the test on error.
#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                              \
  ASSERT_OK_AND_ASSIGN_IMPL(OLAPDC_CONCAT_NAME(_r, __COUNTER__), lhs, rexpr)
#define ASSERT_OK_AND_ASSIGN_IMPL(var, lhs, rexpr)                    \
  auto var = (rexpr);                                                 \
  ASSERT_TRUE(var.ok()) << var.status().ToString();                  \
  lhs = std::move(var).ValueOrDie()

namespace olapdc {
namespace testing_util {

/// Builds a hierarchy schema from an edge list of category names.
inline HierarchySchemaPtr MakeHierarchy(
    const std::vector<std::pair<std::string, std::string>>& edges) {
  HierarchySchemaBuilder builder;
  for (const auto& [a, b] : edges) builder.AddEdge(a, b);
  auto result = builder.BuildShared();
  OLAPDC_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

/// Parses a constraint, aborting on error (for known-good test input).
inline DimensionConstraint ParseC(const HierarchySchema& schema,
                                  const std::string& text,
                                  std::string label = "") {
  auto result = ParseConstraint(schema, text, std::move(label));
  OLAPDC_CHECK(result.ok()) << text << ": " << result.status().ToString();
  return std::move(result).ValueOrDie();
}

/// Builds a DimensionSchema from edges + constraint texts.
inline DimensionSchema MakeSchema(
    const std::vector<std::pair<std::string, std::string>>& edges,
    const std::vector<std::string>& constraint_texts) {
  HierarchySchemaPtr hierarchy = MakeHierarchy(edges);
  std::vector<DimensionConstraint> constraints;
  for (const std::string& text : constraint_texts) {
    constraints.push_back(ParseC(*hierarchy, text));
  }
  return DimensionSchema(std::move(hierarchy), std::move(constraints));
}

/// The edges of the `levels`-level ladder: Base -> L1a, L1b; every
/// category of level k -> both of level k+1; L<levels>a, b -> All. An
/// atom Base.L<k>a abbreviates 2^(k-1) simple paths.
inline std::vector<std::pair<std::string, std::string>> LadderEdges(
    int levels) {
  std::vector<std::pair<std::string, std::string>> edges;
  auto level = [](int k) {
    return std::vector<std::string>{"L" + std::to_string(k) + "a",
                                    "L" + std::to_string(k) + "b"};
  };
  for (const std::string& c : level(1)) edges.emplace_back("Base", c);
  for (int k = 1; k < levels; ++k) {
    for (const std::string& from : level(k)) {
      for (const std::string& to : level(k + 1)) edges.emplace_back(from, to);
    }
  }
  for (const std::string& c : level(levels)) edges.emplace_back(c, "All");
  return edges;
}

}  // namespace testing_util
}  // namespace olapdc

#endif  // OLAPDC_TESTS_TEST_UTIL_H_
