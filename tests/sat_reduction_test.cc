// Tests for the Theorem 4 reduction: DIMSAT on the reduced schema must
// agree with brute-force CNF satisfiability.

#include <gtest/gtest.h>

#include "core/dimsat.h"
#include "core/sat_reduction.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

TEST(SatReductionTest, TinyFormulas) {
  // (x1) satisfiable.
  Cnf sat{1, {{1}}};
  ASSERT_OK_AND_ASSIGN(SatReduction r,
                       ReduceCnfToCategorySatisfiability(sat));
  EXPECT_TRUE(RunDimsat(r.schema, r.query).satisfiable);

  // (x1) and (!x1) unsatisfiable.
  Cnf unsat{1, {{1}, {-1}}};
  ASSERT_OK_AND_ASSIGN(SatReduction r2,
                       ReduceCnfToCategorySatisfiability(unsat));
  EXPECT_FALSE(RunDimsat(r2.schema, r2.query).satisfiable);
}

TEST(SatReductionTest, WitnessEncodesModel) {
  // (x1 | x2) & (!x1 | x2): x2 must be true.
  Cnf cnf{2, {{1, 2}, {-1, 2}}};
  ASSERT_OK_AND_ASSIGN(SatReduction r, ReduceCnfToCategorySatisfiability(cnf));
  DimsatResult result = RunDimsat(r.schema, r.query);
  ASSERT_TRUE(result.satisfiable);
  const HierarchySchema& schema = r.schema.hierarchy();
  CategoryId x2 = schema.FindCategory("X2");
  EXPECT_TRUE(result.frozen[0].HasEdge(r.query, x2));
}

TEST(SatReductionTest, EvalAndBruteForce) {
  Cnf cnf{3, {{1, -2}, {2, 3}, {-1, -3}}};
  EXPECT_TRUE(EvalCnf(cnf, {true, true, true}) == false);  // clause 3
  EXPECT_TRUE(EvalCnf(cnf, {true, true, false}));
  EXPECT_TRUE(BruteForceCnfSat(cnf));
  Cnf contradiction{1, {{1}, {-1}}};
  EXPECT_FALSE(BruteForceCnfSat(contradiction));
}

TEST(SatReductionTest, InvalidInputs) {
  EXPECT_FALSE(ReduceCnfToCategorySatisfiability(Cnf{0, {}}).ok());
  EXPECT_FALSE(ReduceCnfToCategorySatisfiability(Cnf{1, {{2}}}).ok());
  EXPECT_FALSE(ReduceCnfToCategorySatisfiability(Cnf{1, {{}}}).ok());
}

TEST(SatReductionTest, RandomCnfShape) {
  Cnf cnf = RandomCnf(6, 10, 3, /*seed=*/42);
  EXPECT_EQ(cnf.num_variables, 6);
  EXPECT_EQ(cnf.clauses.size(), 10u);
  for (const auto& clause : cnf.clauses) {
    EXPECT_EQ(clause.size(), 3u);
    for (int lit : clause) {
      EXPECT_NE(lit, 0);
      EXPECT_LE(std::abs(lit), 6);
    }
  }
  // Deterministic in the seed.
  Cnf again = RandomCnf(6, 10, 3, 42);
  EXPECT_EQ(cnf.clauses, again.clauses);
  EXPECT_NE(RandomCnf(6, 10, 3, 43).clauses, cnf.clauses);
}

// Differential: DIMSAT through the reduction == brute-force SAT, over a
// sweep of random 3-SAT instances around the sat/unsat threshold.
class SatDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SatDifferentialTest, DimsatAgreesWithBruteForce) {
  const int seed = GetParam();
  // ~4.3 clauses/variable is the hard band; sample both sides.
  const int num_variables = 5;
  const int num_clauses = 4 + (seed % 4) * 6;  // 4, 10, 16, 22
  Cnf cnf = RandomCnf(num_variables, num_clauses, 3, seed);
  ASSERT_OK_AND_ASSIGN(SatReduction r, ReduceCnfToCategorySatisfiability(cnf));
  DimsatResult result = RunDimsat(r.schema, r.query);
  ASSERT_OK(result.status);
  EXPECT_EQ(result.satisfiable, BruteForceCnfSat(cnf)) << "seed " << seed;
  if (result.satisfiable) {
    // Decode the witness into an assignment and re-check.
    std::vector<bool> assignment(num_variables);
    const HierarchySchema& schema = r.schema.hierarchy();
    for (int i = 1; i <= num_variables; ++i) {
      CategoryId xi = schema.FindCategory("X" + std::to_string(i));
      assignment[i - 1] = result.frozen[0].HasEdge(r.query, xi);
    }
    EXPECT_TRUE(EvalCnf(cnf, assignment));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatDifferentialTest, ::testing::Range(0, 24));

}  // namespace
}  // namespace olapdc
