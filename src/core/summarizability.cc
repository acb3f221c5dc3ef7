#include "core/summarizability.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "constraint/evaluator.h"
#include "exec/work_stealing_pool.h"

namespace olapdc {

Result<DimensionConstraint> SummarizabilityConstraint(
    const HierarchySchema& schema, CategoryId bottom, CategoryId c,
    const std::vector<CategoryId>& s) {
  if (bottom == schema.all()) {
    return Status::InvalidArgument(
        "bottom category cannot be All (constraints cannot be rooted "
        "there)");
  }
  std::vector<ExprPtr> through;
  through.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    const CategoryId ci = s[i];
    if (ci < 0 || ci >= schema.num_categories()) {
      return Status::InvalidArgument("category id out of range in S");
    }
    // Theorem 1's S is a set: a repeated ci would turn ⊙ into one(a, a),
    // which is never true, so the question would not be the paper's.
    if (std::find(s.begin(), s.begin() + i, ci) != s.begin() + i) {
      return Status::InvalidArgument("category '" + schema.CategoryName(ci) +
                                     "' appears more than once in S");
    }
    through.push_back(MakeThroughAtom(bottom, ci, c));
  }
  ExprPtr expr = MakeImplies(MakeComposedAtom(bottom, c),
                             MakeExactlyOne(std::move(through)));
  return MakeConstraintWithRoot(schema, bottom, std::move(expr));
}

Result<SummarizabilityResult> IsSummarizable(
    const DimensionSchema& ds, CategoryId c,
    const std::vector<CategoryId>& s, const DimsatOptions& options) {
  const HierarchySchema& schema = ds.hierarchy();
  if (c < 0 || c >= schema.num_categories()) {
    return Status::InvalidArgument("target category out of range");
  }

  SummarizabilityResult result;
  result.summarizable = true;

  std::vector<CategoryId> bottoms;
  std::vector<DimensionConstraint> alphas;
  for (CategoryId bottom : schema.bottom_categories()) {
    if (bottom == schema.all()) continue;  // degenerate one-node schema
    OLAPDC_ASSIGN_OR_RETURN(DimensionConstraint alpha,
                            SummarizabilityConstraint(schema, bottom, c, s));
    bottoms.push_back(bottom);
    alphas.push_back(std::move(alpha));
  }

  // One implication test per bottom: pool tasks when parallel (each
  // test's own DIMSAT search parallelizes further on the same pool),
  // otherwise inline in bottom order, stopping after the first test
  // that does not finish.
  std::vector<std::optional<Result<ImplicationResult>>> tests(bottoms.size());
  if (options.num_threads > 1 && bottoms.size() > 1) {
    exec::TaskGroup group(options.pool != nullptr ? options.pool
                                                  : &exec::ProcessPool());
    for (size_t i = 0; i < bottoms.size(); ++i) {
      group.Spawn([&, i] { tests[i].emplace(Implies(ds, alphas[i], options)); });
    }
    group.Wait();
  } else {
    for (size_t i = 0; i < bottoms.size(); ++i) {
      tests[i].emplace(Implies(ds, alphas[i], options));
      if (!tests[i]->ok() || !(*tests[i])->status.ok()) break;
    }
  }

  // Merge in bottom order. The verdict and the details stop at the
  // first test that did not finish; the stats count every test that
  // ran.
  for (size_t i = 0; i < tests.size() && tests[i].has_value(); ++i) {
    Result<ImplicationResult>& test = *tests[i];
    if (!test.ok()) {
      if (result.status.ok()) return test.status();
      continue;
    }
    AccumulateStats(&result.stats, test->stats);
    if (!result.status.ok()) continue;
    if (!test->status.ok()) {
      // Budget expired mid-test: the bottoms already decided stay as
      // a partial answer.
      result.status = test->status;
      result.summarizable = false;
      continue;
    }
    SummarizabilityResult::PerBottom detail;
    detail.bottom = bottoms[i];
    detail.implied = test->implied;
    detail.counterexample = std::move(test->counterexample);
    result.summarizable &= test->implied;
    result.details.push_back(std::move(detail));
  }
  return result;
}

Result<bool> IsSummarizableInInstance(const DimensionInstance& d,
                                      CategoryId c,
                                      const std::vector<CategoryId>& s) {
  const HierarchySchema& schema = d.hierarchy();
  for (CategoryId bottom : schema.bottom_categories()) {
    if (bottom == schema.all()) continue;
    OLAPDC_ASSIGN_OR_RETURN(
        DimensionConstraint alpha,
        SummarizabilityConstraint(schema, bottom, c, s));
    if (!Satisfies(d, alpha)) return false;
  }
  return true;
}

Result<std::vector<MemberId>> SummarizabilityViolators(
    const DimensionInstance& d, CategoryId c,
    const std::vector<CategoryId>& s) {
  const HierarchySchema& schema = d.hierarchy();
  std::vector<MemberId> violators;
  for (CategoryId bottom : schema.bottom_categories()) {
    if (bottom == schema.all()) continue;
    OLAPDC_ASSIGN_OR_RETURN(
        DimensionConstraint alpha,
        SummarizabilityConstraint(schema, bottom, c, s));
    for (MemberId m : ViolatingMembers(d, alpha)) {
      violators.push_back(m);
    }
  }
  return violators;
}

}  // namespace olapdc
