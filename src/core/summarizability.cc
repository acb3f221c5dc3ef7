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
  for (CategoryId bottom : schema.bottom_categories()) {
    if (bottom == schema.all()) continue;  // degenerate one-node schema
    bottoms.push_back(bottom);
  }

  if (options.num_threads > 1 && bottoms.size() > 1) {
    // Parallel sweep: every per-bottom test becomes a pool task (and
    // its DIMSAT search parallelizes further on the same pool). The
    // constraints are built up front so construction errors stay
    // deterministic; results merge in bottom order below.
    std::vector<DimensionConstraint> alphas;
    alphas.reserve(bottoms.size());
    for (CategoryId bottom : bottoms) {
      OLAPDC_ASSIGN_OR_RETURN(
          DimensionConstraint alpha,
          SummarizabilityConstraint(schema, bottom, c, s));
      alphas.push_back(std::move(alpha));
    }
    exec::WorkStealingPool& pool =
        options.pool != nullptr ? *options.pool : exec::ProcessPool();
    std::vector<std::optional<Result<ImplicationResult>>> slots(
        bottoms.size());
    {
      exec::TaskGroup group(&pool);
      for (size_t i = 0; i < bottoms.size(); ++i) {
        group.Spawn(
            [&, i] { slots[i].emplace(Implies(ds, alphas[i], options)); });
      }
      group.Wait();
    }
    for (size_t i = 0; i < bottoms.size(); ++i) {
      Result<ImplicationResult>& slot = *slots[i];
      OLAPDC_RETURN_NOT_OK(slot.status());
      ImplicationResult implication = std::move(slot).ValueOrDie();
      AccumulateStats(&result.stats, implication.stats);
      if (!implication.status.ok()) {
        result.status = implication.status;
        result.summarizable = false;
        return result;
      }
      SummarizabilityResult::PerBottom detail;
      detail.bottom = bottoms[i];
      detail.implied = implication.implied;
      detail.counterexample = std::move(implication.counterexample);
      result.summarizable &= implication.implied;
      result.details.push_back(std::move(detail));
    }
    return result;
  }

  for (CategoryId bottom : bottoms) {
    OLAPDC_ASSIGN_OR_RETURN(
        DimensionConstraint alpha,
        SummarizabilityConstraint(schema, bottom, c, s));
    OLAPDC_ASSIGN_OR_RETURN(ImplicationResult implication,
                            Implies(ds, alpha, options));
    AccumulateStats(&result.stats, implication.stats);
    if (!implication.status.ok()) {
      // Budget expired mid-test: stop, keep the bottoms already
      // decided as a partial answer.
      result.status = implication.status;
      result.summarizable = false;
      return result;
    }
    SummarizabilityResult::PerBottom detail;
    detail.bottom = bottom;
    detail.implied = implication.implied;
    detail.counterexample = std::move(implication.counterexample);
    result.summarizable &= implication.implied;
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
