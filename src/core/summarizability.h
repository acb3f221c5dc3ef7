// Summarizability (paper Section 3.3, Theorem 1): category c is
// summarizable from a set S in a dimension instance d iff for every
// bottom category cb,
//     d ⊨ cb.c ⊃ ⊙_{ci in S} cb.ci.c ,
// i.e. every base member that rolls up to c does so through exactly one
// category of S. At the schema level the same constraint set must be
// *implied* by the schema, which this module decides through the
// Theorem 2 reduction and DIMSAT.

#ifndef OLAPDC_CORE_SUMMARIZABILITY_H_
#define OLAPDC_CORE_SUMMARIZABILITY_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "core/implication.h"
#include "core/schema.h"
#include "dim/dimension_instance.h"

namespace olapdc {

/// Builds the Theorem 1 test constraint for one bottom category:
///   cb.c ⊃ ⊙_{ci in S} cb.ci.c
/// S is a set: an out-of-range or repeated id is InvalidArgument.
Result<DimensionConstraint> SummarizabilityConstraint(
    const HierarchySchema& schema, CategoryId bottom, CategoryId c,
    const std::vector<CategoryId>& s);

struct SummarizabilityResult {
  bool summarizable = false;
  struct PerBottom {
    CategoryId bottom = kNoCategory;
    bool implied = false;
    /// When not implied: a frozen dimension witnessing a base member
    /// whose rollup to c avoids S or passes through several categories
    /// of S.
    std::optional<FrozenDimension> counterexample;
  };
  std::vector<PerBottom> details;
  /// Aggregate DIMSAT work of every per-bottom implication test that
  /// ran (partial tests included).
  DimsatStats stats;
  /// OK for a definitive answer; a budget error (kResourceExhausted,
  /// kDeadlineExceeded, kCancelled) when some per-bottom test stopped
  /// early — `summarizable` is then meaningless, `details` covers only
  /// the bottoms decided before the budget expired, and `stats` records
  /// the partial work.
  Status status;
};

/// Schema-level test: is c summarizable from S in *every* instance over
/// ds? (Theorem 1 + Theorem 2 + DIMSAT.) With options.num_threads > 1
/// the per-bottom implication tests run as work-stealing pool tasks
/// (and each test's own DIMSAT search parallelizes on the same pool);
/// otherwise they run in bottom order and stop after the first that
/// does not finish. `details` stays in bottom-category order either
/// way and ends before the first unfinished test. On a budget error
/// the parallel sweep has also run the bottoms after it, and `stats`
/// includes their work.
Result<SummarizabilityResult> IsSummarizable(
    const DimensionSchema& ds, CategoryId c,
    const std::vector<CategoryId>& s, const DimsatOptions& options = {});

/// Instance-level test: is c summarizable from S in this particular d?
/// (Theorem 1 checked by model checking.)
Result<bool> IsSummarizableInInstance(const DimensionInstance& d,
                                      CategoryId c,
                                      const std::vector<CategoryId>& s);

/// The base members that break instance-level summarizability of c from
/// S: those rolling up to c but not through exactly one category of S
/// (empty iff IsSummarizableInInstance is true). The actionable half of
/// a "no" answer — e.g. the Washington stores in the paper's Example
/// 10.
Result<std::vector<MemberId>> SummarizabilityViolators(
    const DimensionInstance& d, CategoryId c,
    const std::vector<CategoryId>& s);

}  // namespace olapdc

#endif  // OLAPDC_CORE_SUMMARIZABILITY_H_
