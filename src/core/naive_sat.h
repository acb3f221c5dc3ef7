// NaiveSat: the unoptimized decision procedure Theorem 3 suggests —
// enumerate every candidate subhierarchy (all subsets of the schema
// edges reachable from the root) and every candidate frozen dimension
// over it. Exponential in the edge count; usable only on small schemas.
// Serves as (1) the correctness oracle DIMSAT is differentially tested
// against and (2) the baseline in the dimsat_vs_naive benchmark (E10).

#ifndef OLAPDC_CORE_NAIVE_SAT_H_
#define OLAPDC_CORE_NAIVE_SAT_H_

#include <cstdint>

#include "common/budget.h"
#include "common/result.h"
#include "core/dimsat.h"
#include "core/schema.h"

namespace olapdc {

struct NaiveSatOptions {
  bool require_injective_names = false;
  bool enumerate_all = false;
  size_t max_frozen = 1 << 20;
  /// Refuses instances whose relevant edge count exceeds this (the
  /// enumeration is 2^edges).
  int max_edges = 26;
  /// Simple paths ExpandShorthands may list for one constraint.
  size_t path_limit = 1 << 20;
  /// Wall-clock / cancellation budget; not owned, may be null. On
  /// expiration the enumeration stops with the budget status and
  /// partial stats in DimsatResult (mirroring RunDimsat()).
  const Budget* budget = nullptr;
  /// Candidate subhierarchies between full budget probes.
  uint32_t budget_check_stride = 64;
};

/// Decides satisfiability of `root` in `ds` by exhaustive enumeration.
/// Shares DimsatResult so tests can compare outcomes & witnesses;
/// stats.check_calls counts candidate subhierarchies tested.
Result<DimsatResult> NaiveSat(const DimensionSchema& ds, CategoryId root,
                              const NaiveSatOptions& options = {});

}  // namespace olapdc

#endif  // OLAPDC_CORE_NAIVE_SAT_H_
