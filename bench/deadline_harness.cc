// Deadline-overshoot harness: how promptly does a budgeted DIMSAT run
// return once its wall-clock deadline passes? The amortized check
// (every budget_check_stride EXPAND calls) trades probe overhead for
// overshoot; this table measures both sides on an adversarial schema
// whose full enumeration dwarfs every deadline tried. The acceptance
// bar is elapsed < 2x deadline at the default stride, with nonzero
// partial statistics proving the search did real work first.

#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "common/budget.h"
#include "constraint/parser.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

using bench::PrintHeader;
using bench::Unwrap;
using bench::WallTimer;

DimensionSchema AdversarialSchema() {
  SchemaGenOptions schema_options;
  schema_options.num_levels = 6;
  schema_options.categories_per_level = 4;
  schema_options.extra_edge_prob = 0.5;
  schema_options.max_level_jump = 3;
  schema_options.seed = 11;
  HierarchySchemaPtr hierarchy =
      Unwrap(GenerateLayeredHierarchy(schema_options));
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.25;
  constraint_options.num_choice_constraints = 3;
  constraint_options.num_equality_constraints = 3;
  constraint_options.seed = 11;
  return Unwrap(GenerateConstrainedSchema(hierarchy, constraint_options));
}

int Run() {
  DimensionSchema ds = AdversarialSchema();
  const CategoryId root = ds.hierarchy().FindCategory("Base");

  PrintHeader(
      "Deadline overshoot: budgeted DIMSAT full enumeration on an "
      "adversarial schema (failure = overshoot >= 2x deadline)");
  std::printf("%12s %8s | %10s %10s %10s %10s %6s\n", "deadline_ms", "stride",
              "elapsed_ms", "overshoot", "expands", "checks", "ok?");
  bench::PrintRule();

  bool all_ok = true;
  for (int deadline_ms : {10, 50, 200}) {
    for (uint32_t stride : {64u, BudgetChecker::kDefaultStride, 4096u}) {
      Budget budget = Budget::WithDeadlineMs(deadline_ms);
      DimsatOptions options;
      options.enumerate_all = true;
      options.require_injective_names = true;
      options.budget = &budget;
      options.budget_check_stride = stride;
      WallTimer timer;
      DimsatResult r = RunDimsat(ds, root, options);
      const double elapsed = timer.ElapsedMs();
      const bool deadline_hit =
          r.status.code() == StatusCode::kDeadlineExceeded;
      const bool prompt = elapsed < 2.0 * deadline_ms;
      // Only the default stride carries the acceptance bar: a stride of
      // 4096 on a slow machine may legitimately overshoot.
      const bool pass = deadline_hit && r.stats.Any() &&
                        (stride != BudgetChecker::kDefaultStride || prompt);
      all_ok &= pass;
      std::printf("%12d %8u | %10.2f %9.2fx %10llu %10llu %6s\n", deadline_ms,
                  stride, elapsed, elapsed / deadline_ms,
                  static_cast<unsigned long long>(r.stats.expand_calls),
                  static_cast<unsigned long long>(r.stats.check_calls),
                  pass ? "yes" : "NO");
    }
  }

  // The query view of the same pressure: a deadline degrades Implies()
  // to "unknown" (a budget status) with the partial work accounted,
  // never an error.
  PrintHeader("Implies() under the same deadlines (three-valued answers)");
  std::printf("%12s | %-8s %-20s %10s\n", "deadline_ms", "answer", "status",
              "expands");
  bench::PrintRule();
  // A *true* implication is the hard direction: proving it means
  // exhausting the whole search space under the negation (a refutation
  // would stop at the first witness), so deadlines degrade to
  // "unknown".
  DimensionConstraint alpha =
      Unwrap(ParseConstraint(ds.hierarchy(), "Base.All"));
  for (int deadline_ms : {10, 50, 200}) {
    Budget budget = Budget::WithDeadlineMs(deadline_ms);
    DimsatOptions options;
    options.budget = &budget;
    ImplicationResult answer = Unwrap(Implies(ds, alpha, options));
    const char* verdict =
        !answer.status.ok() ? "unknown" : answer.implied ? "yes" : "no";
    std::printf("%12d | %-8s %-20s %10llu\n", deadline_ms, verdict,
                std::string(StatusCodeToString(answer.status.code())).c_str(),
                static_cast<unsigned long long>(answer.stats.expand_calls));
  }

  std::printf("\n%s\n", all_ok
                            ? "PASS: every deadline was honored promptly "
                              "with partial work recorded."
                            : "FAIL: at least one run missed the bar.");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace olapdc

int main() { return olapdc::Run(); }
