#include "core/naive_sat.h"

#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "constraint/normalize.h"
#include "core/check_subhierarchy.h"
#include "core/subhierarchy.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace olapdc {

namespace {

/// Batched per-run metrics flush (olapdc.naive_sat.*), mirroring
/// FlushDimsatMetrics: the 2^edges enumeration loop itself stays free
/// of registry traffic.
void FlushNaiveSatMetrics(const DimsatResult& result) {
  if (!obs::MetricsEnabled()) return;
  obs::Count("olapdc.naive_sat.runs");
  obs::Count("olapdc.naive_sat.candidates_checked", result.stats.check_calls);
  obs::Count("olapdc.naive_sat.assignments_tried",
             result.stats.assignments_tried);
  obs::Count("olapdc.naive_sat.structural_rejections",
             result.stats.structural_rejections);
  obs::Count("olapdc.naive_sat.frozen_found", result.stats.frozen_found);
  obs::Count("olapdc.naive_sat.budget_stops",
             IsBudgetError(result.status) ? 1 : 0);
}

}  // namespace

Result<DimsatResult> NaiveSat(const DimensionSchema& ds, CategoryId root,
                              const NaiveSatOptions& options) {
  const HierarchySchema& schema = ds.hierarchy();
  OLAPDC_CHECK(0 <= root && root < schema.num_categories());
  obs::ObsSpan span("naive_sat.run");

  // Only edges among categories reachable from the root can appear in a
  // subhierarchy rooted there.
  const DynamicBitset& up = schema.UpSet(root);
  std::vector<std::pair<CategoryId, CategoryId>> edges;
  for (const auto& [u, v] : schema.graph().Edges()) {
    if (up.test(u) && up.test(v)) edges.emplace_back(u, v);
  }
  if (static_cast<int>(edges.size()) > options.max_edges) {
    return Status::ResourceExhausted(
        "NaiveSat: " + std::to_string(edges.size()) +
        " candidate edges exceed max_edges");
  }

  // Expand shorthands once (same preparation as DIMSAT).
  std::vector<DimensionConstraint> relevant;
  for (const DimensionConstraint* c : ds.RelevantConstraints(root)) {
    OLAPDC_ASSIGN_OR_RETURN(
        ExprPtr expanded,
        ExpandShorthands(schema, c->expr, options.path_limit));
    relevant.push_back(
        DimensionConstraint{c->root, Simplify(expanded), c->label});
  }

  CheckOptions check_options;
  check_options.assignment.require_injective =
      options.require_injective_names;
  check_options.assignment.enumerate_all = options.enumerate_all;
  check_options.assignment.max_results = options.max_frozen;

  DimsatResult result;
  BudgetChecker budget_checker(options.budget, options.budget_check_stride,
                               "naive_sat.enumerate");
  // Memory governor: the collected frozen dimensions are the only
  // allocation here that grows with the answer, so they carry the
  // charge — each its own size, as at DIMSAT's dimsat.frozen site.
  MemoryReservation mem(options.budget != nullptr ? options.budget->memory()
                                                  : nullptr);
  const uint64_t subsets = uint64_t{1} << edges.size();
  for (uint64_t mask = 0; mask < subsets; ++mask) {
    Status budget = budget_checker.Check();
    if (!budget.ok()) {
      // Partial answer: statistics (and any frozen dimensions found so
      // far) survive, matching RunDimsat()'s degradation contract.
      result.status = std::move(budget);
      break;
    }
    std::vector<std::pair<CategoryId, CategoryId>> chosen;
    for (size_t i = 0; i < edges.size(); ++i) {
      if (mask & (uint64_t{1} << i)) chosen.push_back(edges[i]);
    }
    std::optional<Subhierarchy> g = Subhierarchy::FromEdges(
        schema.num_categories(), root, schema.all(), chosen);
    if (!g.has_value()) continue;

    ++result.stats.check_calls;
    CheckOutcome outcome = CheckSubhierarchy(relevant, *g, check_options);
    result.stats.assignments_tried += outcome.assignments_tried;
    if (outcome.structurally_rejected) ++result.stats.structural_rejections;
    if (!outcome.frozen.empty() && mem.budget() != nullptr) {
      Status reserve = mem.Reserve(FrozenDimensionBytes(outcome.frozen),
                                   "naive_sat.frozen");
      if (!reserve.ok()) {
        result.status = std::move(reserve);
        break;
      }
    }
    for (FrozenDimension& f : outcome.frozen) {
      if (result.frozen.size() >= options.max_frozen) break;
      result.frozen.push_back(std::move(f));
    }
    if (!result.frozen.empty() && !options.enumerate_all) break;
    if (result.frozen.size() >= options.max_frozen) break;
  }
  result.satisfiable = !result.frozen.empty();
  result.stats.frozen_found = result.frozen.size();
  FlushNaiveSatMetrics(result);
  if (span.active()) {
    span.AddStat("root", schema.CategoryName(root));
    span.AddStat("candidates_checked", result.stats.check_calls);
    span.AddStat("satisfiable", result.satisfiable);
  }
  return result;
}

}  // namespace olapdc
