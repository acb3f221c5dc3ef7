#include "core/report.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "constraint/printer.h"
#include "core/summarizability.h"
#include "graph/algorithms.h"

namespace olapdc {

namespace {

/// The edge set of a frozen dimension as a canonical string (structure
/// identity, ignoring the constant assignment).
std::string StructureKey(const FrozenDimension& f) {
  return JoinMapped(f.edges, ";", [](const std::pair<int, int>& e) {
    return std::to_string(e.first) + ">" + std::to_string(e.second);
  });
}

}  // namespace

Result<std::string> HeterogeneityReport(const DimensionSchema& ds,
                                        const ReportOptions& options) {
  const HierarchySchema& schema = ds.hierarchy();
  std::string out;

  out += "== structure ==\n";
  out += "categories: " + std::to_string(schema.num_categories()) +
         ", edges: " + std::to_string(schema.graph().num_edges()) +
         ", bottom categories:";
  for (CategoryId b : schema.bottom_categories()) {
    out += " " + schema.CategoryName(b);
  }
  out += "\n";
  auto shortcuts = schema.Shortcuts();
  if (!shortcuts.empty()) {
    out += "shortcut edges:";
    for (const auto& [u, v] : shortcuts) {
      out += " " + schema.CategoryName(u) + "->" + schema.CategoryName(v);
    }
    out += "\n";
  }
  if (HasCycle(schema.graph())) {
    out += "the category graph contains cycles (Example 4 style)\n";
  }

  out += "\n== constraints (" + std::to_string(ds.constraints().size()) +
         ") ==\n";
  for (const DimensionConstraint& c : ds.constraints()) {
    out += "  " + ConstraintToString(schema, c) + "\n";
  }

  out += "\n== satisfiability ==\n";
  std::vector<bool> satisfiable(schema.num_categories());
  for (CategoryId c = 0; c < schema.num_categories(); ++c) {
    DimsatResult r = RunDimsat(ds, c, options.dimsat);
    OLAPDC_RETURN_NOT_OK(r.status);
    satisfiable[c] = r.satisfiable;
    if (!r.satisfiable) {
      out += "  " + schema.CategoryName(c) + ": UNSATISFIABLE\n";
    }
  }
  if (std::all_of(satisfiable.begin(), satisfiable.end(),
                  [](bool b) { return b; })) {
    out += "  all categories satisfiable\n";
  }

  out += "\n== frozen dimensions (the homogeneous worlds mixed) ==\n";
  for (CategoryId b : schema.bottom_categories()) {
    if (b == schema.all() || !satisfiable[b]) continue;
    DimsatOptions enumerate = options.dimsat;
    enumerate.enumerate_all = true;
    enumerate.max_frozen = options.max_frozen_per_bottom;
    // The models are listed in search order, so the report stays
    // byte-stable only on the sequential search.
    enumerate.num_threads = 1;
    DimsatResult r = RunDimsat(ds, b, enumerate);
    OLAPDC_RETURN_NOT_OK(r.status);
    std::set<std::string> structures;
    for (const FrozenDimension& f : r.frozen) {
      structures.insert(StructureKey(f));
    }
    out += "root " + schema.CategoryName(b) + ": " +
           std::to_string(r.frozen.size()) + " frozen dimension(s), " +
           std::to_string(structures.size()) + " distinct structure(s)\n";
    for (const FrozenDimension& f : r.frozen) {
      out += "  " + f.ToString(schema) + "\n";
    }
  }

  if (options.include_summarizability_matrix) {
    out += "\n== summarizability matrix (rows: target; cols: single "
           "source; y = derivable) ==\n";
    std::vector<CategoryId> cats;
    for (CategoryId c = 0; c < schema.num_categories(); ++c) {
      if (c != schema.all() && satisfiable[c]) cats.push_back(c);
    }
    out += "            ";
    for (CategoryId c : cats) {
      out += " " + schema.CategoryName(c).substr(0, 4);
    }
    out += "\n";
    for (CategoryId target : cats) {
      std::string row = schema.CategoryName(target);
      row.resize(12, ' ');
      for (CategoryId source : cats) {
        OLAPDC_ASSIGN_OR_RETURN(
            SummarizabilityResult r,
            IsSummarizable(ds, target, {source}, options.dimsat));
        // '?' marks cells whose implication test exhausted its budget:
        // the matrix degrades instead of failing wholesale.
        std::string cell =
            !r.status.ok() ? "?" : (r.summarizable ? "y" : ".");
        row += " " + cell;
        row.resize(row.size() + schema.CategoryName(source)
                                        .substr(0, 4)
                                        .size() -
                       1,
                   ' ');
      }
      out += row + "\n";
    }
  }
  return out;
}

Result<bool> IsHomogeneousSchema(const DimensionSchema& ds,
                                 const DimsatOptions& options) {
  const HierarchySchema& schema = ds.hierarchy();
  for (CategoryId b : schema.bottom_categories()) {
    if (b == schema.all()) continue;
    DimsatOptions enumerate = options;
    enumerate.enumerate_all = true;
    DimsatResult r = RunDimsat(ds, b, enumerate);
    OLAPDC_RETURN_NOT_OK(r.status);
    if (r.frozen.empty()) continue;  // unsatisfiable: vacuously uniform
    std::set<std::string> structures;
    for (const FrozenDimension& f : r.frozen) {
      structures.insert(StructureKey(f));
    }
    if (structures.size() > 1) return false;
  }
  return true;
}

}  // namespace olapdc
