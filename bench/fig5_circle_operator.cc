// E4 (Figure 5): the circle operator. Reproduces the two-column table
// Sigma(locationSch, Store) vs Sigma(locationSch, Store) ∘ g for the
// Example 12 subhierarchy, then shows why that g induces no frozen
// dimension.

#include <cstdio>

#include "bench/bench_util.h"
#include "constraint/normalize.h"
#include "constraint/printer.h"
#include "core/assignment.h"
#include "core/circle.h"
#include "core/location_example.h"

namespace olapdc {
namespace {

using bench::PrintHeader;
using bench::Unwrap;

void Run() {
  DimensionSchema ds = Unwrap(LocationSchema());
  const HierarchySchema& schema = ds.hierarchy();
  CategoryId store = schema.FindCategory("Store");
  CategoryId city = schema.FindCategory("City");
  CategoryId province = schema.FindCategory("Province");
  CategoryId state = schema.FindCategory("State");
  CategoryId sale_region = schema.FindCategory("SaleRegion");
  CategoryId country = schema.FindCategory("Country");

  // The Example 12 "mixed" subhierarchy g.
  auto g = Subhierarchy::FromEdges(schema.num_categories(), store,
                                   schema.all(),
                                   {{store, city},
                                    {city, province},
                                    {city, state},
                                    {province, sale_region},
                                    {state, country},
                                    {sale_region, country},
                                    {country, schema.all()}});
  OLAPDC_CHECK(g.has_value());

  PrintHeader("Example 12 subhierarchy g");
  for (const auto& [u, v] : g->Edges()) {
    std::printf("  %s -> %s\n", schema.CategoryName(u).c_str(),
                schema.CategoryName(v).c_str());
  }

  PrintHeader("Figure 5: Sigma(locationSch, Store)  |  Sigma ∘ g");
  PrinterOptions paper;
  paper.paper_symbols = true;
  for (const DimensionConstraint& c : ds.constraints()) {
    ExprPtr circled = ApplyCircleToConstraint(c, *g);
    std::printf("  %-4s %-52s | %s\n", c.label.c_str(),
                ExprToString(schema, c.expr, paper).c_str(),
                ExprToString(schema, circled, paper).c_str());
  }

  PrintHeader("Why g induces no frozen dimension");
  std::vector<ExprPtr> remaining;
  for (const DimensionConstraint& c : ds.constraints()) {
    ExprPtr e = Simplify(ApplyCircleToConstraint(c, *g));
    if (!IsTrueLiteral(e)) remaining.push_back(e);
  }
  std::printf("surviving (equality-only) constraints:\n");
  for (const ExprPtr& e : remaining) {
    std::printf("  %s\n", ExprToString(schema, e, paper).c_str());
  }
  AssignmentSearchResult search = FindAssignments(*g, remaining);
  std::printf("c-assignments satisfying them: %zu (tried %llu)\n",
              search.assignments.size(),
              static_cast<unsigned long long>(search.tried));
  std::printf("-> (e) forces Country in {Mexico, USA} while (g) forces "
              "Country = Canada; the mixed structure is contradictory.\n");
}

}  // namespace
}  // namespace olapdc

int main() {
  olapdc::Run();
  return 0;
}
