// Google-benchmark microbenchmarks for the hot paths of the library:
// simple-path enumeration (composed-atom expansion), the circle
// operator, one CHECK, c-assignment search, full DIMSAT runs, instance
// ancestor tables, and cube-view computation.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "constraint/normalize.h"
#include "core/assignment.h"
#include "core/check_subhierarchy.h"
#include "core/circle.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "graph/algorithms.h"
#include "obs/metrics.h"
#include "olap/cube_view.h"
#include "workload/instance_generator.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

using bench::Unwrap;

const DimensionSchema& Location() {
  static const DimensionSchema& ds =
      *new DimensionSchema(Unwrap(LocationSchema()));
  return ds;
}

void BM_SimplePathEnumeration(benchmark::State& state) {
  const HierarchySchema& schema = Location().hierarchy();
  CategoryId store = schema.FindCategory("Store");
  CategoryId country = schema.FindCategory("Country");
  for (auto _ : state) {
    auto paths = EnumerateSimplePaths(schema.graph(), store, country);
    benchmark::DoNotOptimize(paths);
  }
}
BENCHMARK(BM_SimplePathEnumeration);

void BM_ExpandComposedAtom(benchmark::State& state) {
  const HierarchySchema& schema = Location().hierarchy();
  ExprPtr atom = MakeComposedAtom(schema.FindCategory("Store"),
                                  schema.FindCategory("Country"));
  for (auto _ : state) {
    auto expanded = ExpandShorthands(schema, atom);
    benchmark::DoNotOptimize(expanded);
  }
}
BENCHMARK(BM_ExpandComposedAtom);

/// The Canada structure of locationSch (Store -> City -> Province ->
/// SaleRegion -> Country -> All) and Sigma(locationSch) as DIMSAT's
/// CHECK receives it: g-independent shorthand atoms folded, the rest
/// kept for the circle operator.
struct CheckInput {
  Subhierarchy g;
  std::vector<DimensionConstraint> sigma;
};

CheckInput MakeCanadaCheckInput() {
  const DimensionSchema& ds = Location();
  const HierarchySchema& schema = ds.hierarchy();
  auto g = Subhierarchy::FromEdges(
      schema.num_categories(), schema.FindCategory("Store"), schema.all(),
      {{schema.FindCategory("Store"), schema.FindCategory("City")},
       {schema.FindCategory("City"), schema.FindCategory("Province")},
       {schema.FindCategory("Province"), schema.FindCategory("SaleRegion")},
       {schema.FindCategory("SaleRegion"), schema.FindCategory("Country")},
       {schema.FindCategory("Country"), schema.all()}});
  OLAPDC_CHECK(g.has_value());
  std::vector<DimensionConstraint> sigma;
  for (const DimensionConstraint& c : ds.constraints()) {
    sigma.push_back(DimensionConstraint{
        c.root, Simplify(FoldShorthands(schema, c.expr)), c.label});
  }
  return CheckInput{std::move(*g), std::move(sigma)};
}

const CheckInput& CanadaCheckInput() {
  static const CheckInput& input = *new CheckInput(MakeCanadaCheckInput());
  return input;
}

void BM_CircleOperator(benchmark::State& state) {
  const CheckInput& input = CanadaCheckInput();
  for (auto _ : state) {
    for (const DimensionConstraint& c : input.sigma) {
      ExprPtr circled = Simplify(ApplyCircleToConstraint(c, input.g));
      benchmark::DoNotOptimize(circled);
    }
  }
}
BENCHMARK(BM_CircleOperator);

// One whole CHECK on the same g and Sigma: the structural test, the
// circle operator, the c-assignment search and the model's edge list.
void BM_CheckSubhierarchy(benchmark::State& state) {
  const CheckInput& input = CanadaCheckInput();
  for (auto _ : state) {
    CheckOutcome outcome = CheckSubhierarchy(input.sigma, input.g);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_CheckSubhierarchy);

void BM_SubhierarchyExpandCopy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Subhierarchy g(n, 0);
  DynamicBitset r(n);
  r.set(1);
  for (auto _ : state) {
    Subhierarchy copy = g;
    copy.Expand(0, r);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_SubhierarchyExpandCopy)->Arg(8)->Arg(32)->Arg(128);

void BM_AssignmentSearch(benchmark::State& state) {
  auto g = Subhierarchy::FromEdges(4, 0, 3, {{0, 1}, {1, 2}, {2, 3}});
  std::vector<ExprPtr> circled;
  // Three interacting constraints over two categories.
  circled.push_back(MakeOr({MakeEqualityAtom(0, 1, "a"),
                            MakeEqualityAtom(0, 2, "x")}));
  circled.push_back(MakeImplies(MakeEqualityAtom(0, 1, "a"),
                                MakeEqualityAtom(0, 2, "y")));
  circled.push_back(MakeNot(MakeEqualityAtom(0, 2, "z")));
  AssignmentOptions options;
  options.enumerate_all = true;
  for (auto _ : state) {
    auto result = FindAssignments(*g, circled, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AssignmentSearch);

void BM_DimsatLocation(benchmark::State& state) {
  const DimensionSchema& ds = Location();
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatOptions options;
  options.enumerate_all = state.range(0) != 0;
  for (auto _ : state) {
    DimsatResult r = RunDimsat(ds, store, options);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DimsatLocation)->Arg(0)->Arg(1);

// Same run with the metrics registry enabled: the delta against
// BM_DimsatLocation is the *enabled* instrumentation cost (one batched
// flush per run). BM_DimsatLocation itself measures the disabled cost,
// which must stay within noise of the pre-instrumentation baseline
// (docs/observability.md records both).
void BM_DimsatLocationMetricsOn(benchmark::State& state) {
  const DimensionSchema& ds = Location();
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatOptions options;
  options.enumerate_all = state.range(0) != 0;
  obs::MetricsRegistry::Global().Enable();
  for (auto _ : state) {
    DimsatResult r = RunDimsat(ds, store, options);
    benchmark::DoNotOptimize(r);
  }
  obs::MetricsRegistry::Global().Disable();
  obs::MetricsRegistry::Global().Reset();
}
BENCHMARK(BM_DimsatLocationMetricsOn)->Arg(0)->Arg(1);

// The raw recording entry point, disabled vs enabled: the disabled
// path must stay a relaxed load + branch (sub-nanosecond).
void BM_MetricsCount(benchmark::State& state) {
  if (state.range(0) != 0) obs::MetricsRegistry::Global().Enable();
  for (auto _ : state) {
    obs::Count("olapdc.bench.counter");
  }
  obs::MetricsRegistry::Global().Disable();
  obs::MetricsRegistry::Global().Reset();
}
BENCHMARK(BM_MetricsCount)->Arg(0)->Arg(1);

void BM_InstanceBuild(benchmark::State& state) {
  const DimensionSchema& ds = Location();
  InstanceGenOptions gen;
  gen.branching = 2;
  gen.copies = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto d = GenerateInstanceFromFrozen(ds, gen);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_InstanceBuild)->Arg(1)->Arg(8);

void BM_CubeView(benchmark::State& state) {
  const DimensionSchema& ds = Location();
  InstanceGenOptions gen;
  gen.branching = 2;
  gen.copies = static_cast<int>(state.range(0));
  static std::map<int64_t, std::pair<DimensionInstance, FactTable>>& cache =
      *new std::map<int64_t, std::pair<DimensionInstance, FactTable>>();
  auto it = cache.find(state.range(0));
  if (it == cache.end()) {
    DimensionInstance d = Unwrap(GenerateInstanceFromFrozen(ds, gen));
    FactTable facts = GenerateFacts(d);
    it = cache.emplace(state.range(0),
                       std::make_pair(std::move(d), std::move(facts)))
             .first;
  }
  CategoryId country = ds.hierarchy().FindCategory("Country");
  for (auto _ : state) {
    CubeViewResult view =
        ComputeCubeView(it->second.first, it->second.second, country,
                        AggFn::kSum);
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(it->second.second.size()));
}
BENCHMARK(BM_CubeView)->Arg(8)->Arg(64);

}  // namespace
}  // namespace olapdc

BENCHMARK_MAIN();
