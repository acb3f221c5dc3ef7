// Robustness tests: every resource-exhaustion path (expand-call cap,
// frozen cap, wall-clock deadline, cancellation) must stop
// the procedures early with the right status code and the partial
// statistics accumulated so far; an implication query must degrade to
// "unknown" (a budget status on its result) instead of erroring; and
// each degradation path must be reproducible deterministically through
// the fault injector.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/fault_injector.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/location_example.h"
#include "core/naive_sat.h"
#include "core/summarizability.h"
#include "io/instance_io.h"
#include "io/schema_io.h"
#include "olap/navigator.h"
#include "olap/view_selection.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

using testing_util::MakeSchema;
using testing_util::ParseC;

Budget ExpiredBudget() {
  return Budget::WithDeadline(std::chrono::milliseconds(-1));
}

/// A generated schema hard enough that full frozen-dimension
/// enumeration blows any reasonable expand budget. `Hardness` verifies
/// the premise so the deadline/cancellation tests cannot pass
/// vacuously.
DimensionSchema AdversarialSchema() {
  SchemaGenOptions schema_options;
  schema_options.num_levels = 6;
  schema_options.categories_per_level = 4;
  schema_options.extra_edge_prob = 0.5;
  schema_options.max_level_jump = 3;
  schema_options.seed = 11;
  auto hierarchy = GenerateLayeredHierarchy(schema_options);
  OLAPDC_CHECK(hierarchy.ok()) << hierarchy.status().ToString();
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.25;
  constraint_options.num_choice_constraints = 3;
  constraint_options.num_equality_constraints = 3;
  constraint_options.seed = 11;
  auto ds = GenerateConstrainedSchema(*hierarchy, constraint_options);
  OLAPDC_CHECK(ds.ok()) << ds.status().ToString();
  return std::move(ds).ValueOrDie();
}

DimsatOptions EnumerateAllOptions() {
  DimsatOptions options;
  options.enumerate_all = true;
  options.require_injective_names = true;
  return options;
}

class AdversarialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_.emplace(AdversarialSchema());
    root_ = ds_->hierarchy().FindCategory("Base");
    ASSERT_NE(root_, kNoCategory);
    // Premise: the full enumeration needs far more than kProbeCap
    // EXPAND calls, so a generous deadline can reliably interrupt it.
    DimsatOptions probe = EnumerateAllOptions();
    probe.max_expand_calls = kProbeCap;
    DimsatResult r = RunDimsat(*ds_, root_, probe);
    ASSERT_EQ(r.status.code(), StatusCode::kResourceExhausted)
        << "generated schema too easy to exercise budgets";
  }

  static constexpr uint64_t kProbeCap = 200000;
  std::optional<DimensionSchema> ds_;
  CategoryId root_ = kNoCategory;
};

TEST_F(AdversarialTest, DeadlineStopsSearchWithPartialStats) {
  Budget budget = Budget::WithDeadlineMs(50);
  DimsatOptions options = EnumerateAllOptions();
  options.budget = &budget;
  auto start = std::chrono::steady_clock::now();
  DimsatResult r = RunDimsat(*ds_, root_, options);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.stats.Any());
  EXPECT_GT(r.stats.expand_calls, 0u);
  // Amortized checks must stop the search promptly; the generous bound
  // only guards against a stuck/unchecked loop on a loaded machine.
  EXPECT_LT(elapsed.count(), 2000);
}

TEST_F(AdversarialTest, CancellationStopsSearchWithPartialStats) {
  CancellationSource source;
  Budget budget;
  budget.SetCancellation(source.token());
  DimsatOptions options = EnumerateAllOptions();
  options.budget = &budget;
  std::thread canceller([&source] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    source.RequestCancel();
  });
  DimsatResult r = RunDimsat(*ds_, root_, options);
  canceller.join();
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(r.stats.Any());
}

TEST_F(AdversarialTest, ImpliesDeadlineDegradesToUnknown) {
  Budget budget = Budget::WithDeadlineMs(50);
  DimsatOptions options;
  options.budget = &budget;
  // Frozen-dimension existence is quick here; force the hard direction
  // (an implication that must close the whole search space).
  DimensionConstraint alpha = ParseC(ds_->hierarchy(), "Base.L1C0");
  ASSERT_OK_AND_ASSIGN(ImplicationResult answer,
                       Implies(*ds_, alpha, options));
  if (!answer.status.ok()) {
    EXPECT_EQ(answer.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_GT(answer.stats.expand_calls, 0u);
  } else {
    // Machine fast enough to finish under the deadline: the answer is
    // then definitive, and a refutation carries its counterexample.
    EXPECT_EQ(answer.implied, !answer.counterexample.has_value());
  }
}

TEST(ResourceExhaustionTest, ExpandCapEmbedsPartialStats) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatOptions options;
  options.enumerate_all = true;
  options.max_expand_calls = 2;
  DimsatResult r = RunDimsat(ds, store, options);
  EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(r.stats.Any());
  EXPECT_GT(r.stats.expand_calls, 0u);
}

// Composed atoms are read off g's reachability, never listed: on the
// 22-level ladder each atom of Base.L22a | Base.L22b abbreviates 2^21
// simple paths, past any listing limit, and the check still answers.
TEST(ResourceExhaustionTest, LadderShorthandsNeedNoPathListing) {
  const DimensionSchema ds = MakeSchema(testing_util::LadderEdges(22),
                                        {"Base.L22a | Base.L22b"});
  const DimsatResult r =
      RunDimsat(ds, ds.hierarchy().FindCategory("Base"));
  ASSERT_OK(r.status);
  EXPECT_TRUE(r.satisfiable);
}

TEST(ResourceExhaustionTest, FrozenCapTruncatesEnumerationCleanly) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  DimsatOptions options;
  options.enumerate_all = true;
  options.max_frozen = 2;
  DimsatResult r = RunDimsat(ds, store, options);
  EXPECT_OK(r.status);  // a truncated enumeration is not an error
  EXPECT_EQ(r.frozen.size(), 2u);
}

TEST(ResourceExhaustionTest, PreExpiredDeadlineTripsOnFirstCheck) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  Budget budget = ExpiredBudget();
  DimsatOptions options;
  options.budget = &budget;
  DimsatResult r = RunDimsat(ds, store, options);
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.stats.expand_calls, 0u);
}

TEST(ResourceExhaustionTest, PreCancelledTokenStopsEverything) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  CancellationSource source;
  source.RequestCancel();
  Budget budget;
  budget.SetCancellation(source.token());
  DimsatOptions options;
  options.budget = &budget;
  DimsatResult r = RunDimsat(ds, store, options);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
}

TEST(ResourceExhaustionTest, NaiveSatHonorsTheBudget) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  NaiveSatOptions options;
  Budget budget = ExpiredBudget();
  options.budget = &budget;
  options.enumerate_all = true;
  ASSERT_OK_AND_ASSIGN(DimsatResult r, NaiveSat(ds, store, options));
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  // The up-front refusal (too many edges to ever enumerate) stays on
  // the Result error channel — no partial result exists — unlike the
  // in-loop budget stop above, which returns one.
  NaiveSatOptions refusal;
  refusal.max_edges = 0;
  Result<DimsatResult> refused = NaiveSat(ds, store, refusal);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceExhaustionTest, ImplicationEmbedsBudgetStatus) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  Budget budget = ExpiredBudget();
  DimsatOptions options;
  options.budget = &budget;
  DimensionConstraint alpha = ParseC(ds.hierarchy(), "Store.Country");
  ASSERT_OK_AND_ASSIGN(ImplicationResult r, Implies(ds, alpha, options));
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ResourceExhaustionTest, SummarizabilityReturnsPartialDetails) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  const HierarchySchema& schema = ds.hierarchy();
  Budget budget = ExpiredBudget();
  DimsatOptions options;
  options.budget = &budget;
  ASSERT_OK_AND_ASSIGN(
      SummarizabilityResult r,
      IsSummarizable(ds, schema.FindCategory("Country"),
                     {schema.FindCategory("City")}, options));
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(r.summarizable);  // conservatively not proved
}

// --- Fault-injection degradation drills. Each path is forced
// deterministically from a fixed seed; none of them can fire in
// production because the injector ships disarmed. ---

TEST(FaultDegradationTest, ForcedBudgetExhaustionInDimsat) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  ScopedFaultInjection guard(/*seed=*/101);
  FaultInjector::Global().SetFault("dimsat.expand",
                                   StatusCode::kDeadlineExceeded, 1.0,
                                   "injected deadline");
  DimsatResult r = RunDimsat(ds, store, {});
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.status.message(), "injected deadline");
  EXPECT_GE(FaultInjector::Global().failures("dimsat.expand"), 1u);
}

TEST(FaultDegradationTest, ForcedInternalErrorStaysHard) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  ScopedFaultInjection guard(/*seed=*/102);
  FaultInjector::Global().SetFault("dimsat.expand", StatusCode::kInternal,
                                   1.0, "injected bug");
  // Internal errors are not budget degradations: consumers must see
  // them on the error channel, not as a quiet "false".
  Result<bool> r = IsCategorySatisfiable(ds, store);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(FaultDegradationTest, ForcedParseFailures) {
  ScopedFaultInjection guard(/*seed=*/104);
  FaultInjector::Global().SetFault("schema_io.parse",
                                   StatusCode::kParseError, 1.0,
                                   "injected schema corruption");
  FaultInjector::Global().SetFault("instance_io.parse",
                                   StatusCode::kParseError, 1.0,
                                   "injected instance corruption");
  Result<DimensionSchema> ds = ParseSchemaText("category A\nedge A All\n");
  ASSERT_FALSE(ds.ok());
  EXPECT_EQ(ds.status().code(), StatusCode::kParseError);
  EXPECT_EQ(ds.status().message(), "injected schema corruption");

  ASSERT_OK_AND_ASSIGN(DimensionSchema good, LocationSchema());
  Result<DimensionInstance> d = ParseInstanceText(good.hierarchy_ptr(), "");
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().message(), "injected instance corruption");
}

TEST(FaultDegradationTest, ProbabilisticFaultsAreSeedReproducible) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");
  auto run = [&]() {
    ScopedFaultInjection guard(/*seed=*/105);
    FaultInjector::Global().SetFault(
        "dimsat.expand", StatusCode::kDeadlineExceeded, 0.05);
    std::vector<StatusCode> codes;
    for (int i = 0; i < 20; ++i) {
      DimsatOptions options;
      options.enumerate_all = true;
      codes.push_back(RunDimsat(ds, store, options).status.code());
    }
    return codes;
  };
  std::vector<StatusCode> first = run();
  EXPECT_EQ(first, run());
  // The 5% fault actually interleaves failures with successes.
  EXPECT_NE(std::count(first.begin(), first.end(), StatusCode::kOk), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), StatusCode::kOk), 20);
}

// --- Conservative degradation in the OLAP consumers. ---

TEST(ConsumerDegradationTest, NavigatorSkipsUnprovenRewrites) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  const HierarchySchema& schema = ds.hierarchy();
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, LocationInstance());

  Budget budget = ExpiredBudget();
  NavigatorDiagnostics diagnostics;
  NavigatorOptions options;
  options.mode = NavigatorMode::kSchemaLevel;
  options.dimsat.budget = &budget;
  options.diagnostics = &diagnostics;
  ASSERT_OK_AND_ASSIGN(
      auto rewrite,
      FindRewriteSet(ds, d, {schema.FindCategory("City")},
                     schema.FindCategory("Country"), options));
  EXPECT_FALSE(rewrite.has_value());  // nothing provable in time
  EXPECT_TRUE(diagnostics.degraded());
  EXPECT_GT(diagnostics.unknown_rewrite_sets, 0u);
  EXPECT_EQ(diagnostics.last_budget_status.code(),
            StatusCode::kDeadlineExceeded);
}

TEST(ConsumerDegradationTest, ViewSelectionReportsDegradation) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  const HierarchySchema& schema = ds.hierarchy();
  ASSERT_OK_AND_ASSIGN(DimensionInstance d, LocationInstance());

  Budget budget = ExpiredBudget();
  ViewSelectionOptions options;
  options.dimsat.budget = &budget;
  ASSERT_OK_AND_ASSIGN(
      ViewSelectionResult r,
      SelectViews(ds, d, {schema.FindCategory("Country")}, options));
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.budget_status.code(), StatusCode::kDeadlineExceeded);
  // Whatever it reports, a degraded "not found" must not be read as a
  // proof of nonexistence — that is exactly what the flag is for.
}

}  // namespace
}  // namespace olapdc
