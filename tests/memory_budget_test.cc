// MemoryBudget: the accountant's unit semantics (lock-free reserve /
// release, sticky exhaustion, track-only mode, RAII reservations, the
// mem.reserve chaos site) and the adversarial end-to-end property the
// design exists for — a DIMSAT enumeration under a byte cap degrades
// with kResourceExhausted and the partial stats of the work it did,
// instead of aborting the process or returning a wrong verdict.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/budget.h"
#include "common/fault_injector.h"
#include "common/memory_budget.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "tests/test_util.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

TEST(MemoryBudgetTest, ReserveWithinLimitSucceedsAndAccounts) {
  MemoryBudget budget(1000);
  ASSERT_OK(budget.Reserve(400, "test"));
  ASSERT_OK(budget.Reserve(600, "test"));
  EXPECT_EQ(budget.reserved(), 1000u);
  EXPECT_EQ(budget.peak(), 1000u);
  EXPECT_FALSE(budget.exhausted());
  budget.Release(1000);
  EXPECT_EQ(budget.reserved(), 0u);
  EXPECT_EQ(budget.peak(), 1000u);  // peak is monotone
}

TEST(MemoryBudgetTest, ExceedingTheLimitTripsAndSticks) {
  MemoryBudget budget(1000);
  ASSERT_OK(budget.Reserve(900, "test"));
  Status overflow = budget.Reserve(200, "dimsat.frozen");
  EXPECT_EQ(overflow.code(), StatusCode::kResourceExhausted);
  // The failed reservation holds nothing.
  EXPECT_EQ(budget.reserved(), 900u);
  EXPECT_TRUE(budget.exhausted());
  // Sticky: even a tiny reservation fails now — memory pressure does
  // not un-happen between probes of one request.
  EXPECT_EQ(budget.Reserve(1, "test").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.ExhaustedStatus().code(),
            StatusCode::kResourceExhausted);
}

TEST(MemoryBudgetTest, TrackOnlyModeNeverTrips) {
  MemoryBudget budget(0);
  ASSERT_OK(budget.Reserve(1ull << 40, "test"));
  ASSERT_OK(budget.Reserve(1ull << 40, "test"));
  EXPECT_FALSE(budget.exhausted());
  EXPECT_EQ(budget.peak(), 1ull << 41);
}

TEST(MemoryBudgetTest, BudgetCheckSurfacesExhaustion) {
  MemoryBudget memory(100);
  Budget budget;
  budget.SetMemory(&memory);
  ASSERT_OK(budget.Check());
  EXPECT_EQ(memory.Reserve(200, "test").code(),
            StatusCode::kResourceExhausted);
  // Every checker over the shared Budget now trips on its next probe.
  EXPECT_EQ(budget.Check().code(), StatusCode::kResourceExhausted);
}

TEST(MemoryBudgetTest, ReservationReleasesEverythingOnScopeExit) {
  MemoryBudget budget(1000);
  {
    MemoryReservation holder(&budget);
    ASSERT_OK(holder.Reserve(300, "test"));
    ASSERT_OK(holder.Reserve(200, "test"));
    EXPECT_EQ(holder.held(), 500u);
    EXPECT_EQ(budget.reserved(), 500u);
  }
  EXPECT_EQ(budget.reserved(), 0u);
}

TEST(MemoryBudgetTest, NullBudgetReservationAlwaysSucceeds) {
  MemoryReservation holder(nullptr);
  ASSERT_OK(holder.Reserve(1ull << 60, "test"));
  EXPECT_EQ(holder.held(), 0u);
}

TEST(MemoryBudgetTest, InjectedReserveFaultIsStickyLikeARealOne) {
  ScopedFaultInjection injection(7);
  FaultInjector::Global().SetFault("mem.reserve",
                                   StatusCode::kResourceExhausted, 1.0);
  MemoryBudget budget(1ull << 30);
  EXPECT_EQ(budget.Reserve(8, "test").code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.reserved(), 0u);
}

// The adversarial end-to-end property: Figure 4's enumeration under a
// byte cap stops with kResourceExhausted, reports the partial work it
// did (budget-errors-are-data), and every frozen dimension it *did*
// collect is still a genuine one from the uncapped enumeration.
TEST(MemoryBudgetTest, DimsatEnumerationDegradesUnderByteCap) {
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, LocationSchema());
  CategoryId store = ds.hierarchy().FindCategory("Store");

  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult uncapped = RunDimsat(ds, store, options);
  ASSERT_OK(uncapped.status);
  ASSERT_EQ(uncapped.frozen.size(), 4u);

  // Large enough to get past the root's own charge, small enough that
  // the full enumeration cannot fit.
  MemoryBudget memory(2048);
  Budget budget;
  budget.SetMemory(&memory);
  options.budget = &budget;
  options.budget_check_stride = 1;
  DimsatResult capped = RunDimsat(ds, store, options);
  EXPECT_EQ(capped.status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(capped.stats.Any());  // partial stats, not a blank abort
  EXPECT_LT(capped.frozen.size(), uncapped.frozen.size());
  // Accounting drained on the error path: the run's RAII holders
  // returned every byte.
  EXPECT_EQ(memory.reserved(), 0u);

  for (const FrozenDimension& f : capped.frozen) {
    bool found = false;
    for (const FrozenDimension& g : uncapped.frozen) {
      if (f.ToString(ds.hierarchy()) == g.ToString(ds.hierarchy())) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "capped run invented a frozen dimension";
  }
}

// Collected models stay charged until the run returns, at every thread
// count: work-stealing tasks hand their models to the run, and a
// decomposed run keeps its component lists and composed models
// charged. So a cap that stops the sequential enumeration stops the
// parallel ones too, and no run returns more models than the cap
// covers. On this schema no single work-stealing task collects half
// the models, so a cap released per task lets a parallel run list all
// of them.
TEST(MemoryBudgetTest, ModelCapHoldsAtEveryThreadCount) {
  MultiComponentGenOptions gen;
  gen.num_components = 3;
  gen.levels_per_component = 2;
  gen.categories_per_level = 3;
  gen.seed = 54;
  ASSERT_OK_AND_ASSIGN(DimensionSchema ds, GenerateMultiComponentSchema(gen));
  const CategoryId base = ds.hierarchy().FindCategory("Base");

  DimsatOptions options;
  options.enumerate_all = true;
  DimsatResult uncapped = RunDimsat(ds, base, options);
  ASSERT_OK(uncapped.status);
  ASSERT_GT(uncapped.frozen.size(), 1000u);
  const uint64_t cap = FrozenDimensionBytes(uncapped.frozen) / 2;

  for (bool decompose : {false, true}) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string(decompose ? "decomposed" : "monolithic") +
                   ", " + std::to_string(threads) + " thread(s)");
      MemoryBudget memory(cap);
      Budget budget;
      budget.SetMemory(&memory);
      options.budget = &budget;
      options.decompose = decompose;
      options.num_threads = threads;
      DimsatResult capped = RunDimsat(ds, base, options);
      EXPECT_EQ(capped.status.code(), StatusCode::kResourceExhausted);
      EXPECT_LT(capped.frozen.size(), uncapped.frozen.size());
      EXPECT_LE(FrozenDimensionBytes(capped.frozen), cap);
      EXPECT_EQ(memory.reserved(), 0u);
    }
  }
}

}  // namespace
}  // namespace olapdc
