// Tests for Budget, BudgetChecker, cancellation tokens and the
// deterministic FaultInjector.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/fault_injector.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

TEST(BudgetTest, DefaultIsUnbounded) {
  Budget b;
  EXPECT_TRUE(b.unbounded());
  EXPECT_FALSE(b.has_deadline());
  EXPECT_OK(b.Check());
}

TEST(BudgetTest, FutureDeadlinePasses) {
  Budget b = Budget::WithDeadline(std::chrono::hours(1));
  EXPECT_TRUE(b.has_deadline());
  EXPECT_FALSE(b.unbounded());
  EXPECT_OK(b.Check());
}

TEST(BudgetTest, ExpiredDeadlineFails) {
  Budget b = Budget::WithDeadline(std::chrono::milliseconds(-1));
  Status s = b.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST(BudgetTest, CancellationTrips) {
  CancellationSource source;
  Budget b;
  b.SetCancellation(source.token());
  EXPECT_FALSE(b.unbounded());
  EXPECT_OK(b.Check());
  source.RequestCancel();
  EXPECT_EQ(b.Check().code(), StatusCode::kCancelled);
}

TEST(BudgetTest, CancellationWinsOverDeadline) {
  CancellationSource source;
  source.RequestCancel();
  Budget b = Budget::WithDeadline(std::chrono::milliseconds(-1));
  b.SetCancellation(source.token());
  EXPECT_EQ(b.Check().code(), StatusCode::kCancelled);
}

TEST(BudgetTest, TokensShareTheFlag) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = a;  // copies observe the same flag
  EXPECT_TRUE(a.cancellable());
  EXPECT_FALSE(a.cancelled());
  source.RequestCancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_TRUE(source.cancel_requested());
}

TEST(BudgetTest, NullTokenNeverCancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.cancelled());
}

TEST(BudgetTest, CancelFromAnotherThreadIsObserved) {
  CancellationSource source;
  Budget b;
  b.SetCancellation(source.token());
  std::thread canceller([&source] { source.RequestCancel(); });
  canceller.join();
  EXPECT_EQ(b.Check().code(), StatusCode::kCancelled);
}

TEST(BudgetCheckerTest, NullBudgetIsFree) {
  BudgetChecker checker(nullptr);
  for (int i = 0; i < 1000; ++i) EXPECT_OK(checker.Check());
  EXPECT_EQ(checker.probes(), 0);
}

TEST(BudgetCheckerTest, UnboundedBudgetNeverProbes) {
  Budget b;
  BudgetChecker checker(&b);
  for (int i = 0; i < 1000; ++i) EXPECT_OK(checker.Check());
  EXPECT_EQ(checker.probes(), 0);
}

TEST(BudgetCheckerTest, ProbesAmortizedByStride) {
  Budget b = Budget::WithDeadline(std::chrono::hours(1));
  BudgetChecker checker(&b, /*stride=*/10);
  for (int i = 0; i < 100; ++i) EXPECT_OK(checker.Check());
  EXPECT_EQ(checker.probes(), 10);  // calls 0, 10, 20, ...
}

TEST(BudgetCheckerTest, FirstCallProbesImmediately) {
  // A pre-expired deadline must trip on the very first check, not after
  // `stride` iterations of wasted work.
  Budget b = Budget::WithDeadline(std::chrono::milliseconds(-1));
  BudgetChecker checker(&b, /*stride=*/1000000);
  EXPECT_EQ(checker.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(BudgetCheckerTest, TrippedErrorSticksWithoutReprobing) {
  CancellationSource source;
  source.RequestCancel();
  Budget b;
  b.SetCancellation(source.token());
  BudgetChecker checker(&b, /*stride=*/1);
  EXPECT_EQ(checker.Check().code(), StatusCode::kCancelled);
  uint64_t probes_after_trip = checker.probes();
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(checker.Check().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(checker.probes(), probes_after_trip);
}

TEST(BudgetCheckerTest, ZeroStrideProbesEveryCall) {
  Budget b = Budget::WithDeadline(std::chrono::hours(1));
  BudgetChecker checker(&b, /*stride=*/0);
  for (int i = 0; i < 5; ++i) EXPECT_OK(checker.Check());
  EXPECT_EQ(checker.probes(), 5);
}

TEST(FaultInjectorTest, DisarmedProbeIsOkAndUncounted) {
  FaultInjector& injector = FaultInjector::Global();
  ASSERT_FALSE(injector.armed());
  EXPECT_OK(injector.MaybeFail("test.site"));
  EXPECT_EQ(injector.probes("test.site"), 0);
}

TEST(FaultInjectorTest, AlwaysFailSiteFailsEveryProbe) {
  ScopedFaultInjection guard(/*seed=*/1);
  FaultInjector& injector = FaultInjector::Global();
  injector.SetFault("test.always", StatusCode::kInternal, 1.0, "boom");
  for (int i = 0; i < 5; ++i) {
    Status s = injector.MaybeFail("test.always");
    EXPECT_EQ(s.code(), StatusCode::kInternal);
    EXPECT_EQ(s.message(), "boom");
  }
  EXPECT_EQ(injector.probes("test.always"), 5);
  EXPECT_EQ(injector.failures("test.always"), 5);
}

TEST(FaultInjectorTest, UnconfiguredSiteIsOkWhileArmed) {
  ScopedFaultInjection guard(/*seed=*/1);
  EXPECT_OK(FaultInjector::Global().MaybeFail("test.unconfigured"));
}

std::vector<bool> DrawSequence(uint64_t seed, const std::string& site,
                               int n, double probability) {
  ScopedFaultInjection guard(seed);
  FaultInjector& injector = FaultInjector::Global();
  injector.SetFault(site, StatusCode::kResourceExhausted, probability);
  std::vector<bool> failures;
  for (int i = 0; i < n; ++i) {
    failures.push_back(!injector.MaybeFail(site).ok());
  }
  return failures;
}

TEST(FaultInjectorTest, SameSeedSameSequence) {
  std::vector<bool> a = DrawSequence(42, "test.repro", 200, 0.3);
  std::vector<bool> b = DrawSequence(42, "test.repro", 200, 0.3);
  EXPECT_EQ(a, b);
  // And a fractional probability actually mixes outcomes.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 200);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  std::vector<bool> a = DrawSequence(1, "test.repro", 200, 0.3);
  std::vector<bool> b = DrawSequence(2, "test.repro", 200, 0.3);
  EXPECT_NE(a, b);
}

TEST(FaultInjectorTest, SiteStreamsAreInterleavingIndependent) {
  // The fault sequence at site A must not depend on how many probes hit
  // site B in between — each site draws from its own seeded stream.
  std::vector<bool> alone;
  {
    ScopedFaultInjection guard(7);
    FaultInjector& injector = FaultInjector::Global();
    injector.SetFault("test.a", StatusCode::kInternal, 0.5);
    for (int i = 0; i < 100; ++i) {
      alone.push_back(!injector.MaybeFail("test.a").ok());
    }
  }
  std::vector<bool> interleaved;
  {
    ScopedFaultInjection guard(7);
    FaultInjector& injector = FaultInjector::Global();
    injector.SetFault("test.a", StatusCode::kInternal, 0.5);
    injector.SetFault("test.b", StatusCode::kInternal, 0.5);
    for (int i = 0; i < 100; ++i) {
      injector.MaybeFail("test.b");
      interleaved.push_back(!injector.MaybeFail("test.a").ok());
      injector.MaybeFail("test.b");
    }
  }
  EXPECT_EQ(alone, interleaved);
}

TEST(FaultInjectorTest, DisarmClearsConfigurationAndCounters) {
  {
    ScopedFaultInjection guard(3);
    FaultInjector::Global().SetFault("test.cleared", StatusCode::kInternal,
                                     1.0);
    EXPECT_FALSE(FaultInjector::Global().MaybeFail("test.cleared").ok());
  }
  EXPECT_FALSE(FaultInjector::Global().armed());
  EXPECT_OK(FaultInjector::Global().MaybeFail("test.cleared"));
  EXPECT_EQ(FaultInjector::Global().probes("test.cleared"), 0);
  EXPECT_EQ(FaultInjector::Global().failures("test.cleared"), 0);
}

}  // namespace
}  // namespace olapdc
