// AdmissionGate: shed-don't-queue semantics (kUnavailable with a
// retry-after-ms hint, no partial work), the Ticket RAII, the hint
// parser and the adaptive hint. The gate sits in front of olapdcd's
// request plane only; service_test covers the 503s it produces there
// and the drain that sheds before it.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/status.h"
#include "exec/admission.h"
#include "tests/test_util.h"

namespace olapdc {
namespace {

TEST(AdmissionGateTest, AdmitsUpToHighWaterThenSheds) {
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/2, /*retry_after_ms=*/50});
  ASSERT_OK(gate.TryAdmit());
  ASSERT_OK(gate.TryAdmit());
  EXPECT_EQ(gate.in_flight(), 2);

  Status shed = gate.TryAdmit();
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(gate.in_flight(), 2);  // the shed request holds no slot
  EXPECT_EQ(gate.admitted(), 2u);
  EXPECT_EQ(gate.shed(), 1u);

  gate.Release();
  ASSERT_OK(gate.TryAdmit());  // a drained slot admits again
  gate.Release();
  gate.Release();
  EXPECT_EQ(gate.in_flight(), 0);
}

TEST(AdmissionGateTest, TicketReleasesOnlyWhenAdmitted) {
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/1, /*retry_after_ms=*/50});
  {
    exec::AdmissionGate::Ticket first(&gate);
    ASSERT_TRUE(first.admitted());
    exec::AdmissionGate::Ticket second(&gate);
    EXPECT_FALSE(second.admitted());
    EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(gate.in_flight(), 1);
  }
  // Only the admitted ticket released; the shed one had nothing to
  // release and must not drive in_flight negative.
  EXPECT_EQ(gate.in_flight(), 0);
}

TEST(AdmissionGateTest, NullGateTicketAdmitsEverything) {
  exec::AdmissionGate::Ticket ticket(nullptr);
  EXPECT_TRUE(ticket.admitted());
}

TEST(AdmissionGateTest, RetryAfterHintRoundTrips) {
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/0, /*retry_after_ms=*/123});
  Status shed = gate.TryAdmit();
  ASSERT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(exec::RetryAfterMsFromStatus(shed), 123);

  EXPECT_EQ(exec::RetryAfterMsFromStatus(Status::OK()), 0);
  EXPECT_EQ(exec::RetryAfterMsFromStatus(Status::Unavailable("no hint")), 0);
}

TEST(AdmissionGateTest, AdaptiveHintTracksObservedDrainRate) {
  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{/*high_water=*/4, /*retry_after_ms=*/5});
  // No releases observed yet: the hint is the configured floor.
  EXPECT_EQ(gate.RetryAfterMsHint(), 5);

  // Slow drain: releases ~40ms apart pull the EWMA up, so the hint a
  // shed client receives reflects roughly how long until a slot frees
  // (bounds are generous — CI timing only has to land in the ballpark).
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(gate.TryAdmit());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    gate.Release();
  }
  const int64_t slow_hint = gate.RetryAfterMsHint();
  EXPECT_GE(slow_hint, 10);
  EXPECT_LE(slow_hint, 60000);

  // Fast drain: a burst of back-to-back releases decays the EWMA back
  // toward the floor — the hint adapts downward, not just upward.
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(gate.TryAdmit());
    gate.Release();
  }
  EXPECT_LT(gate.RetryAfterMsHint(), slow_hint);

  // One source of truth: the shed status carries the same adaptive
  // hint the HTTP plane turns into Retry-After.
  exec::AdmissionGate full(
      exec::AdmissionGate::Options{/*high_water=*/0, /*retry_after_ms=*/7});
  Status shed = full.TryAdmit();
  ASSERT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(exec::RetryAfterMsFromStatus(shed), full.RetryAfterMsHint());
}

}  // namespace
}  // namespace olapdc
