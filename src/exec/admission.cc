#include "exec/admission.h"

#include <chrono>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"

namespace olapdc::exec {

namespace {

constexpr int64_t kMaxRetryAfterMs = 60 * 1000;

int64_t MonotonicNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Status AdmissionGate::Shed(const std::string& why) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    obs::Count("olapdc.exec.shed");
    obs::Gauge("olapdc.exec.in_flight", in_flight());
  }
  return Status::Unavailable(why + "; retry-after-ms=" +
                             std::to_string(RetryAfterMsHint()));
}

Status AdmissionGate::TryAdmit() {
  const int64_t now = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (now >= options_.high_water) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return Shed("admission gate at high-water (" + std::to_string(now) + "/" +
                std::to_string(options_.high_water) + " in flight)");
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    obs::Count("olapdc.exec.admitted");
    obs::Gauge("olapdc.exec.in_flight", now + 1);
  }
  return Status::OK();
}

void AdmissionGate::Release() {
  // Fold this release into the drain-rate estimate. The races here
  // (two releases swapping last_release_ns_ out of order) only skew
  // the EWMA by one sample — acceptable for a backoff hint.
  const int64_t now_ns = MonotonicNs();
  const int64_t prev_ns =
      last_release_ns_.exchange(now_ns, std::memory_order_relaxed);
  if (prev_ns > 0 && now_ns > prev_ns) {
    const int64_t interval_us = (now_ns - prev_ns) / 1000;
    const int64_t prev_ewma =
        ewma_release_interval_us_.load(std::memory_order_relaxed);
    const int64_t next_ewma =
        prev_ewma == 0 ? interval_us : (3 * prev_ewma + interval_us) / 4;
    ewma_release_interval_us_.store(next_ewma, std::memory_order_relaxed);
  }
  const int64_t now = in_flight_.fetch_sub(1, std::memory_order_acq_rel) - 1;
  if (obs::MetricsEnabled()) {
    obs::Gauge("olapdc.exec.in_flight", now);
  }
}

int64_t AdmissionGate::RetryAfterMsHint() const {
  const int64_t ewma_us =
      ewma_release_interval_us_.load(std::memory_order_relaxed);
  // Round up so a sub-millisecond drain rate still suggests backing
  // off at all.
  int64_t hint_ms = (ewma_us + 999) / 1000;
  if (hint_ms < options_.retry_after_ms) hint_ms = options_.retry_after_ms;
  if (hint_ms > kMaxRetryAfterMs) hint_ms = kMaxRetryAfterMs;
  return hint_ms;
}

int64_t RetryAfterMsFromStatus(const Status& status) {
  if (status.code() != StatusCode::kUnavailable) return 0;
  static constexpr char kKey[] = "retry-after-ms=";
  const std::string& msg = status.message();
  const size_t pos = msg.find(kKey);
  if (pos == std::string::npos) return 0;
  const int64_t ms = std::atoll(msg.c_str() + pos + sizeof(kKey) - 1);
  return ms > 0 ? ms : 0;
}

}  // namespace olapdc::exec
