// AdmissionGate: overload shedding in front of olapdcd's request plane
// (service::DimService takes one ticket per request, before it parses
// the body). It is the only gate: the engine never consults one, so a
// request's nested work — a summarizability sweep's per-bottom tests,
// their parallel DIMSAT runs — is never shed against its own ticket.
//
// A saturated service does not fail — it queues, and queued work holds
// memory and pushes every in-flight request past its deadline. The gate
// bounds concurrent admitted requests at a high-water mark; beyond it,
// new requests are *shed immediately* with kUnavailable and a
// retry-after-ms hint instead of degrading everyone. kUnavailable is
// deliberately distinct from the budget errors: a shed request has done
// no work, carries no partial result, and is safe to retry verbatim
// after backing off for the hinted interval.
//
// The retry-after hint adapts to the observed drain rate: the gate
// keeps an EWMA of the interval between Release() calls, so the hint
// approximates "when the next slot frees up" instead of a constant
// that is wrong in both directions (too eager under heavy requests,
// too lazy under light ones). Options::retry_after_ms is the floor and
// the fallback before any release has been observed. The hint has one
// source of truth — RetryAfterMsHint() — embedded in the kUnavailable
// message of the 503 body and parsed back out by the HTTP layer for
// the Retry-After header.
//
// The gate stays a counter, not a queue: admission control that
// *waits* is just a second queue with extra steps. It knows nothing of
// drain: DimService sheds a draining daemon's requests before it takes
// a ticket.

#ifndef OLAPDC_EXEC_ADMISSION_H_
#define OLAPDC_EXEC_ADMISSION_H_

#include <atomic>
#include <cstdint>

#include "common/status.h"

namespace olapdc::exec {

class AdmissionGate {
 public:
  struct Options {
    /// Concurrent admitted requests beyond which new ones are shed.
    int64_t high_water = 64;
    /// Floor (and pre-observation fallback) for the adaptive backoff
    /// hint embedded in the kUnavailable message as
    /// "retry-after-ms=<n>" (RetryAfterMsFromStatus parses it back).
    int64_t retry_after_ms = 50;
  };

  explicit AdmissionGate(const Options& options) : options_(options) {}
  AdmissionGate() : AdmissionGate(Options{}) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Admits the request (counting it in-flight until Release()) or
  /// sheds it with kUnavailable. Lock-free; safe from any thread.
  Status TryAdmit();

  /// Returns one admitted request's slot. Must pair 1:1 with a
  /// successful TryAdmit().
  void Release();

  /// Current backoff suggestion in ms: the EWMA interval between
  /// recent Release() calls (≈ time until a slot frees), floored at
  /// Options::retry_after_ms and capped at one minute.
  int64_t RetryAfterMsHint() const;

  int64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  const Options& options() const { return options_; }

  /// RAII admission: releases on destruction iff TryAdmit succeeded.
  class Ticket {
   public:
    explicit Ticket(AdmissionGate* gate)
        : gate_(gate), status_(gate == nullptr ? Status::OK()
                                               : gate->TryAdmit()) {}
    ~Ticket() {
      if (gate_ != nullptr && status_.ok()) gate_->Release();
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    const Status& status() const { return status_; }
    bool admitted() const { return status_.ok(); }

   private:
    AdmissionGate* gate_;
    Status status_;
  };

 private:
  Status Shed(const std::string& why);

  const Options options_;
  std::atomic<int64_t> in_flight_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  /// Monotonic ns of the last Release(); 0 before the first.
  std::atomic<int64_t> last_release_ns_{0};
  /// EWMA of release inter-arrival in us; 0 before two releases.
  std::atomic<int64_t> ewma_release_interval_us_{0};
};

/// Parses the "retry-after-ms=<n>" hint out of a kUnavailable status
/// message; 0 when absent or not kUnavailable.
int64_t RetryAfterMsFromStatus(const Status& status);

}  // namespace olapdc::exec

#endif  // OLAPDC_EXEC_ADMISSION_H_
