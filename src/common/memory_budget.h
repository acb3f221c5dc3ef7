// MemoryBudget: the third resource axis next to wall-clock deadlines
// and cancellation. DIMSAT's working set (frozen dimensions collected
// in enumerate-all mode, undo-log frames, parallel task seeds, trace
// events) grows with the search, and on an adversarial schema it grows
// exponentially — a production request must run under a byte cap and
// degrade with kResourceExhausted + partial stats instead of taking the
// process down with it.
//
// Accounting is estimate-based, not allocator interception: the
// structures that dominate a request's footprint reserve an
// approximation of their heap bytes before materializing and release
// them when the request-scoped owner dies (see MemoryReservation). The
// cap is therefore a governor, not an exact rlimit — it bounds the
// request within a small constant factor of the configured limit,
// which is what overload protection needs.
//
// A MemoryBudget is shared read-mostly across the parallel workers of
// one request: Reserve/Release are lock-free atomics, and the
// exhausted flag is sticky so every worker's next Budget::Check() trips
// once any one of them hits the cap (budget-errors-are-data, like a
// deadline).

#ifndef OLAPDC_COMMON_MEMORY_BUDGET_H_
#define OLAPDC_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace olapdc {

class MemoryBudget {
 public:
  /// A budget of `limit_bytes`; 0 means "track but never trip"
  /// (pure accounting).
  explicit MemoryBudget(uint64_t limit_bytes) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Reserves `bytes` against the cap. On success the caller owns the
  /// reservation and must Release() it. Failure trips the sticky
  /// exhausted flag, counts olapdc.mem.exhausted, and returns
  /// kResourceExhausted naming `site`; nothing is reserved. The
  /// fault-injection site "mem.reserve" is probed first, so chaos runs
  /// can exhaust memory at any probability without real allocations.
  Status Reserve(uint64_t bytes, std::string_view site);

  void Release(uint64_t bytes);

  uint64_t limit() const { return limit_; }
  uint64_t reserved() const {
    return reserved_.load(std::memory_order_relaxed);
  }
  uint64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// Sticky: true once any Reserve() failed. Budget::Check() surfaces
  /// this to every amortized checker over the shared Budget.
  bool exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

  /// The status Budget::Check() reports once exhausted() is set.
  Status ExhaustedStatus() const;

  /// Writes the current/peak gauges into the metrics registry
  /// (olapdc.mem.reserved_bytes / olapdc.mem.peak_bytes); no-op when
  /// metrics are disabled. Called at request boundaries, not per
  /// reservation.
  void PublishGauges() const;

 private:
  const uint64_t limit_;
  std::atomic<uint64_t> reserved_{0};
  std::atomic<uint64_t> peak_{0};
  std::atomic<bool> exhausted_{false};
};

/// Request-scoped ownership of reservations against one MemoryBudget:
/// the destructor returns every byte this holder reserved, so transient
/// search state (a DIMSAT run's frozen list, a parser's line buffer)
/// cannot leak accounting on any exit path. Null budget = every Reserve
/// succeeds and holds nothing. Reserve() is thread-safe, so one holder
/// can collect the charges of many workers (a parallel DIMSAT run
/// charges every collected model to one run-wide holder); ReleaseAll()
/// runs once they are done.
class MemoryReservation {
 public:
  explicit MemoryReservation(MemoryBudget* budget) : budget_(budget) {}
  ~MemoryReservation() { ReleaseAll(); }

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  Status Reserve(uint64_t bytes, std::string_view site) {
    if (budget_ == nullptr) return Status::OK();
    OLAPDC_RETURN_NOT_OK(budget_->Reserve(bytes, site));
    held_.fetch_add(bytes, std::memory_order_relaxed);
    return Status::OK();
  }

  void ReleaseAll() {
    const uint64_t held = held_.exchange(0, std::memory_order_relaxed);
    if (budget_ != nullptr && held > 0) budget_->Release(held);
  }

  uint64_t held() const { return held_.load(std::memory_order_relaxed); }
  MemoryBudget* budget() const { return budget_; }

 private:
  MemoryBudget* budget_;
  std::atomic<uint64_t> held_{0};
};

}  // namespace olapdc

#endif  // OLAPDC_COMMON_MEMORY_BUDGET_H_
