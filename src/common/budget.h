// Budget: cooperative resource governance for the decision procedures.
//
// Category satisfiability is NP-complete (Theorem 4), so a production
// deployment must assume some queries will not finish. A Budget bundles
// the two externally imposed limits — a wall-clock deadline and a
// cooperative cancellation token — behind one Check() call that the hot
// loops (DIMSAT's EXPAND, NaiveSat's subset enumeration) probe
// periodically. The per-run counters (max_expand_calls, max_frozen,
// NaiveSat's path_limit) stay in the procedure options; a Budget is
// about limits shared across an entire request, possibly spanning many
// DIMSAT runs (e.g. one summarizability query = one implication test
// per bottom category under a single deadline).
//
// A Budget is passed by const pointer and is safe to share across
// threads: Check() only reads the deadline and the cancellation flag.
// The amortization state lives in a per-search BudgetChecker so
// parallel DIMSAT workers never contend.

#ifndef OLAPDC_COMMON_BUDGET_H_
#define OLAPDC_COMMON_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "obs/metrics.h"

namespace olapdc {

class MemoryBudget;

/// Read side of a cancellation flag. Default-constructed tokens are
/// "null": never cancelled, and cost one pointer test to probe.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// True when this token is wired to a CancellationSource (regardless
  /// of whether cancellation was requested yet).
  bool cancellable() const { return flag_ != nullptr; }

  bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancellationSource;
  explicit CancellationToken(std::shared_ptr<const std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}

  std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Write side: the owner keeps the source and hands tokens to the
/// operations it may later want to abandon. Copies share the flag.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancellationToken token() const { return CancellationToken(flag_); }

  /// Requests cancellation; idempotent, safe from any thread.
  void RequestCancel() { flag_->store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// A wall-clock deadline, a cancellation token, and (optionally) a
/// memory budget — the full resource envelope of one request behind a
/// single Check(). Default-constructed Budgets are unbounded (Check()
/// always returns OK).
class Budget {
 public:
  using Clock = std::chrono::steady_clock;

  Budget() = default;

  static Budget Unbounded() { return Budget(); }

  /// A budget expiring `timeout` from now.
  static Budget WithDeadline(Clock::duration timeout) {
    Budget b;
    b.deadline_ = Clock::now() + timeout;
    return b;
  }
  static Budget WithDeadlineMs(int64_t ms) {
    return WithDeadline(std::chrono::milliseconds(ms));
  }

  Budget& SetDeadline(Clock::time_point deadline) {
    deadline_ = deadline;
    return *this;
  }
  Budget& SetCancellation(CancellationToken token) {
    cancel_ = std::move(token);
    return *this;
  }
  /// Attaches a memory budget; not owned, must outlive the Budget, may
  /// be null. Once `memory->exhausted()` trips (any worker's failed
  /// Reserve), Check() returns its kResourceExhausted status — the trip
  /// propagates through the same amortized probes as a deadline, so
  /// partial-result degradation needs no extra plumbing.
  Budget& SetMemory(MemoryBudget* memory) {
    memory_ = memory;
    return *this;
  }

  bool has_deadline() const { return deadline_.has_value(); }
  MemoryBudget* memory() const { return memory_; }
  bool unbounded() const {
    return !deadline_.has_value() && !cancel_.cancellable() &&
           memory_ == nullptr;
  }

  /// Full probe: samples the cancellation flag, then the memory
  /// exhausted flag, then the clock. Returns OK, kCancelled,
  /// kResourceExhausted (memory), or kDeadlineExceeded. Cancellation
  /// wins when several apply (the caller asked first).
  Status Check() const;

 private:
  std::optional<Clock::time_point> deadline_;
  CancellationToken cancel_;
  MemoryBudget* memory_ = nullptr;
};

/// Amortizes Budget::Check() for hot loops: only every `stride`-th call
/// performs the full probe (clock read + flag load); the rest pay one
/// pointer test and one increment. The first call always probes, so a
/// pre-expired deadline or pre-cancelled token trips immediately. Once
/// tripped, the error sticks and is returned without re-probing.
///
/// Not thread-safe — give each worker its own checker over the shared
/// Budget.
class BudgetChecker {
 public:
  static constexpr uint32_t kDefaultStride = 256;

  /// `budget` may be null (every Check() returns OK) and must outlive
  /// the checker. A zero `stride` is treated as 1 (probe every call).
  /// A non-empty `site` names the probing loop for observability: when
  /// the budget trips, `olapdc.budget.expired.<site>` (plus a
  /// deadline/cancelled classification counter) is incremented in the
  /// metrics registry — per-site expiry accounting costs nothing on the
  /// non-tripping path.
  explicit BudgetChecker(const Budget* budget,
                         uint32_t stride = kDefaultStride,
                         std::string_view site = {})
      : budget_(budget != nullptr && !budget->unbounded() ? budget : nullptr),
        stride_(stride == 0 ? 1 : stride),
        site_(site) {}

  Status Check() {
    if (budget_ == nullptr || tripped_) return status_;
    if (calls_++ % stride_ != 0) return Status::OK();
    status_ = budget_->Check();
    tripped_ = !status_.ok();
    ++probes_;
    if (tripped_) CountExpiry();
    return status_;
  }

  /// Number of full probes performed (clock samples); for tests.
  uint64_t probes() const { return probes_; }

 private:
  void CountExpiry() const {
    if (!obs::MetricsEnabled()) return;
    switch (status_.code()) {
      case StatusCode::kCancelled:
        obs::Count("olapdc.budget.cancelled");
        break;
      case StatusCode::kResourceExhausted:
        obs::Count("olapdc.budget.memory_exhausted");
        break;
      default:
        obs::Count("olapdc.budget.deadline_exceeded");
        break;
    }
    if (!site_.empty()) obs::Count("olapdc.budget.expired." + site_);
  }

  const Budget* budget_;
  uint32_t stride_;
  std::string site_;
  uint64_t calls_ = 0;
  uint64_t probes_ = 0;
  bool tripped_ = false;
  Status status_;
};

}  // namespace olapdc

#endif  // OLAPDC_COMMON_BUDGET_H_
