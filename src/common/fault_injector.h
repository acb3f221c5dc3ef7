// FaultInjector: deterministic fault injection at named sites, for
// exercising degradation paths in tests.
//
// Production code sprinkles MaybeFail("module.site") probes at the
// places where a real deployment can fail (budget exhaustion in DIMSAT,
// parse failures at the I/O boundary, failed syscalls in durable
// writes). Disarmed — the default — a probe costs one relaxed atomic
// load and returns OK. Tests arm the global injector with a seed and
// configure, per site, a StatusCode and a probability; each site draws
// from its own RNG stream seeded from (seed, site name), so the fault
// sequence at one site is reproducible regardless of what other sites
// do or how calls interleave across sites.
//
// The injector is process-global (like LevelDB/TiKV failpoints) so test
// code can reach sites buried arbitrarily deep in the call graph
// without threading a handle through every API. Tests using it must
// Disarm() when done (see ScopedFaultInjection).

#ifndef OLAPDC_COMMON_FAULT_INJECTOR_H_
#define OLAPDC_COMMON_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace olapdc {

/// Adds `site` to the process-wide fault-site inventory (idempotent).
/// Every module that probes MaybeFail("x.y") registers "x.y" from a
/// namespace-scope initializer, so sweep harnesses (tools/chaos_campaign)
/// can enumerate the full injectable surface without hand-maintaining a
/// list that drifts from the code. Returns true so it can initialize a
/// constant.
bool RegisterFaultSite(std::string_view site);

/// The inventory, sorted. Only sites whose translation unit is linked
/// into the binary appear — which is exactly the set whose probes can
/// fire there.
std::vector<std::string> RegisteredFaultSites();

class FaultInjector {
 public:
  /// The process-wide injector.
  static FaultInjector& Global();

  /// Enables injection and resets every configured site, deterministic
  /// under `seed`.
  void Arm(uint64_t seed);

  /// Disables injection and clears all sites and counters.
  void Disarm();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Configures `site` to fail with `code` with the given probability
  /// per probe (1.0 = every probe). Requires the injector to be armed.
  void SetFault(const std::string& site, StatusCode code, double probability,
                std::string message = "");

  /// Probes `site`: OK when disarmed or the site is unconfigured;
  /// otherwise fails with the configured status according to the site's
  /// deterministic stream.
  Status MaybeFail(std::string_view site);

  /// Probe / injected-failure counters for `site` (0 when unknown).
  uint64_t probes(std::string_view site) const;
  uint64_t failures(std::string_view site) const;

 private:
  FaultInjector() = default;

  struct Site {
    StatusCode code = StatusCode::kInternal;
    double probability = 0.0;
    std::string message;
    std::mt19937_64 rng;
    uint64_t probes = 0;
    uint64_t failures = 0;
  };

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  uint64_t seed_ = 0;
  std::unordered_map<std::string, Site> sites_;
};

/// RAII guard: arms the global injector for the scope, disarms on exit.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(uint64_t seed) {
    FaultInjector::Global().Arm(seed);
  }
  ~ScopedFaultInjection() { FaultInjector::Global().Disarm(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace olapdc

#endif  // OLAPDC_COMMON_FAULT_INJECTOR_H_
