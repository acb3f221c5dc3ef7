// DimService: the transport-free request plane of olapdcd.
//
// HandleRequest() maps one parsed HTTP request to one response, with
// the full crash-proof lifecycle around every call into the reasoning
// engines:
//
//   admission  — an AdmissionGate ticket is taken before any work;
//                overload sheds with 503 and a Retry-After header
//                derived from the gate's adaptive hint (the
//                "retry-after-ms=" hint of the 503 body — one source
//                of truth). The engine work a request starts is never
//                shed.
//   budgets    — every request runs under its own Budget: a clamped
//                deadline, the service-wide drain cancellation token,
//                and a fresh per-request MemoryBudget, so one greedy
//                request exhausts itself, not the process.
//   body JSON  — parsed with src/io's depth-capped parser; malformed
//                bodies are 400 with a line:column diagnostic, and
//                missing/mistyped fields are 400 naming the field
//                (never silently defaulted).
//   drain      — BeginDrain() sheds new work with the same 503, with
//                or without a gate, before any ticket is taken;
//                CancelInFlight() trips the shared cancellation token
//                so in-flight DIMSAT runs stop at the next budget probe
//                and return their serialized DimsatCheckpoint to the
//                client, who can resubmit it as "resume" (here or on
//                another replica).
//   isolation  — requests reason against shared_ptr<const> schema
//                snapshots from the SchemaRegistry; a poisoned request
//                (fault-injected, malformed, out-of-memory) dies with
//                its own response and leaves no state behind.
//
// Endpoints (POST, JSON bodies):
//   /v1/check         {schema, category, deadline_ms?, threads?, resume?}
//   /v1/implies       {schema, constraint, deadline_ms?, threads?}
//   /v1/summarizable  {schema, category, sources, deadline_ms?, threads?}
//   /v1/batch         {requests: [{op, ...}, ...], deadline_ms?}
//   /v1/schemas       {name, text}   (registers/replaces a schema)
//
// The three verdict endpoints share one answer routine (Answer() in
// dim_service.cc): each handler only turns its body into a question
// (the echoed fields, the response and closure keys, the no-good salt)
// plus an engine call, and the routine alone runs response read →
// closure read → no-good store attach → engine → reply → closure and
// response inserts. Handlers return unframed replies that
// HandleRequest frames once, so /v1/batch embeds item replies as they
// are, a per-item error as {"http_status": N, "error": …, "code": …}.
//
// Engine budget expiries are *data*, not transport errors: the
// response is 200 with "definitive": false, the status name, the
// partial statistics, and (one-thread /v1/check runs) a "checkpoint"
// to resume from. Only hard errors (bad input 4xx, unknown schema 404,
// internal faults 500) surface as HTTP error statuses.
//
// The outcome accounting (requests == ok + errors + shed) is exact and
// exposed via counters — the chaos soak's conservation invariant.

#ifndef OLAPDC_SERVICE_DIM_SERVICE_H_
#define OLAPDC_SERVICE_DIM_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "common/budget.h"
#include "exec/admission.h"
#include "obs/http_server.h"
#include "service/schema_registry.h"

namespace olapdc {
struct JsonValue;
}  // namespace olapdc

namespace olapdc::service {

class ServiceCaches;

class DimService {
 public:
  struct Options {
    /// Required; not owned.
    SchemaRegistry* registry = nullptr;
    /// Optional overload shedding; not owned. Drain sheds without it.
    exec::AdmissionGate* gate = nullptr;
    /// Deadline applied when the request names none, and the clamp
    /// ceiling when it does.
    int64_t default_deadline_ms = 2000;
    int64_t max_deadline_ms = 30000;
    /// Per-request memory envelope.
    uint64_t memory_budget_bytes = 64ull << 20;
    /// 1 serves every request sequentially. Above 1, a request whose
    /// "threads" is above 1 runs as tasks of the whole process pool,
    /// which olapdcd sizes to this value at startup; the request's
    /// count selects the parallel search and limits nothing.
    int max_threads = 1;
    /// Ceiling on /v1/batch fan-out.
    size_t max_batch = 64;
    /// Whether POST /v1/schemas may (re)register schemas.
    bool allow_register = true;
    /// Cross-request cache plane (service_caches.h); not owned, null
    /// disables all caching — request handling is then bit-identical
    /// to the uncached service. With caches attached, definitive
    /// answers are served from the response/closure layers when the
    /// epoch matches (marked "cached": true in the body) and every
    /// DIMSAT run shares the epoch's no-good store. Resume requests
    /// bypass the read path entirely but still warm the no-good layer.
    ServiceCaches* caches = nullptr;
  };

  explicit DimService(const Options& options) : options_(options) {}
  DimService(const DimService&) = delete;
  DimService& operator=(const DimService&) = delete;

  /// Serves one request. Thread-safe.
  obs::HttpResponse HandleRequest(const obs::HttpRequest& request);

  /// Drain, phase 1: shed every new request (503 with a Retry-After
  /// hint, the gate's when there is one) while in-flight ones run to
  /// completion.
  void BeginDrain();

  /// Drain, phase 2: trip the shared cancellation token so in-flight
  /// runs stop at their next budget probe and checkpoint.
  void CancelInFlight();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Outcome accounting: requests() == ok() + errors() + shed() holds
  /// whenever no request is mid-flight.
  uint64_t requests() const { return requests_.load(); }
  uint64_t ok() const { return ok_.load(); }
  uint64_t errors() const { return errors_.load(); }
  uint64_t shed() const { return shed_.load(); }
  /// Responses that carried a resumable checkpoint.
  uint64_t checkpointed() const { return checkpointed_.load(); }

 private:
  /// Route and the handlers return unframed replies: the JSON body
  /// without its trailing newline.
  obs::HttpResponse Route(const obs::HttpRequest& request);
  obs::HttpResponse DoCheck(const JsonValue& body, const Budget& budget);
  obs::HttpResponse DoImplies(const JsonValue& body, const Budget& budget);
  obs::HttpResponse DoSummarizable(const JsonValue& body,
                                   const Budget& budget);
  obs::HttpResponse DoBatch(const JsonValue& body, const Budget& budget);
  obs::HttpResponse DoRegisterSchema(const JsonValue& body,
                                     const Budget& budget);

  Options options_;
  CancellationSource drain_cancel_;
  std::atomic<bool> draining_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> checkpointed_{0};
};

}  // namespace olapdc::service

#endif  // OLAPDC_SERVICE_DIM_SERVICE_H_
