// olapdcd — the resident dimension-constraint reasoning daemon
// (ROADMAP item 1; docs/robustness.md "Daemon lifecycle").
//
// Serves the DimService request plane (POST /v1/check, /v1/implies,
// /v1/summarizable, /v1/batch, /v1/schemas), the telemetry GET routes
// (/metrics, /varz) and its own /healthz on one loopback port,
// over the hardened HttpServer transport: concurrent connections,
// per-request read/write deadlines, header/body caps, overload
// shedding with adaptive Retry-After.
//
// Lifecycle: on SIGTERM/SIGINT the daemon stops accepting, sheds new
// requests, and gives in-flight work the first half of
// --drain-timeout-ms to finish on its own; anything still running is
// then cancelled through the shared drain token, which makes
// sequential DIMSAT runs checkpoint and return their frontier to the
// client. Exit 0 = drained within the deadline, 1 = drain deadline
// exceeded, 2 = usage, else the olapdc CLI's exit code for the failed
// Status (tools::ExitCodeFor): a --schema file that is missing (14),
// malformed (12) or not a hierarchy schema (11); 15 when the server
// cannot start or the final snapshot cannot be written.
//
// Fault injection (--fault-site/--fault-prob/--fault-seed) arms the
// process-wide injector *inside the serving threads* — the live-daemon
// chaos soak (tools/loadgen, chaos_campaign --daemon) depends on it.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/status.h"
#include "exec/admission.h"
#include "exec/work_stealing_pool.h"
#include "io/durable_file.h"
#include "io/schema_io.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "service/dim_service.h"
#include "service/schema_registry.h"
#include "service/service_caches.h"
#include "service/snapshot.h"
#include "tools/flags.h"

namespace olapdc {
namespace {

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

int Usage() {
  std::fprintf(
      stderr,
      "usage: olapdcd [flags]\n"
      "  --port N                 TCP port on 127.0.0.1 (default 0 = "
      "ephemeral; bound port printed on stdout)\n"
      "  --schema name=path       pre-register a schema file (repeatable)\n"
      "  --drain-timeout-ms N     graceful-drain deadline on SIGTERM "
      "(default 5000)\n"
      "  --max-connections N      concurrent connections, one serving "
      "thread each (default 4, at most 256)\n"
      "  --max-body-bytes N       request body cap (default 1048576)\n"
      "  --max-header-bytes N     request header cap (default 16384)\n"
      "  --read-timeout-ms N      per-request receive deadline (default "
      "5000)\n"
      "  --admission-high-water N concurrent admitted requests (default "
      "16)\n"
      "  --request-deadline-ms N  default per-request deadline (default "
      "2000)\n"
      "  --max-deadline-ms N      ceiling on client deadlines (default "
      "30000)\n"
      "  --memory-budget-mb N     per-request memory envelope (default 64)\n"
      "  --threads N              the shared pool's size; a request whose "
      "\"threads\" is above 1 runs on the whole pool (default 1, at most "
      "256)\n"
      "  --max-batch N            ceiling on /v1/batch size (default 64)\n"
      "  --no-register            disable POST /v1/schemas\n"
      "  --cache-budget-mb N      cross-request cache envelope (default "
      "32; 0 disables caching)\n"
      "  --snapshot-file PATH     durable cache snapshot: recovered on "
      "start, rewritten on drain\n"
      "  --snapshot-interval-ms N also rewrite the snapshot every N ms off "
      "the serving path (default 0 = drain only)\n"
      "  --fault-site S           arm fault site S (repeatable; 'all' = "
      "every registered site)\n"
      "  --fault-prob P           injection probability (default 0.01)\n"
      "  --fault-seed N           injector seed (default 42)\n"
      "  --linger-ms N            exit (with a clean drain) after N ms — "
      "smoke tests\n");
  return 2;
}

using tools::ParseDoubleFlag;
using tools::ParseInt64Flag;

StatusCode NaturalFaultCode(const std::string& site) {
  if (site == "schema_io.parse" || site == "instance_io.parse") {
    return StatusCode::kParseError;
  }
  if (site == "mem.reserve") return StatusCode::kResourceExhausted;
  return StatusCode::kInternal;
}

int Main(int argc, char** argv) {
  int64_t port = 0;
  std::vector<std::pair<std::string, std::string>> schema_files;
  int64_t drain_timeout_ms = 5000;
  int64_t max_connections = 4;
  int64_t max_body_bytes = 1 << 20;
  int64_t max_header_bytes = 16 * 1024;
  int64_t read_timeout_ms = 5000;
  int64_t admission_high_water = 16;
  int64_t request_deadline_ms = 2000;
  int64_t max_deadline_ms = 30000;
  int64_t memory_budget_mb = 64;
  int64_t threads = 1;
  int64_t max_batch = 64;
  bool allow_register = true;
  int64_t cache_budget_mb = 32;
  std::string snapshot_file;
  int64_t snapshot_interval_ms = 0;
  std::vector<std::string> fault_sites;
  double fault_prob = 0.01;
  int64_t fault_seed = 42;
  int64_t linger_ms = -1;

  constexpr int64_t kMs = tools::kMaxMsFlag;  // ceiling for *-ms flags
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    bool has_value = false;
    if (eq != std::string::npos && arg.rfind("--", 0) == 0) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
      has_value = true;
    }
    auto next = [&]() -> std::string {
      if (has_value) return value;
      if (i + 1 < argc) return argv[++i];
      return "";
    };
    if (arg == "--port") {
      if (!ParseInt64Flag("--port", next(), 0, 65535, &port)) return Usage();
    } else if (arg == "--schema") {
      const std::string spec = next();
      const size_t sep = spec.find('=');
      if (sep == std::string::npos || sep == 0 || sep + 1 >= spec.size()) {
        std::fprintf(stderr, "error: --schema expects name=path\n");
        return 2;
      }
      schema_files.emplace_back(spec.substr(0, sep), spec.substr(sep + 1));
    } else if (arg == "--drain-timeout-ms") {
      if (!ParseInt64Flag("--drain-timeout-ms", next(), 1, kMs,
                          &drain_timeout_ms)) {
        return Usage();
      }
    } else if (arg == "--max-connections") {
      if (!ParseInt64Flag("--max-connections", next(), 1, exec::kMaxThreads,
                          &max_connections)) {
        return Usage();
      }
    } else if (arg == "--max-body-bytes") {
      if (!ParseInt64Flag("--max-body-bytes", next(), 1, 1ll << 40,
                          &max_body_bytes)) {
        return Usage();
      }
    } else if (arg == "--max-header-bytes") {
      if (!ParseInt64Flag("--max-header-bytes", next(), 1, 1ll << 30,
                          &max_header_bytes)) {
        return Usage();
      }
    } else if (arg == "--read-timeout-ms") {
      if (!ParseInt64Flag("--read-timeout-ms", next(), 1, kMs,
                          &read_timeout_ms)) {
        return Usage();
      }
    } else if (arg == "--admission-high-water") {
      if (!ParseInt64Flag("--admission-high-water", next(), 1, 1 << 20,
                          &admission_high_water)) {
        return Usage();
      }
    } else if (arg == "--request-deadline-ms") {
      if (!ParseInt64Flag("--request-deadline-ms", next(), 1, kMs,
                          &request_deadline_ms)) {
        return Usage();
      }
    } else if (arg == "--max-deadline-ms") {
      if (!ParseInt64Flag("--max-deadline-ms", next(), 1, kMs,
                          &max_deadline_ms)) {
        return Usage();
      }
    } else if (arg == "--memory-budget-mb") {
      if (!ParseInt64Flag("--memory-budget-mb", next(), 1, 1 << 20,
                          &memory_budget_mb)) {
        return Usage();
      }
    } else if (arg == "--threads") {
      if (!ParseInt64Flag("--threads", next(), 1, exec::kMaxThreads,
                          &threads)) {
        return Usage();
      }
    } else if (arg == "--max-batch") {
      if (!ParseInt64Flag("--max-batch", next(), 1, 1 << 20, &max_batch)) {
        return Usage();
      }
    } else if (arg == "--no-register") {
      allow_register = false;
    } else if (arg == "--cache-budget-mb") {
      if (!ParseInt64Flag("--cache-budget-mb", next(), 0, 1 << 20,
                          &cache_budget_mb)) {
        return Usage();
      }
    } else if (arg == "--snapshot-file") {
      snapshot_file = next();
    } else if (arg == "--snapshot-interval-ms") {
      if (!ParseInt64Flag("--snapshot-interval-ms", next(), 0, kMs,
                          &snapshot_interval_ms)) {
        return Usage();
      }
    } else if (arg == "--fault-site") {
      fault_sites.push_back(next());
    } else if (arg == "--fault-prob") {
      if (!ParseDoubleFlag("--fault-prob", next(), 0.0, 1.0, &fault_prob)) {
        return Usage();
      }
    } else if (arg == "--fault-seed") {
      if (!ParseInt64Flag("--fault-seed", next(), 0,
                          std::numeric_limits<int64_t>::max(), &fault_seed)) {
        return Usage();
      }
    } else if (arg == "--linger-ms") {
      if (!ParseInt64Flag("--linger-ms", next(), -1, kMs, &linger_ms)) {
        return Usage();
      }
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (!snapshot_file.empty() && cache_budget_mb <= 0) {
    std::fprintf(stderr, "error: --snapshot-file needs --cache-budget-mb > 0\n");
    return 2;
  }
  if (snapshot_interval_ms > 0 && snapshot_file.empty()) {
    std::fprintf(stderr,
                 "error: --snapshot-interval-ms needs --snapshot-file\n");
    return 2;
  }

  obs::MetricsRegistry::Global().Enable();

  service::SchemaRegistry registry;
  for (const auto& [name, path] : schema_files) {
    Result<DimensionSchema> loaded = LoadSchemaFile(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: cannot load schema '%s' from %s: %s\n",
                   name.c_str(), path.c_str(),
                   loaded.status().ToString().c_str());
      return tools::ExitCodeFor(loaded.status().code());
    }
    registry.RegisterParsed(name, std::move(*loaded));
  }

  if (!fault_sites.empty()) {
    std::vector<std::string> armed = fault_sites;
    if (armed.size() == 1 && armed[0] == "all") {
      armed = RegisteredFaultSites();
    }
    FaultInjector::Global().Arm(fault_seed);
    for (const std::string& site : armed) {
      FaultInjector::Global().SetFault(site, NaturalFaultCode(site),
                                       fault_prob, "olapdcd");
    }
    std::fprintf(stderr, "olapdcd: %zu fault sites armed at p=%g seed=%llu\n",
                 armed.size(), fault_prob,
                 static_cast<unsigned long long>(fault_seed));
  }

  // One pool for every parallel request, sized before anything uses
  // it. A request's "threads" above 1 selects the parallel search,
  // which runs on the whole pool whatever the value.
  exec::SetProcessPoolThreads(static_cast<int>(threads));

  exec::AdmissionGate gate(
      exec::AdmissionGate::Options{admission_high_water, 50});

  service::DimService::Options service_options;
  service_options.registry = &registry;
  service_options.gate = &gate;
  service_options.default_deadline_ms = request_deadline_ms;
  service_options.max_deadline_ms = max_deadline_ms;
  service_options.memory_budget_bytes =
      static_cast<uint64_t>(memory_budget_mb) << 20;
  service_options.max_threads = threads;
  service_options.max_batch = static_cast<size_t>(max_batch);
  service_options.allow_register = allow_register;

  // The cross-request cache plane (docs/caching.md). A warm restart
  // reloads it from --snapshot-file below.
  std::unique_ptr<service::ServiceCaches> caches;
  if (cache_budget_mb > 0) {
    service::ServiceCaches::Options cache_options;
    cache_options.memory_budget_bytes =
        static_cast<uint64_t>(cache_budget_mb) << 20;
    caches = std::make_unique<service::ServiceCaches>(cache_options);
    service_options.caches = caches.get();
  }

  // Crash recovery (docs/robustness.md "Crash durability & recovery"):
  // load the newest valid snapshot, salvaging a torn tail in place. A
  // missing, torn, or even completely corrupt snapshot must never stop
  // the daemon from starting — worst case it starts cold, exactly like
  // a first boot. Epoch discipline is carried inside the records
  // (no-good stores and response keys name their content epochs), so a
  // snapshot from before a schema change re-loads harmlessly cold.
  uint64_t snapshot_seq = 1;
  if (caches != nullptr && !snapshot_file.empty()) {
    const auto recovery_start = std::chrono::steady_clock::now();
    Result<DurableReadResult> read =
        ReadDurableFile(snapshot_file, /*truncate_torn_tail=*/true);
    if (read.ok()) {
      Result<uint64_t> recovered_seq =
          service::LoadSnapshotRecords(read->records, caches.get());
      const int64_t recovery_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - recovery_start)
              .count();
      if (recovered_seq.ok()) {
        snapshot_seq = *recovered_seq + 1;
        obs::Gauge("olapdc.durable.recovery_ms", recovery_ms);
        // The crash harness parses this line (before the listening
        // line, which loadgen tolerates); keep it stable.
        std::printf("olapdcd recovered snapshot seq=%llu nogoods=%llu "
                    "torn=%llu crc_drops=%llu\n",
                    static_cast<unsigned long long>(*recovered_seq),
                    static_cast<unsigned long long>(
                        caches->NoGoodEntryCount()),
                    static_cast<unsigned long long>(
                        read->torn_tail_truncations),
                    static_cast<unsigned long long>(read->crc_drops));
        std::fflush(stdout);
      } else {
        std::fprintf(stderr, "olapdcd: ignoring snapshot %s: %s\n",
                     snapshot_file.c_str(),
                     recovered_seq.status().ToString().c_str());
      }
    } else if (read.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "olapdcd: ignoring snapshot %s: %s\n",
                   snapshot_file.c_str(), read.status().ToString().c_str());
    }
  }

  service::DimService dim_service(service_options);

  // The telemetry GET routes share the port; /healthz is served here so
  // it can see the gate and the drain state.
  obs::TelemetryServer telemetry_routes;

  obs::HttpServer server;
  obs::HttpServer::Options server_options;
  server_options.port = port;
  server_options.max_connections = max_connections;
  server_options.max_header_bytes = static_cast<size_t>(max_header_bytes);
  server_options.max_body_bytes = static_cast<size_t>(max_body_bytes);
  server_options.read_timeout_ms = static_cast<int>(read_timeout_ms);
  server_options.handler = [&](const obs::HttpRequest& request)
      -> obs::HttpResponse {
    if (request.method == "GET" || request.method == "HEAD") {
      if (request.path == "/healthz") {
        const bool shedding =
            gate.in_flight() >= gate.options().high_water;
        const bool ok = !shedding && !dim_service.draining();
        std::string body = ok ? "ok\n" : "degraded\n";
        if (dim_service.draining()) body += "draining\n";
        if (shedding) body += "admission gate at high-water\n";
        return obs::HttpResponse{ok ? 200 : 503,
                                 "text/plain; charset=utf-8", body, {}};
      }
      obs::TelemetryServer::Response response =
          telemetry_routes.Handle(request.path);
      return obs::HttpResponse{response.status, response.content_type,
                               response.body, {}};
    }
    return dim_service.HandleRequest(request);
  };

  if (!server.Start(server_options)) {
    std::fprintf(stderr, "error: cannot start server: %s\n",
                 server.last_error().c_str());
    return tools::ExitCodeFor(StatusCode::kInternal);
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // Periodic snapshotting runs on its own thread, entirely off the
  // serving path: it serializes the cache plane (brief shard locks)
  // and does the durable write+fsync+rename with no request waiting on
  // it. A failed write (injected or real) leaves the previous snapshot
  // intact — that is the durable-file contract — so it is logged and
  // retried next tick.
  auto write_snapshot = [&]() -> Status {
    const std::vector<std::string> records =
        service::BuildSnapshotRecords(snapshot_seq, *caches);
    DurableWriteStats stats;
    OLAPDC_RETURN_NOT_OK(WriteDurableFile(snapshot_file, records, &stats));
    ++snapshot_seq;
    obs::Count("olapdc.durable.snapshots");
    return Status::OK();
  };
  std::atomic<bool> stop_snapshots{false};
  std::thread snapshot_thread;
  if (caches != nullptr && !snapshot_file.empty() &&
      snapshot_interval_ms > 0) {
    snapshot_thread = std::thread([&] {
      auto next_at = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(snapshot_interval_ms);
      while (!stop_snapshots.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (std::chrono::steady_clock::now() < next_at) continue;
        next_at = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(snapshot_interval_ms);
        const Status status = write_snapshot();
        if (!status.ok()) {
          std::fprintf(stderr, "olapdcd: snapshot failed: %s\n",
                       status.ToString().c_str());
        }
      }
    });
  }

  // loadgen and the CI smoke parse this line; keep it stable.
  std::printf("olapdcd listening on port %d\n", server.port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "olapdcd: %zu schemas, gate high-water %lld, drain timeout "
               "%lld ms\n",
               registry.size(),
               static_cast<long long>(admission_high_water),
               static_cast<long long>(drain_timeout_ms));

  const auto started = std::chrono::steady_clock::now();
  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (linger_ms >= 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::milliseconds(linger_ms)) {
      break;
    }
  }

  // Graceful drain: shed new work, give in-flight requests the first
  // half of the deadline to finish, then cancel (sequential DIMSAT
  // runs checkpoint back to their clients) and wait out the rest.
  const auto drain_start = std::chrono::steady_clock::now();
  server.BeginDrain();
  dim_service.BeginDrain();
  bool drained = server.WaitDrained(static_cast<int>(drain_timeout_ms / 2));
  if (!drained) {
    dim_service.CancelInFlight();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - drain_start)
            .count();
    const int64_t remaining = drain_timeout_ms - elapsed;
    drained = remaining > 0 && server.WaitDrained(static_cast<int>(remaining));
  }
  const int64_t drain_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - drain_start)
          .count();
  server.Stop();
  stop_snapshots.store(true, std::memory_order_relaxed);
  if (snapshot_thread.joinable()) snapshot_thread.join();

  // Disarm *before* the final persist: a clean shutdown's durable
  // state must not be lost to the daemon's own injected faults (the
  // chaos soaks arm every registered site, including durable.*).
  if (!fault_sites.empty()) FaultInjector::Global().Disarm();

  // Final persist. A failed persist on a clean drain is a real error:
  // the operator asked for durable state and is not getting it, so say
  // so and exit nonzero (tier-1 covers this path with an unwritable
  // target).
  bool persist_failed = false;
  if (caches != nullptr && !snapshot_file.empty()) {
    const uint64_t saved_seq = snapshot_seq;
    const Status status = write_snapshot();
    if (status.ok()) {
      // The crash harness parses this line; keep it stable.
      std::printf("olapdcd snapshot saved seq=%llu nogoods=%llu\n",
                  static_cast<unsigned long long>(saved_seq),
                  static_cast<unsigned long long>(
                      caches->NoGoodEntryCount()));
      std::fflush(stdout);
    } else {
      std::fprintf(stderr, "olapdcd: cannot write snapshot %s: %s\n",
                   snapshot_file.c_str(), status.ToString().c_str());
      persist_failed = true;
    }
  }

  std::fprintf(stderr,
               "olapdcd: drain %s in %lld ms (requests=%llu ok=%llu "
               "errors=%llu shed=%llu checkpointed=%llu)\n",
               drained ? "complete" : "DEADLINE EXCEEDED",
               static_cast<long long>(drain_ms),
               static_cast<unsigned long long>(dim_service.requests()),
               static_cast<unsigned long long>(dim_service.ok()),
               static_cast<unsigned long long>(dim_service.errors()),
               static_cast<unsigned long long>(dim_service.shed()),
               static_cast<unsigned long long>(dim_service.checkpointed()));
  if (persist_failed) return tools::ExitCodeFor(StatusCode::kInternal);
  return drained ? 0 : 1;
}

}  // namespace
}  // namespace olapdc

int main(int argc, char** argv) { return olapdc::Main(argc, argv); }
