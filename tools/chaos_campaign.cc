// chaos_campaign — the robustness sweep harness (docs/robustness.md).
//
// Sweeps every registered fault-injection site × a probability grid ×
// the budget configurations over generated workloads, driving the
// request shapes a deployment actually runs (sequential DIMSAT with
// checkpoint/resume, parallel DIMSAT, nested parallel DIMSAT, the
// parse boundary) and asserting the crash-proof-lifecycle invariants
// on every run:
//
//   1. no crash / no hang (the harness itself finishing is the check;
//      ASan/UBSan builds add memory-safety teeth);
//   2. taxonomy-only failures: a run's status is OK, the injected
//      code, or a budget code — never an unclassified error (nothing
//      in-process sheds: only olapdcd's request plane does);
//   3. no wrong witness: a SATISFIABLE verdict always carries a frozen
//      dimension that passes full C1-C7 + Sigma validation
//      (FrozenDimension::ToInstance), faults or not;
//   4. no phantom result: a faulted run that reports SATISFIABLE is
//      confirmed by the unfaulted baseline;
//   5. the run releases what it held: every run returns with the
//      per-request memory accounting back at zero;
//   6. metrics stay consistent: at campaign quiescence, reserved ==
//      released bytes, and every site probed at least 8 times over its
//      p >= 0.5 cells actually injected.
//
// Exit code 0 = every invariant held on every run; 1 = violations
// (detailed in the JSON report and on stderr).
//
// Flags:
//   --runs-per-cell <n>   workload runs per (site, prob, budget) cell
//   --seeds <n>           distinct workload seeds (cycled over runs)
//   --out <path>          JSON report path (default BENCH_robustness.json;
//                         daemon mode: chaos_daemon_report.json)
//   --quick               CI smoke grid: prob 0.5 only, two budget
//                         configs, one run of each request shape
//
// Live-daemon soak (--daemon): instead of the in-process sweep, stand
// up the full olapdcd stack (SchemaRegistry + AdmissionGate +
// DimService behind the hardened HttpServer on a real loopback port),
// arm EVERY registered fault site inside the serving threads, and
// hammer it with concurrent clients running the mixed request shapes
// (check / implies / summarizable / batch, tiny deadlines that force
// the checkpoint path, schema re-registration mid-flight, malformed
// JSON, unknown schemas, oversized bodies, truncated POSTs, garbage
// request lines) — then drain gracefully and assert the lifecycle
// invariants from the outside:
//   - every response is in the documented status taxonomy
//     (200/400/404/405/408/413/500/503), never a crash or a hang;
//   - client-side conservation: every request sent is accounted as
//     exactly one of {2xx, shed, other 4xx/5xx, transport error};
//   - server-side conservation: requests == ok + errors + shed at
//     quiescence;
//   - drain completes within the deadline with the admission gate idle
//     and memory accounting back at zero.
//
//   --daemon-duration-ms <n>   load phase length (default 4000)
//   --daemon-min-requests <n>  keep hammering until this many sent
//                              (default 1200)
//   --daemon-prob <p>          per-site injection probability (0.05)
//   --daemon-threads <n>       client threads (default 4)
//
// Kill-9 crash grid (--crash / --crash-only): forks a real olapdcd
// (with --snapshot-file and a fast --snapshot-interval-ms), hammers it
// with mixed load, and SIGKILLs it at randomized points — including
// mid-snapshot, with some rounds arming the durable.* fault sites and
// some rounds corrupting the snapshot on disk (byte flips, torn
// truncation) before restart. After every kill the daemon is
// restarted and the crash-durability invariants are asserted:
//
//   A. startup never fails on a missing/torn/corrupt snapshot — the
//      daemon always reaches "listening" (worst case it starts cold);
//   B. recovered warm answers equal the cold recomputation: the probe
//      set (check / implies / summarizable) must return exactly the
//      ground truth computed in-process before any kill;
//   C. the learned no-good count is monotone across *clean* restarts:
//      what a graceful shutdown reports saved, the next startup must
//      recover (kill -9 may lose un-snapshotted tail learning; a clean
//      drain may not).
//
// --crash runs the grid after the classic in-process sweep and embeds
// a "crash_grid" section in the combined report (the committed
// BENCH_robustness.json shape); --crash-only runs just the grid (the
// CI crash-recovery smoke).
//
//   --crash-kills <n>          rounds in the grid (default 200; 10 in
//                              --quick)
//   --crash-daemon-bin <path>  olapdcd binary (default: next to this
//                              binary)
//   --crash-dir <path>         scratch dir (default chaos_crash_tmp)

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/fault_injector.h"
#include "common/memory_budget.h"
#include "core/dimsat.h"
#include "core/location_example.h"
#include "exec/admission.h"
#include "exec/work_stealing_pool.h"
#include "io/instance_io.h"
#include "io/schema_io.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "service/dim_service.h"
#include "service/schema_registry.h"
#include "tools/flags.h"
#include "tools/http_client.h"
#include "workload/schema_generator.h"

namespace olapdc {
namespace {

struct Workload {
  DimensionSchema ds;
  CategoryId root = 0;
  bool satisfiable = false;
  std::string schema_text;
  /// Serialized witness instance (only when satisfiable).
  std::string instance_text;
};

/// Generates workload `seed` and computes its unfaulted ground truth.
/// Must be called with the injector disarmed.
Result<Workload> MakeWorkload(int seed) {
  // Large enough that parallel runs actually keep the pool busy (the
  // exec.group_wait site only probes while a nested Wait finds queued
  // work), small enough that the full grid stays in seconds.
  SchemaGenOptions schema_options;
  schema_options.num_levels = 4;
  schema_options.categories_per_level = 3;
  schema_options.extra_edge_prob = 0.35;
  schema_options.seed = static_cast<uint64_t>(seed) * 7919 + 5;
  OLAPDC_ASSIGN_OR_RETURN(HierarchySchemaPtr hierarchy,
                          GenerateLayeredHierarchy(schema_options));
  ConstraintGenOptions constraint_options;
  constraint_options.into_fraction = 0.4;
  constraint_options.num_choice_constraints = 1;
  constraint_options.num_equality_constraints = 1;
  constraint_options.seed = static_cast<uint64_t>(seed);
  OLAPDC_ASSIGN_OR_RETURN(
      DimensionSchema ds,
      GenerateConstrainedSchema(hierarchy, constraint_options));

  Workload w{std::move(ds), /*root=*/0, /*satisfiable=*/false, {}, {}};
  OLAPDC_ASSIGN_OR_RETURN(w.root, w.ds.hierarchy().CategoryIdOf("Base"));
  DimsatResult truth = RunDimsat(w.ds, w.root, {});
  OLAPDC_RETURN_NOT_OK(truth.status);
  w.satisfiable = truth.satisfiable;
  w.schema_text = SerializeSchema(w.ds);
  if (truth.satisfiable) {
    OLAPDC_ASSIGN_OR_RETURN(DimensionInstance instance,
                            truth.frozen.front().ToInstance(w.ds));
    w.instance_text = SerializeInstance(instance);
  }
  return w;
}

/// One budget configuration of the sweep.
struct BudgetConfig {
  const char* name;
  int64_t deadline_ms = -1;        // <0: none
  uint64_t max_expand_calls = 0;   // 0: unlimited
  uint64_t memory_bytes = 0;       // 0: none
};

constexpr BudgetConfig kBudgetConfigs[] = {
    {"unbounded"},
    {"deadline-5ms", 5},
    {"expand-cap-64", -1, 64},
    {"memory-32k", -1, 0, 32 * 1024},
};

constexpr double kProbabilities[] = {0.01, 0.1, 0.5};

bool IsParseSite(const std::string& site) {
  return site == "schema_io.parse" || site == "instance_io.parse";
}

/// Outcome of one request run under injection.
struct RunOutcome {
  Status status;
  bool reported_satisfiable = false;
  /// Every frozen dimension the run reported (validated by the caller).
  std::vector<FrozenDimension> frozen;
};

/// The request shapes, rotated per run. Each receives a fully
/// configured budget (deadline / expand cap / memory) and must return
/// whatever status the public API surfaced.
RunOutcome RunSequentialWithResume(const Workload& w,
                                   DimsatOptions options) {
  RunOutcome out;
  DimsatCheckpoint cp;
  options.num_threads = 1;
  options.checkpoint = &cp;
  DimsatResult r = RunDimsat(w.ds, w.root, options);
  out.status = r.status;
  out.reported_satisfiable = r.satisfiable;
  for (FrozenDimension& f : r.frozen) out.frozen.push_back(std::move(f));
  // Bounded resume chain: under injected faults progress is
  // probabilistic, so the chain is capped — robustness invariants are
  // the claim here, exact resume equivalence is checkpoint_test's.
  for (int link = 0; link < 8 && !cp.empty(); ++link) {
    DimsatCheckpoint from = std::move(cp);
    cp.frames.clear();
    DimsatResult next = ResumeDimsat(w.ds, w.root, options, std::move(from));
    out.status = next.status;
    out.reported_satisfiable |= next.satisfiable;
    for (FrozenDimension& f : next.frozen) out.frozen.push_back(std::move(f));
  }
  return out;
}

RunOutcome RunParallel(const Workload& w, DimsatOptions options,
                       exec::WorkStealingPool* pool) {
  RunOutcome out;
  options.num_threads = pool->num_threads();
  options.pool = pool;
  DimsatResult r = RunDimsat(w.ds, w.root, options);
  out.status = r.status;
  out.reported_satisfiable = r.satisfiable;
  for (FrozenDimension& f : r.frozen) out.frozen.push_back(std::move(f));
  return out;
}

/// Nested parallel request: a pool task that itself runs a parallel DIMSAT
/// on the same pool (the shape of a parallel summarizability sweep,
/// where per-bottom tasks fan out further). The inner search's
/// TaskGroup::Wait then runs on a pool *worker*, driving the
/// worker-thread helping path — the exec.group_wait site.
RunOutcome RunNestedParallel(const Workload& w, DimsatOptions options,
                             exec::WorkStealingPool* pool) {
  RunOutcome out;
  options.num_threads = pool->num_threads();
  options.pool = pool;
  {
    exec::TaskGroup group(pool);
    group.Spawn([&] {
      DimsatResult r = RunDimsat(w.ds, w.root, options);
      out.status = std::move(r.status);
      out.reported_satisfiable = r.satisfiable;
      for (FrozenDimension& f : r.frozen) out.frozen.push_back(std::move(f));
    });
    group.Wait();
  }
  return out;
}

RunOutcome RunParseBoundary(const Workload& w, const Budget* budget) {
  RunOutcome out;
  Result<DimensionSchema> schema = ParseSchemaText(w.schema_text, budget);
  if (!schema.ok()) {
    out.status = schema.status();
    return out;
  }
  if (!w.instance_text.empty()) {
    Result<DimensionInstance> instance = ParseInstanceText(
        schema->hierarchy_ptr(), w.instance_text, false, budget);
    if (!instance.ok()) out.status = instance.status();
  }
  return out;
}

struct Violation {
  std::string site;
  double probability;
  std::string budget;
  int run;
  std::string what;
};

/// Writes a report's "violations" array and the comma after it.
void WriteViolations(std::FILE* f, const std::vector<Violation>& violations) {
  std::fprintf(f, "  \"violations\": [");
  for (size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    std::fprintf(f,
                 "%s\n    {\"site\": %s, \"probability\": %g, "
                 "\"budget\": %s, \"run\": %d, \"what\": %s}",
                 i == 0 ? "" : ",", obs::JsonString(v.site).c_str(),
                 v.probability, obs::JsonString(v.budget).c_str(), v.run,
                 obs::JsonString(v.what).c_str());
  }
  std::fprintf(f, "%s],\n", violations.empty() ? "" : "\n  ");
}

struct Campaign {
  uint64_t total_runs = 0;
  uint64_t total_cells = 0;
  uint64_t injected_failures = 0;
  uint64_t reported_sat = 0;
  uint64_t degraded = 0;  // non-OK statuses (taxonomy-conforming)
  std::vector<Violation> violations;
  std::map<std::string, uint64_t> runs_per_site;
  std::map<std::string, uint64_t> failures_per_site;
};

/// `crash_json` (optional): the serialized "crash_grid" object of a
/// --crash run, embedded next to the sweep's own sections.
bool WriteReport(const std::string& path, const Campaign& c, bool quick,
                 int runs_per_cell, int seeds,
                 const std::string* crash_json = nullptr) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmark\": \"chaos_campaign\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"runs_per_cell\": %d,\n  \"workload_seeds\": %d,\n",
               runs_per_cell, seeds);
  std::fprintf(f, "  \"cells\": %llu,\n  \"total_runs\": %llu,\n",
               static_cast<unsigned long long>(c.total_cells),
               static_cast<unsigned long long>(c.total_runs));
  std::fprintf(f, "  \"injected_failures\": %llu,\n",
               static_cast<unsigned long long>(c.injected_failures));
  std::fprintf(f, "  \"reported_satisfiable\": %llu,\n",
               static_cast<unsigned long long>(c.reported_sat));
  std::fprintf(f, "  \"degraded_runs\": %llu,\n",
               static_cast<unsigned long long>(c.degraded));
  std::fprintf(f, "  \"sites\": {\n");
  bool first = true;
  for (const auto& [site, runs] : c.runs_per_site) {
    std::fprintf(f, "%s    \"%s\": {\"runs\": %llu, \"injected\": %llu}",
                 first ? "" : ",\n", obs::JsonEscape(site).c_str(),
                 static_cast<unsigned long long>(runs),
                 static_cast<unsigned long long>(
                     c.failures_per_site.count(site)
                         ? c.failures_per_site.at(site)
                         : 0));
    first = false;
  }
  std::fprintf(f, "\n  },\n");
  if (crash_json != nullptr) {
    std::fprintf(f, "  \"crash_grid\": %s,\n", crash_json->c_str());
  }
  WriteViolations(f, c.violations);
  std::fprintf(f, "  \"invariants_held\": %s\n}\n",
               c.violations.empty() ? "true" : "false");
  std::fclose(f);
  return true;
}

// ---------------------------------------------------------------------------
// Live-daemon soak (--daemon)
// ---------------------------------------------------------------------------

struct DaemonSoakConfig {
  int64_t duration_ms = 4000;
  uint64_t min_requests = 1200;
  double prob = 0.05;
  int client_threads = 4;
  int seeds = 3;
  std::string out_path = "chaos_daemon_report.json";
};

struct ClientTally {
  uint64_t sent = 0;
  uint64_t ok_2xx = 0;
  uint64_t shed_503 = 0;
  uint64_t other_4xx = 0;
  uint64_t other_5xx = 0;
  uint64_t transport = 0;
  uint64_t checkpoints = 0;
  uint64_t nondefinitive = 0;
  std::map<int, uint64_t> statuses;
  std::vector<int> unexpected_statuses;

  void Merge(const ClientTally& o) {
    sent += o.sent;
    ok_2xx += o.ok_2xx;
    shed_503 += o.shed_503;
    other_4xx += o.other_4xx;
    other_5xx += o.other_5xx;
    transport += o.transport;
    checkpoints += o.checkpoints;
    nondefinitive += o.nondefinitive;
    for (const auto& [code, n] : o.statuses) statuses[code] += n;
    unexpected_statuses.insert(unexpected_statuses.end(),
                               o.unexpected_statuses.begin(),
                               o.unexpected_statuses.end());
  }
};

/// One request shape of the soak mix.
struct SoakShape {
  std::string path;
  std::string body;
  bool raw = false;           // raw bytes instead of a framed POST
  bool expect_no_reply = false;  // client closes mid-request
  std::string raw_bytes;
};

std::vector<SoakShape> BuildSoakShapes(const std::vector<Workload>& workloads,
                                       size_t max_body_bytes) {
  std::vector<SoakShape> shapes;
  auto add = [&shapes](const char* path, std::string body) {
    SoakShape shape;
    shape.path = path;
    shape.body = std::move(body);
    shapes.push_back(std::move(shape));
  };
  auto check = [](const std::string& schema, const char* extra = "") {
    return "{\"schema\": \"" + schema +
           "\", \"category\": \"Base\", \"deadline_ms\": 250" + extra + "}";
  };
  for (size_t k = 0; k < workloads.size(); ++k) {
    const std::string name = "w" + std::to_string(k);
    add("/v1/check", check(name));
    // threads: 2 routes through the process pool — the exec.*
    // fault sites fire inside the serving thread's parallel run.
    add("/v1/check", check(name, ", \"threads\": 2"));
    // A 1ms deadline expires mid-search: 200 with "definitive": false
    // and (sequentially) a resumable checkpoint — the degraded mode.
    add("/v1/check", "{\"schema\": \"" + name +
                         "\", \"category\": \"Base\", \"deadline_ms\": 1}");
    // Re-registration races against in-flight reasoning on the same
    // name — the shared_ptr snapshot isolation under test.
    add("/v1/schemas", "{\"name\": \"" + name + "\", \"text\": " +
                           obs::JsonString(workloads[k].schema_text) + "}");
  }
  // The paper's location example: implies / summarizable / batch.
  add("/v1/implies",
      "{\"schema\": \"loc\", \"constraint\": \"Store/City\"}");
  add("/v1/summarizable",
      "{\"schema\": \"loc\", \"category\": \"Country\", "
      "\"sources\": [\"Store\"]}");
  add("/v1/batch",
      "{\"requests\": [{\"op\": \"check\", \"schema\": \"loc\", "
      "\"category\": \"Store\"}, {\"op\": \"implies\", \"schema\": "
      "\"loc\", \"constraint\": \"Store/City\"}, {\"op\": "
      "\"summarizable\", \"schema\": \"loc\", \"category\": "
      "\"Country\", \"sources\": [\"Store\"]}]}");
  // Hostile shapes — each must be a clean 4xx/405, never a crash.
  add("/v1/check", "{\"schema\": \"loc\", ");  // 400
  add("/v1/check", "{\"schema\": \"no-such\", \"category\": \"Base\"}");
  add("/v1/nonsense", "{}");  // 404
  add("/v1/check",
      "{\"schema\": \"loc\", \"category\": \"Base\", \"deadline_ms\": "
      "\"soon\"}");  // mistyped field -> 400
  add("/v1/check", std::string("{\"pad\": \"") +
                       std::string(max_body_bytes + 1024, 'x') +
                       "\"}");  // 413
  SoakShape get;  // GET on the request plane -> 405
  get.raw = true;
  get.raw_bytes = "GET /v1/check HTTP/1.1\r\nHost: x\r\n\r\n";
  shapes.push_back(get);
  SoakShape garbage;  // malformed request line -> 400, connection closed
  garbage.raw = true;
  garbage.raw_bytes = "EXPLODE now\r\n\r\n";
  shapes.push_back(garbage);
  SoakShape truncated;  // promises 100 bytes, delivers 9, hangs up
  truncated.raw = true;
  truncated.expect_no_reply = true;
  truncated.raw_bytes =
      "POST /v1/check HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n"
      "{\"trunc\":";
  shapes.push_back(truncated);
  return shapes;
}

void SoakWorker(int port, const std::vector<SoakShape>& shapes, size_t offset,
                int64_t deadline_us, uint64_t min_requests,
                std::atomic<uint64_t>* global_sent,
                std::atomic<bool>* stop, ClientTally* out) {
  auto now_us = [] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  tools::HttpClient client(port);
  size_t next = offset;
  while (!stop->load(std::memory_order_relaxed) &&
         (now_us() < deadline_us ||
          global_sent->load(std::memory_order_relaxed) < min_requests)) {
    const SoakShape& shape = shapes[next++ % shapes.size()];
    ++out->sent;
    global_sent->fetch_add(1, std::memory_order_relaxed);
    int status = -1;
    std::string body;
    if (shape.raw) {
      if (shape.expect_no_reply) {
        // Truncated POST: hang up mid-body. No response is owed; the
        // server must simply survive (and count a bad request).
        client.SendRaw(shape.raw_bytes);
        client.Close();
        ++out->transport;
        continue;
      }
      if (client.SendRaw(shape.raw_bytes)) {
        status = client.ReadResponse(&body);
      }
      client.Close();
    } else {
      status = client.Post(shape.path, shape.body, &body);
    }
    if (status < 0) {
      ++out->transport;
      client.Close();
      continue;
    }
    ++out->statuses[status];
    static const std::set<int> kAllowed = {200, 400, 404, 405,
                                           408, 413, 500, 503};
    if (kAllowed.count(status) == 0) {
      out->unexpected_statuses.push_back(status);
    }
    if (status == 503) {
      ++out->shed_503;
    } else if (status >= 500) {
      ++out->other_5xx;
    } else if (status >= 400) {
      ++out->other_4xx;
    } else {
      ++out->ok_2xx;
      if (body.find("\"checkpoint\"") != std::string::npos) {
        ++out->checkpoints;
      }
      if (body.find("\"definitive\": false") != std::string::npos) {
        ++out->nondefinitive;
      }
    }
  }
}

bool WriteDaemonReport(const std::string& path, const DaemonSoakConfig& cfg,
                       const ClientTally& tally, int64_t drain_ms,
                       bool drained, uint64_t server_requests,
                       uint64_t server_ok, uint64_t server_errors,
                       uint64_t server_shed, uint64_t server_checkpointed,
                       uint64_t injected,
                       const std::vector<Violation>& violations) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmark\": \"chaos_campaign\",\n");
  std::fprintf(f, "  \"mode\": \"daemon\",\n");
  std::fprintf(f, "  \"probability\": %g,\n  \"client_threads\": %d,\n",
               cfg.prob, cfg.client_threads);
  std::fprintf(f, "  \"requests_sent\": %llu,\n",
               static_cast<unsigned long long>(tally.sent));
  std::fprintf(
      f,
      "  \"client\": {\"ok\": %llu, \"shed\": %llu, \"http_4xx\": %llu, "
      "\"http_5xx\": %llu, \"transport\": %llu, \"checkpoints\": %llu, "
      "\"nondefinitive\": %llu},\n",
      static_cast<unsigned long long>(tally.ok_2xx),
      static_cast<unsigned long long>(tally.shed_503),
      static_cast<unsigned long long>(tally.other_4xx),
      static_cast<unsigned long long>(tally.other_5xx),
      static_cast<unsigned long long>(tally.transport),
      static_cast<unsigned long long>(tally.checkpoints),
      static_cast<unsigned long long>(tally.nondefinitive));
  std::fprintf(
      f,
      "  \"server\": {\"requests\": %llu, \"ok\": %llu, \"errors\": %llu, "
      "\"shed\": %llu, \"checkpointed\": %llu},\n",
      static_cast<unsigned long long>(server_requests),
      static_cast<unsigned long long>(server_ok),
      static_cast<unsigned long long>(server_errors),
      static_cast<unsigned long long>(server_shed),
      static_cast<unsigned long long>(server_checkpointed));
  std::fprintf(f, "  \"statuses\": {");
  bool first = true;
  for (const auto& [code, n] : tally.statuses) {
    std::fprintf(f, "%s\"%d\": %llu", first ? "" : ", ", code,
                 static_cast<unsigned long long>(n));
    first = false;
  }
  std::fprintf(f, "},\n");
  std::fprintf(f, "  \"injected_failures\": %llu,\n",
               static_cast<unsigned long long>(injected));
  std::fprintf(f, "  \"sites\": {\n");
  first = true;
  for (const std::string& site : RegisteredFaultSites()) {
    std::fprintf(f, "%s    \"%s\": {\"probes\": %llu, \"injected\": %llu}",
                 first ? "" : ",\n", obs::JsonEscape(site).c_str(),
                 static_cast<unsigned long long>(
                     FaultInjector::Global().probes(site)),
                 static_cast<unsigned long long>(
                     FaultInjector::Global().failures(site)));
    first = false;
  }
  std::fprintf(f, "\n  },\n");
  std::fprintf(f, "  \"drain_ms\": %lld,\n  \"drained\": %s,\n",
               static_cast<long long>(drain_ms), drained ? "true" : "false");
  WriteViolations(f, violations);
  std::fprintf(f, "  \"invariants_held\": %s\n}\n",
               violations.empty() ? "true" : "false");
  std::fclose(f);
  return true;
}

int RunDaemonSoak(const DaemonSoakConfig& cfg) {
  obs::MetricsRegistry::Global().Enable();
  std::vector<Violation> violations;
  auto violate = [&](const std::string& what) {
    violations.push_back(Violation{"<daemon>", cfg.prob, "service", -1, what});
    std::fprintf(stderr, "VIOLATION [daemon soak]: %s\n", what.c_str());
  };

  // Workloads + the location example, registered before faults arm.
  std::vector<Workload> workloads;
  service::SchemaRegistry registry;
  for (int s = 0; s < cfg.seeds; ++s) {
    Result<Workload> w = MakeWorkload(s);
    if (!w.ok()) {
      std::fprintf(stderr, "workload %d generation failed: %s\n", s,
                   w.status().ToString().c_str());
      return 2;
    }
    workloads.push_back(std::move(w).ValueOrDie());
    Status registered = registry.Register(
        "w" + std::to_string(s), workloads.back().schema_text);
    if (!registered.ok()) {
      std::fprintf(stderr, "register w%d failed: %s\n", s,
                   registered.ToString().c_str());
      return 2;
    }
  }
  {
    Result<DimensionSchema> loc = LocationSchema();
    if (!loc.ok()) return 2;
    registry.RegisterParsed("loc", std::move(*loc));
  }

  // High-water below the server's concurrency so overload shedding
  // genuinely fires under the client fleet.
  exec::AdmissionGate gate(exec::AdmissionGate::Options{2, 25});
  service::DimService::Options service_options;
  service_options.registry = &registry;
  service_options.gate = &gate;
  service_options.default_deadline_ms = 250;
  service_options.max_deadline_ms = 2000;
  service_options.memory_budget_bytes = 16ull << 20;
  service_options.max_threads = 2;
  service_options.max_batch = 16;
  service::DimService service(service_options);

  constexpr size_t kMaxBodyBytes = 128 * 1024;
  obs::HttpServer server;
  obs::HttpServer::Options server_options;
  server_options.max_connections = 4;
  server_options.max_body_bytes = kMaxBodyBytes;
  server_options.read_timeout_ms = 2000;
  server_options.handler = [&](const obs::HttpRequest& request) {
    return service.HandleRequest(request);
  };
  if (!server.Start(server_options)) {
    std::fprintf(stderr, "daemon soak: server start failed: %s\n",
                 server.last_error().c_str());
    return 2;
  }

  // Arm EVERY registered site inside the serving threads.
  const std::vector<std::string> sites = RegisteredFaultSites();
  FaultInjector& injector = FaultInjector::Global();
  injector.Arm(0x50a1c0de);
  const StatusCode rotation[] = {StatusCode::kInternal,
                                 StatusCode::kResourceExhausted,
                                 StatusCode::kDeadlineExceeded};
  for (size_t i = 0; i < sites.size(); ++i) {
    const StatusCode code =
        IsParseSite(sites[i]) ? StatusCode::kParseError : rotation[i % 3];
    injector.SetFault(sites[i], code, cfg.prob, "daemon-soak");
  }
  std::fprintf(stderr,
               "daemon soak: port %d, %zu sites armed at p=%g, %d client "
               "threads, >= %llu requests over >= %lld ms\n",
               server.port(), sites.size(), cfg.prob, cfg.client_threads,
               static_cast<unsigned long long>(cfg.min_requests),
               static_cast<long long>(cfg.duration_ms));

  const std::vector<SoakShape> shapes =
      BuildSoakShapes(workloads, kMaxBodyBytes);
  std::atomic<uint64_t> global_sent{0};
  std::atomic<bool> stop{false};
  std::vector<ClientTally> tallies(
      static_cast<size_t>(cfg.client_threads));
  std::vector<std::thread> clients;
  clients.reserve(tallies.size());
  // Workers run until the stop flag: the drain below fires while the
  // fleet is still hammering, so requests genuinely in flight at
  // BeginDrain() must complete, checkpoint, or shed — never vanish.
  for (size_t t = 0; t < tallies.size(); ++t) {
    clients.emplace_back(SoakWorker, server.port(), std::cref(shapes),
                         t * 3, INT64_MAX, cfg.min_requests, &global_sent,
                         &stop, &tallies[t]);
  }
  const auto load_start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - load_start <
             std::chrono::milliseconds(cfg.duration_ms) ||
         global_sent.load(std::memory_order_relaxed) < cfg.min_requests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Graceful drain under live fire, with the same phased deadline
  // discipline as olapdcd's SIGTERM path: shed, wait, cancel, wait.
  constexpr int64_t kDrainDeadlineMs = 5000;
  const auto drain_start = std::chrono::steady_clock::now();
  server.BeginDrain();
  service.BeginDrain();
  bool drained = server.WaitDrained(kDrainDeadlineMs / 2);
  if (!drained) {
    service.CancelInFlight();
    drained = server.WaitDrained(kDrainDeadlineMs / 2);
  }
  const int64_t drain_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - drain_start)
          .count();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  server.Stop();

  ClientTally tally;
  for (const ClientTally& t : tallies) tally.Merge(t);

  // Invariant: the whole soak actually happened.
  if (tally.sent < cfg.min_requests) {
    violate("sent " + std::to_string(tally.sent) + " < minimum " +
            std::to_string(cfg.min_requests));
  }
  // Invariant: taxonomy-only response statuses.
  if (!tally.unexpected_statuses.empty()) {
    violate("response status outside the taxonomy: " +
            std::to_string(tally.unexpected_statuses.front()) + " (" +
            std::to_string(tally.unexpected_statuses.size()) +
            " occurrences)");
  }
  // Invariant: client-side conservation.
  const uint64_t accounted = tally.ok_2xx + tally.shed_503 +
                             tally.other_4xx + tally.other_5xx +
                             tally.transport;
  if (accounted != tally.sent) {
    violate("client conservation: sent " + std::to_string(tally.sent) +
            " != accounted " + std::to_string(accounted));
  }
  // The soak must exercise the real thing: some requests succeed,
  // overload shedding actually fires (the gate's high-water sits below
  // the client fleet's concurrency), and with every site armed, some
  // injections actually fire.
  if (tally.ok_2xx == 0) violate("no request ever succeeded");
  if (static_cast<int64_t>(cfg.client_threads) >
          gate.options().high_water &&
      tally.shed_503 == 0) {
    violate("admission gate never shed despite oversubscribed clients");
  }
  uint64_t injected = 0;
  for (const std::string& site : sites) injected += injector.failures(site);
  if (cfg.prob > 0 && injected == 0) {
    violate("every site armed but nothing ever injected");
  }
  // Invariant: server-side conservation at quiescence.
  const uint64_t server_total =
      service.ok() + service.errors() + service.shed();
  if (service.requests() != server_total) {
    violate("server conservation: requests " +
            std::to_string(service.requests()) + " != ok+errors+shed " +
            std::to_string(server_total));
  }
  // Invariant: drain completed inside the deadline, gate idle, memory
  // accounting back at zero.
  if (!drained) {
    violate("drain did not complete within " +
            std::to_string(kDrainDeadlineMs) + " ms");
  }
  if (gate.in_flight() != 0) {
    violate("admission gate left " + std::to_string(gate.in_flight()) +
            " in-flight after drain");
  }
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const uint64_t reserved = snapshot.counter("olapdc.mem.reserved_bytes");
  const uint64_t released = snapshot.counter("olapdc.mem.released_bytes");
  if (reserved != released) {
    violate("reserved_bytes (" + std::to_string(reserved) +
            ") != released_bytes (" + std::to_string(released) +
            ") at quiescence");
  }

  const bool wrote = WriteDaemonReport(
      cfg.out_path, cfg, tally, drain_ms, drained, service.requests(),
      service.ok(), service.errors(), service.shed(), service.checkpointed(),
      injected, violations);
  injector.Disarm();
  if (!wrote) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 cfg.out_path.c_str());
    return 2;
  }
  std::fprintf(
      stderr,
      "daemon soak done: %llu sent (%llu ok, %llu shed, %llu 4xx, %llu "
      "5xx, %llu transport), %llu checkpoints, %llu injected, drain %lld "
      "ms, %zu violations -> %s\n",
      static_cast<unsigned long long>(tally.sent),
      static_cast<unsigned long long>(tally.ok_2xx),
      static_cast<unsigned long long>(tally.shed_503),
      static_cast<unsigned long long>(tally.other_4xx),
      static_cast<unsigned long long>(tally.other_5xx),
      static_cast<unsigned long long>(tally.transport),
      static_cast<unsigned long long>(tally.checkpoints),
      static_cast<unsigned long long>(injected),
      static_cast<long long>(drain_ms), violations.size(),
      cfg.out_path.c_str());
  return violations.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Kill-9 crash grid (--crash / --crash-only)
// ---------------------------------------------------------------------------

struct CrashConfig {
  int kills = 200;
  std::string daemon_bin;
  std::string dir = "chaos_crash_tmp";
  int seeds = 2;
  uint64_t seed = 0xC4A5;
};

struct CrashGrid {
  int rounds = 0;
  int sigkills = 0;
  int clean_shutdowns = 0;
  int recoveries = 0;
  int torn_tail_recoveries = 0;
  int crc_drop_recoveries = 0;
  int corruptions_injected = 0;
  int fault_armed_rounds = 0;
  uint64_t warm_probes = 0;
  std::vector<Violation> violations;
};

struct CrashDaemon {
  pid_t pid = -1;
  int out_fd = -1;
  std::string pending;
};

bool SpawnCrashDaemon(const std::string& binary,
                      const std::vector<std::string>& args,
                      CrashDaemon* out) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    // 200 restarts of stderr lifecycle chatter would drown the grid's
    // own reporting; the invariants read stdout only.
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  out->pid = pid;
  out->out_fd = fds[0];
  out->pending.clear();
  return true;
}

/// Next stdout line from the daemon, or false on EOF/deadline.
bool CrashReadLine(CrashDaemon* d,
                   std::chrono::steady_clock::time_point deadline,
                   std::string* line) {
  for (;;) {
    const size_t eol = d->pending.find('\n');
    if (eol != std::string::npos) {
      *line = d->pending.substr(0, eol);
      d->pending.erase(0, eol + 1);
      return true;
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return false;
    struct pollfd pfd;
    pfd.fd = d->out_fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int r = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (r <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(d->out_fd, buf, sizeof(buf));
    if (n <= 0) return false;
    d->pending.append(buf, static_cast<size_t>(n));
  }
}

/// 1/0 for a `"field": true/false` JSON member, -1 when absent.
int ExtractBool(const std::string& body, const std::string& field) {
  const std::string key = "\"" + field + "\": ";
  const size_t pos = body.find(key);
  if (pos == std::string::npos) return -1;
  if (body.compare(pos + key.size(), 4, "true") == 0) return 1;
  if (body.compare(pos + key.size(), 5, "false") == 0) return 0;
  return -1;
}

/// A warm-vs-cold probe: the response `field` must equal `expected`
/// (the unfaulted in-process ground truth) on every restart.
struct CrashProbe {
  std::string path;
  std::string body;
  std::string field;
  bool expected = false;
};

void CrashLoadWorker(int port,
                     const std::vector<std::pair<std::string, std::string>>*
                         shapes,
                     std::atomic<bool>* stop) {
  tools::HttpClient client(port);
  size_t i = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    const auto& [path, body] = (*shapes)[i++ % shapes->size()];
    std::string response;
    if (client.Post(path, body, &response) < 0) client.Close();
  }
}

int RunCrashGrid(const CrashConfig& cfg, CrashGrid* grid) {
  auto violate = [&](int round, const std::string& what) {
    grid->violations.push_back(
        Violation{"<crash>", 0.0, "crash-grid", round, what});
    std::fprintf(stderr, "VIOLATION [crash round %d]: %s\n", round,
                 what.c_str());
  };

  // Scratch dir, schema files, and the ground-truth registry (same
  // schema bytes the daemon will load, so same content epochs).
  ::mkdir(cfg.dir.c_str(), 0755);
  std::vector<std::string> base_args;
  service::SchemaRegistry registry;
  std::vector<Workload> workloads;
  auto add_schema = [&](const std::string& name,
                        const std::string& text) -> bool {
    const std::string path = cfg.dir + "/" + name + ".schema";
    std::ofstream out(path, std::ios::trunc);
    out << text;
    out.close();
    if (out.fail()) {
      std::fprintf(stderr, "crash grid: cannot write %s\n", path.c_str());
      return false;
    }
    base_args.push_back("--schema");
    base_args.push_back(name + "=" + path);
    return registry.Register(name, text).ok();
  };
  for (int s = 0; s < cfg.seeds; ++s) {
    Result<Workload> w = MakeWorkload(s);
    if (!w.ok()) {
      std::fprintf(stderr, "crash grid: workload %d failed: %s\n", s,
                   w.status().ToString().c_str());
      return 2;
    }
    workloads.push_back(std::move(w).ValueOrDie());
    if (!add_schema("w" + std::to_string(s), workloads.back().schema_text)) {
      return 2;
    }
  }
  {
    Result<DimensionSchema> loc = LocationSchema();
    if (!loc.ok() || !add_schema("loc", SerializeSchema(*loc))) return 2;
  }

  // Cold ground truth, computed in-process with no faults and a
  // generous deadline; every later warm answer must match it exactly.
  exec::AdmissionGate gate(exec::AdmissionGate::Options{16, 50});
  service::DimService::Options service_options;
  service_options.registry = &registry;
  service_options.gate = &gate;
  service_options.default_deadline_ms = 20000;
  service_options.max_deadline_ms = 30000;
  service_options.memory_budget_bytes = 64ull << 20;
  service_options.max_threads = 1;
  service_options.max_batch = 16;
  service::DimService truth_service(service_options);
  std::vector<CrashProbe> probes;
  auto add_probe = [&](const char* path, std::string body,
                       const char* field) -> bool {
    obs::HttpRequest request;
    request.method = "POST";
    request.path = path;
    request.body = body;
    const obs::HttpResponse response = truth_service.HandleRequest(request);
    const int v = ExtractBool(response.body, field);
    if (response.status != 200 ||
        ExtractBool(response.body, "definitive") != 1 || v < 0) {
      std::fprintf(stderr,
                   "crash grid: ground truth for %s failed (status %d)\n",
                   path, response.status);
      return false;
    }
    probes.push_back(CrashProbe{path, std::move(body), field, v == 1});
    return true;
  };
  for (size_t k = 0; k < workloads.size(); ++k) {
    if (!add_probe("/v1/check",
                   "{\"schema\": \"w" + std::to_string(k) +
                       "\", \"category\": \"Base\", \"deadline_ms\": 20000}",
                   "satisfiable")) {
      return 2;
    }
  }
  if (!add_probe("/v1/implies",
                 "{\"schema\": \"loc\", \"constraint\": \"Store/City\"}",
                 "implied") ||
      !add_probe("/v1/summarizable",
                 "{\"schema\": \"loc\", \"category\": \"Country\", "
                 "\"sources\": [\"Store\"]}",
                 "summarizable")) {
    return 2;
  }

  // The hammer mix: the probes plus short- and 1ms-deadline checks
  // (checkpoints, no-good learning) so kills land mid-reasoning and
  // mid-snapshot with real cache state on the line.
  std::vector<std::pair<std::string, std::string>> load_shapes;
  for (const CrashProbe& p : probes) load_shapes.emplace_back(p.path, p.body);
  for (size_t k = 0; k < workloads.size(); ++k) {
    const std::string name = "w" + std::to_string(k);
    load_shapes.emplace_back(
        "/v1/check", "{\"schema\": \"" + name +
                         "\", \"category\": \"Base\", \"deadline_ms\": 150}");
    load_shapes.emplace_back(
        "/v1/check", "{\"schema\": \"" + name +
                         "\", \"category\": \"Base\", \"deadline_ms\": 1}");
  }

  const std::string snap = cfg.dir + "/snap";
  ::unlink(snap.c_str());
  ::unlink((snap + ".tmp").c_str());
  base_args.insert(base_args.end(),
                   {"--port", "0", "--snapshot-file", snap,
                    "--snapshot-interval-ms", "10", "--cache-budget-mb", "8",
                    "--request-deadline-ms", "20000", "--max-deadline-ms",
                    "30000", "--drain-timeout-ms", "4000"});

  std::mt19937_64 rng(cfg.seed);
  int64_t last_clean_nogoods = -1;
  bool ever_salvaged = false;

  for (int round = 0; round < cfg.kills; ++round) {
    const bool fault_round = round % 7 == 3;
    // Every 8th round ends in a graceful SIGTERM instead of SIGKILL —
    // the monotonicity anchor: what that drain reports saved, the very
    // next startup must recover.
    const bool clean_round = round % 8 == 5;
    // Harness-side corruption: bit-flip or torn-truncate the snapshot
    // before restart (never between a clean save and its monotonicity
    // check — corruption legitimately loses records).
    if (last_clean_nogoods < 0 && round % 4 == 2) {
      std::fstream file(snap,
                        std::ios::binary | std::ios::in | std::ios::out);
      file.seekg(0, std::ios::end);
      const int64_t size = file.tellg();
      if (file && size > 0) {
        const uint64_t offset = rng() % static_cast<uint64_t>(size);
        if (rng() % 2 == 0) {
          file.seekg(static_cast<std::streamoff>(offset));
          char byte = 0;
          file.read(&byte, 1);
          byte = static_cast<char>(byte ^ 0x40);
          file.seekp(static_cast<std::streamoff>(offset));
          file.write(&byte, 1);
          file.close();
        } else {
          file.close();
          if (::truncate(snap.c_str(), static_cast<off_t>(offset)) != 0) {
            // Removal also models a lost file; recovery must cope.
            ::unlink(snap.c_str());
          }
        }
        ++grid->corruptions_injected;
      }
    }

    std::vector<std::string> args = base_args;
    if (fault_round) {
      // Injected write/fsync/rename failures *inside* the snapshot
      // plane: periodic snapshots fail and retry, and the durable-file
      // contract (temp unlinked, previous snapshot intact) is what
      // keeps the next recovery working.
      args.insert(args.end(),
                  {"--fault-site", "durable.write", "--fault-site",
                   "durable.fsync", "--fault-site", "durable.rename",
                   "--fault-prob", "0.25", "--fault-seed",
                   std::to_string(round + 1)});
      ++grid->fault_armed_rounds;
    }

    CrashDaemon daemon;
    if (!SpawnCrashDaemon(cfg.daemon_bin, args, &daemon)) {
      std::fprintf(stderr, "crash grid: cannot spawn %s\n",
                   cfg.daemon_bin.c_str());
      return 2;
    }
    // Invariant A: startup always reaches "listening", whatever state
    // the previous round left the snapshot in.
    int port = 0;
    bool recovered = false;
    unsigned long long r_seq = 0, r_nogoods = 0, r_torn = 0, r_crc = 0;
    {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      std::string line;
      while (port == 0 && CrashReadLine(&daemon, deadline, &line)) {
        if (std::sscanf(line.c_str(),
                        "olapdcd recovered snapshot seq=%llu nogoods=%llu "
                        "torn=%llu crc_drops=%llu",
                        &r_seq, &r_nogoods, &r_torn, &r_crc) == 4) {
          recovered = true;
        }
        std::sscanf(line.c_str(), "olapdcd listening on port %d", &port);
      }
    }
    if (port == 0) {
      violate(round,
              "daemon failed to reach 'listening' after restart — startup "
              "died on the recovered snapshot");
      ::kill(daemon.pid, SIGKILL);
      ::waitpid(daemon.pid, nullptr, 0);
      ::close(daemon.out_fd);
      ++grid->rounds;
      break;  // every later round would re-report the same broken state
    }
    if (recovered) {
      ++grid->recoveries;
      grid->torn_tail_recoveries += static_cast<int>(r_torn);
      grid->crc_drop_recoveries += static_cast<int>(r_crc);
      if (r_torn > 0 || r_crc > 0) ever_salvaged = true;
      // Invariant C: learned pruning never goes backwards across a
      // clean restart.
      if (last_clean_nogoods >= 0 &&
          static_cast<int64_t>(r_nogoods) < last_clean_nogoods) {
        violate(round, "no-good count went backwards across a clean "
                       "restart: saved " +
                           std::to_string(last_clean_nogoods) +
                           ", recovered " + std::to_string(r_nogoods));
      }
    } else if (last_clean_nogoods >= 0) {
      violate(round, "clean shutdown saved a snapshot but the next "
                     "startup recovered nothing");
    }
    last_clean_nogoods = -1;

    // Invariant B: warm answers equal the cold ground truth.
    {
      tools::HttpClient client(port);
      for (const CrashProbe& probe : probes) {
        std::string body;
        const int status = client.Post(probe.path, probe.body, &body);
        ++grid->warm_probes;
        if (status != 200) {
          violate(round, "probe " + probe.path + " returned status " +
                             std::to_string(status) + " after restart");
          client.Close();
          continue;
        }
        if (ExtractBool(body, "definitive") != 1) {
          violate(round, "probe " + probe.path +
                             " not definitive despite a 20s deadline");
          continue;
        }
        const int v = ExtractBool(body, probe.field);
        if (v != (probe.expected ? 1 : 0)) {
          violate(round, "warm answer diverged from cold recomputation: " +
                             probe.path + " " + probe.field + " = " +
                             std::to_string(v) + ", expected " +
                             std::to_string(probe.expected ? 1 : 0));
        }
      }
    }

    // Load, then kill at a randomized point (snapshots rewrite every
    // 10ms, so kills land before, during, and after durable writes).
    std::atomic<bool> stop{false};
    std::thread hammer(CrashLoadWorker, port, &load_shapes, &stop);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(3 + static_cast<int>(rng() % 120)));
    if (clean_round) {
      stop.store(true, std::memory_order_relaxed);
      hammer.join();
      ::kill(daemon.pid, SIGTERM);
      unsigned long long s_seq = 0, s_nogoods = 0;
      bool saved = false;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      std::string line;
      while (CrashReadLine(&daemon, deadline, &line)) {
        if (std::sscanf(line.c_str(),
                        "olapdcd snapshot saved seq=%llu nogoods=%llu",
                        &s_seq, &s_nogoods) == 2) {
          saved = true;
        }
      }
      int wstatus = 0;
      ::waitpid(daemon.pid, &wstatus, 0);
      const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 128;
      if (code != 0) {
        violate(round,
                "graceful shutdown exited " + std::to_string(code));
      }
      if (saved) {
        last_clean_nogoods = static_cast<int64_t>(s_nogoods);
      } else {
        violate(round, "graceful shutdown never reported a saved snapshot");
      }
      ++grid->clean_shutdowns;
    } else {
      ::kill(daemon.pid, SIGKILL);
      stop.store(true, std::memory_order_relaxed);
      hammer.join();
      ::waitpid(daemon.pid, nullptr, 0);
      ++grid->sigkills;
    }
    ::close(daemon.out_fd);
    ++grid->rounds;
  }

  // A grid that never salvaged a torn/corrupt snapshot never tested
  // recovery — the corruption rounds above make that overwhelmingly
  // unlikely on a real grid, so silence means the plumbing is broken.
  if (cfg.kills >= 50 && !ever_salvaged) {
    violate(-1, "grid never observed a torn/CRC salvage — recovery was "
                "not exercised");
  }
  std::fprintf(stderr,
               "crash grid done: %d rounds (%d SIGKILL, %d clean), %d "
               "recoveries (%d torn, %d crc), %d corruptions, %d fault "
               "rounds, %llu warm probes, %zu violations\n",
               grid->rounds, grid->sigkills, grid->clean_shutdowns,
               grid->recoveries, grid->torn_tail_recoveries,
               grid->crc_drop_recoveries, grid->corruptions_injected,
               grid->fault_armed_rounds,
               static_cast<unsigned long long>(grid->warm_probes),
               grid->violations.size());
  return 0;
}

std::string CrashGridJson(const CrashGrid& grid) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"rounds\": %d, \"sigkills\": %d, \"clean_shutdowns\": %d, "
      "\"recoveries\": %d, \"torn_tail_recoveries\": %d, "
      "\"crc_drop_recoveries\": %d, \"corruptions_injected\": %d, "
      "\"fault_armed_rounds\": %d, \"warm_probes\": %llu, "
      "\"invariants_held\": %s}",
      grid.rounds, grid.sigkills, grid.clean_shutdowns, grid.recoveries,
      grid.torn_tail_recoveries, grid.crc_drop_recoveries,
      grid.corruptions_injected, grid.fault_armed_rounds,
      static_cast<unsigned long long>(grid.warm_probes),
      grid.violations.empty() ? "true" : "false");
  return buf;
}

bool WriteCrashReport(const std::string& path, const CrashGrid& grid) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"benchmark\": \"chaos_campaign\",\n");
  std::fprintf(f, "  \"mode\": \"crash\",\n");
  std::fprintf(f, "  \"crash_grid\": %s,\n", CrashGridJson(grid).c_str());
  WriteViolations(f, grid.violations);
  std::fprintf(f, "  \"invariants_held\": %s\n}\n",
               grid.violations.empty() ? "true" : "false");
  std::fclose(f);
  return true;
}

int Main(int argc, char** argv) {
  int runs_per_cell = 11;
  int seeds = 6;
  bool quick = false;
  bool daemon = false;
  bool crash = false;
  bool crash_only = false;
  DaemonSoakConfig daemon_cfg;
  CrashConfig crash_cfg;
  int crash_kills = -1;  // <0: mode default (200 full, 10 quick)
  bool out_path_set = false;
  std::string out_path = "BENCH_robustness.json";
  int64_t n = 0;  // the numeric flag just parsed
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    auto numeric = [&](int64_t min, int64_t max) {
      return tools::ParseInt64Flag(arg.c_str(), value(), min, max, &n);
    };
    if (arg == "--runs-per-cell") {
      if (!numeric(1, 1 << 20)) return 2;
      runs_per_cell = static_cast<int>(n);
    } else if (arg == "--seeds") {
      if (!numeric(1, 1 << 20)) return 2;
      seeds = static_cast<int>(n);
    } else if (arg == "--out") {
      out_path = value();
      out_path_set = true;
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--daemon") {
      daemon = true;
    } else if (arg == "--daemon-duration-ms") {
      if (!numeric(1, tools::kMaxMsFlag)) return 2;
      daemon_cfg.duration_ms = n;
    } else if (arg == "--daemon-min-requests") {
      if (!numeric(0, int64_t{1} << 40)) return 2;
      daemon_cfg.min_requests = static_cast<uint64_t>(n);
    } else if (arg == "--daemon-prob") {
      if (!tools::ParseDoubleFlag("--daemon-prob", value(), 0.0, 1.0,
                                  &daemon_cfg.prob)) {
        return 2;
      }
    } else if (arg == "--daemon-threads") {
      if (!numeric(1, exec::kMaxThreads)) return 2;
      daemon_cfg.client_threads = static_cast<int>(n);
    } else if (arg == "--crash") {
      crash = true;
    } else if (arg == "--crash-only") {
      crash = true;
      crash_only = true;
    } else if (arg == "--crash-kills") {
      if (!numeric(1, 1 << 20)) return 2;
      crash_kills = static_cast<int>(n);
    } else if (arg == "--crash-daemon-bin") {
      crash_cfg.daemon_bin = value();
    } else if (arg == "--crash-dir") {
      crash_cfg.dir = value();
    } else {
      std::fprintf(stderr,
                   "usage: chaos_campaign [--runs-per-cell n] [--seeds n] "
                   "[--out path] [--quick] [--daemon "
                   "[--daemon-duration-ms n] [--daemon-min-requests n] "
                   "[--daemon-prob p] [--daemon-threads n]] "
                   "[--crash | --crash-only] [--crash-kills n] "
                   "[--crash-daemon-bin path] [--crash-dir path]\n");
      return 2;
    }
  }
  if (crash) {
    crash_cfg.kills = crash_kills > 0 ? crash_kills : (quick ? 10 : 200);
    if (crash_cfg.daemon_bin.empty()) {
      // Default: the olapdcd built next to this binary.
      std::string self = argv[0];
      const size_t slash = self.find_last_of('/');
      crash_cfg.daemon_bin =
          (slash == std::string::npos ? std::string(".")
                                      : self.substr(0, slash)) +
          "/olapdcd";
    }
    if (::access(crash_cfg.daemon_bin.c_str(), X_OK) != 0) {
      std::fprintf(stderr, "error: no executable olapdcd at '%s' "
                   "(--crash-daemon-bin)\n",
                   crash_cfg.daemon_bin.c_str());
      return 2;
    }
  }
  if (crash_only) {
    if (!out_path_set) out_path = "chaos_crash_report.json";
    CrashGrid grid;
    const int rc = RunCrashGrid(crash_cfg, &grid);
    if (rc != 0) return rc;
    if (!WriteCrashReport(out_path, grid)) {
      std::fprintf(stderr, "error: cannot write report to '%s'\n",
                   out_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "crash grid report -> %s\n", out_path.c_str());
    return grid.violations.empty() ? 0 : 1;
  }
  if (daemon) {
    daemon_cfg.seeds = seeds == 6 ? 3 : seeds;
    if (out_path_set) daemon_cfg.out_path = out_path;
    return RunDaemonSoak(daemon_cfg);
  }
  if (quick) {
    runs_per_cell = 4;  // one run of every request shape
    seeds = 2;
  }

  obs::MetricsRegistry::Global().Enable();

  // Ground truth first, with the injector disarmed.
  std::vector<Workload> workloads;
  for (int s = 0; s < seeds; ++s) {
    Result<Workload> w = MakeWorkload(s);
    if (!w.ok()) {
      std::fprintf(stderr, "workload %d generation failed: %s\n", s,
                   w.status().ToString().c_str());
      return 2;
    }
    workloads.push_back(std::move(w).ValueOrDie());
  }

  const std::vector<std::string> sites = RegisteredFaultSites();
  std::vector<double> probabilities(std::begin(kProbabilities),
                                    std::end(kProbabilities));
  std::vector<BudgetConfig> budgets(std::begin(kBudgetConfigs),
                                    std::end(kBudgetConfigs));
  if (quick) {
    probabilities = {0.5};
    budgets = {kBudgetConfigs[0], kBudgetConfigs[2]};
  }

  std::fprintf(stderr,
               "chaos campaign: %zu sites x %zu probabilities x %zu budgets "
               "x %d runs\n",
               sites.size(), probabilities.size(), budgets.size(),
               runs_per_cell);

  exec::WorkStealingPool pool(2);
  Campaign campaign;
  const StatusCode rotation[] = {StatusCode::kInternal,
                                 StatusCode::kResourceExhausted,
                                 StatusCode::kDeadlineExceeded};

  for (const std::string& site : sites) {
    // Probes and injections over the site's p >= 0.5 cells, for the
    // dead-site check after its sweep.
    uint64_t hot_probes = 0;
    uint64_t hot_failures = 0;
    for (double prob : probabilities) {
      for (const BudgetConfig& bc : budgets) {
        ++campaign.total_cells;
        FaultInjector& injector = FaultInjector::Global();
        const uint64_t cell_seed = campaign.total_cells * 2654435761ull;

        uint64_t cell_failures = 0;
        for (int run = 0; run < runs_per_cell; ++run) {
          const Workload& w = workloads[run % workloads.size()];
          const StatusCode injected =
              IsParseSite(site) ? StatusCode::kParseError
                                : rotation[run % 3];
          // Each run draws from its own stream: the injector seeds a
          // site's stream from (seed, site), so re-arming every run
          // with the cell's seed would replay one draw sequence, and a
          // site probed once per run would fail on all runs or none.
          // SetFault resets the site's counters, so per-run deltas are
          // accumulated before the next run reconfigures it.
          injector.Arm(cell_seed + static_cast<uint64_t>(run) *
                                       0x9E3779B97F4A7C15ull);
          injector.SetFault(site, injected, prob, "chaos");

          // Per-run budget; memory budgets are sticky-once-exhausted,
          // so each run gets a fresh one.
          std::optional<MemoryBudget> mem;
          Budget budget = Budget::Unbounded();
          if (bc.deadline_ms >= 0) {
            budget.SetDeadline(Budget::Clock::now() +
                               std::chrono::milliseconds(bc.deadline_ms));
          }
          if (bc.memory_bytes > 0) {
            mem.emplace(bc.memory_bytes);
            budget.SetMemory(&*mem);
          }
          DimsatOptions options;
          options.enumerate_all = true;
          options.max_frozen = 64;
          options.budget_check_stride = 16;
          if (!budget.unbounded()) options.budget = &budget;
          if (bc.max_expand_calls > 0) {
            options.max_expand_calls = bc.max_expand_calls;
          }

          RunOutcome outcome;
          switch (run % 4) {
            case 0:
              outcome = RunSequentialWithResume(w, options);
              break;
            case 1:
              outcome = RunParallel(w, options, &pool);
              break;
            case 2:
              outcome = RunNestedParallel(w, options, &pool);
              break;
            default:
              outcome = RunParseBoundary(w, options.budget);
              break;
          }
          ++campaign.total_runs;
          ++campaign.runs_per_site[site];

          auto violate = [&](const std::string& what) {
            campaign.violations.push_back(
                Violation{site, prob, bc.name, run, what});
            std::fprintf(stderr, "VIOLATION [%s p=%g %s run %d]: %s\n",
                         site.c_str(), prob, bc.name, run, what.c_str());
          };

          // Invariant 2: taxonomy-only failure codes.
          const StatusCode code = outcome.status.code();
          const bool taxonomy_ok =
              code == StatusCode::kOk || code == injected ||
              code == StatusCode::kResourceExhausted ||
              code == StatusCode::kDeadlineExceeded ||
              code == StatusCode::kCancelled;
          if (!taxonomy_ok) {
            violate("unclassified status: " + outcome.status.ToString());
          }
          if (!outcome.status.ok()) ++campaign.degraded;

          // Invariants 3+4: witnesses are genuine and confirmed by the
          // unfaulted baseline.
          if (outcome.reported_satisfiable) {
            ++campaign.reported_sat;
            if (!w.satisfiable) {
              violate("faulted run reported SATISFIABLE on an " +
                      std::string("unsatisfiable workload"));
            }
          }
          for (const FrozenDimension& f : outcome.frozen) {
            Status valid = f.ToInstance(w.ds).status();
            if (!valid.ok()) {
              violate("invalid witness: " + valid.ToString());
              break;
            }
          }

          // Invariant 5: the request released everything it held.
          if (mem.has_value() && mem->reserved() != 0) {
            violate("memory accounting leaked " +
                    std::to_string(mem->reserved()) + " bytes");
          }
          if (prob >= 0.5) hot_probes += injector.probes(site);
          cell_failures += injector.failures(site);
        }

        campaign.injected_failures += cell_failures;
        campaign.failures_per_site[site] += cell_failures;
        if (prob >= 0.5) hot_failures += cell_failures;
        injector.Disarm();
      }
    }
    // High-probability cells over real probe traffic must actually
    // inject — a silent dead site means the sweep isn't sweeping. A
    // site one request shape probes once per run gets only a few
    // probes per cell, so the check counts the site's whole sweep.
    if (hot_probes >= 8 && hot_failures == 0) {
      campaign.violations.push_back(Violation{
          site, 0.5, "<all>", -1,
          "site probed " + std::to_string(hot_probes) +
              " times at p >= 0.5 but injected nothing"});
    }
  }

  // Invariant 6: campaign-wide metrics consistency at quiescence.
  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const uint64_t reserved = snapshot.counter("olapdc.mem.reserved_bytes");
  const uint64_t released = snapshot.counter("olapdc.mem.released_bytes");
  if (reserved != released) {
    campaign.violations.push_back(
        Violation{"<metrics>", 0, "<all>", -1,
                  "reserved_bytes (" + std::to_string(reserved) +
                      ") != released_bytes (" + std::to_string(released) +
                      ") at quiescence"});
  }

  // The kill-9 crash grid rides behind the sweep (--crash), embedding
  // its section and folding its violations into the one verdict.
  std::optional<std::string> crash_json;
  if (crash) {
    CrashGrid grid;
    const int rc = RunCrashGrid(crash_cfg, &grid);
    if (rc != 0) return rc;
    crash_json = CrashGridJson(grid);
    for (Violation& v : grid.violations) {
      campaign.violations.push_back(std::move(v));
    }
  }

  if (!WriteReport(out_path, campaign, quick, runs_per_cell, seeds,
                   crash_json ? &*crash_json : nullptr)) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 out_path.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "chaos campaign done: %llu runs, %llu injected failures, "
               "%zu violations -> %s\n",
               static_cast<unsigned long long>(campaign.total_runs),
               static_cast<unsigned long long>(campaign.injected_failures),
               campaign.violations.size(), out_path.c_str());
  return campaign.violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace olapdc

int main(int argc, char** argv) { return olapdc::Main(argc, argv); }
