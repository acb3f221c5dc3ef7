// serve_hot and serve_cold: one process drives olapdcd over loopback
// HTTP in a closed loop on two keep-alive connections (callers wait for
// each reply; two connections are half of a 4-core host).
//
// Untraced run: spawn olapdcd with default flags, time the set-up
// (spawn -> "listening" -> set-up schemas registered -> on serve_hot one
// warm-up pass over the pool) nine times, then measure. Throughput and
// CPU per op are the medians of 15 equal windows of the measured phase
// (their whole-phase values are printed too); latency p50 is over every
// operation of the phase.
// Afterwards the daemon's /varz counters are scraped and conservation is
// checked: requests sent == olapdc.service.requests == ok + errors +
// shed, and olapdc.http.busy_rejects == 0.
//
// Traced run: the same traffic against DimService behind a bench-owned
// handler on an in-process obs::HttpServer wired like olapdcd. A traced
// half records the client round trip and the handler span per request
// (linked by an X-Request-Id header); untraced quarters before and after
// it give the reference throughput for trace.overhead_pct. The mirror
// (mirror.h) then replays every traced request and splits the handler
// span into layers.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "exec/admission.h"
#include "inputs.h"
#include "io/json_parse.h"
#include "mirror.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/telemetry_server.h"
#include "process.h"
#include "service/dim_service.h"
#include "service/schema_registry.h"
#include "service/service_caches.h"
#include "tools/http_client.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using olapdc::tools::HttpClient;

constexpr int kConnections = 2;
constexpr int kSetupRepeats = 9;
/// serve_cold's distinct sessions; the feed replays them renamed (new
/// epochs, identical search) when a run outlasts them.
constexpr size_t kColdSessions = 160;
/// serve_cold's VmHWM grows with the sessions served, so it is read once
/// the measured phase has completed this many operations (about 450
/// sessions, reached in under half of a 15 s run), not at the end.
constexpr uint64_t kColdRssOps = 12000;
constexpr int kGroundTruthThreads = 4;
constexpr size_t kSpanCapacity = 200000;
/// The measured phase is cut into this many equal windows. Throughput
/// and CPU per op are the medians of their per-window values, so a
/// burst of load from another tenant of a shared host that covers fewer
/// than half the windows does not move them; the whole-phase values are
/// printed beside them.
constexpr int kWindows = 15;

constexpr Op kOps[] = {Op::kCheck, Op::kImplies, Op::kSummarizable,
                       Op::kBatch, Op::kRegister};

const char* VerdictField(Op op) {
  switch (op) {
    case Op::kCheck: return "satisfiable";
    case Op::kImplies: return "implied";
    default: return "summarizable";
  }
}

bool CheckItem(const olapdc::JsonValue& v, const Question& q,
               std::string* error) {
  const olapdc::JsonValue* definitive = v.is_object() ? v.Find("definitive")
                                                      : nullptr;
  if (definitive == nullptr || !definitive->is_bool() ||
      !definitive->bool_value) {
    *error = std::string(OpName(q.op)) + " answer not definitive";
    return false;
  }
  const olapdc::JsonValue* verdict = v.Find(VerdictField(q.op));
  if (verdict == nullptr || !verdict->is_bool()) {
    *error = std::string(OpName(q.op)) + " answer has no verdict";
    return false;
  }
  if (verdict->bool_value != q.verdict) {
    *error = std::string("wrong ") + OpName(q.op) + " verdict for " +
             QuestionBody(q, false);
    return false;
  }
  return true;
}

/// Full check of one reply against ground truth.
bool CheckResponse(const Request& r, int status, const std::string& body,
                   std::string* error) {
  if (status != 200) {
    *error = std::string(OpPath(r.op)) + " answered " +
             (status < 0 ? "with a transport error"
                         : "status " + std::to_string(status));
    return false;
  }
  olapdc::JsonValue v;
  if (!olapdc::ParseJsonText(body, &v) || !v.is_object()) {
    *error = std::string(OpPath(r.op)) + " reply is not a JSON object";
    return false;
  }
  if (r.op == Op::kRegister) {
    if (v.Find("categories") == nullptr) {
      *error = "registration reply lacks \"categories\"";
      return false;
    }
    return true;
  }
  if (r.op == Op::kBatch) {
    const olapdc::JsonValue* results = v.Find("results");
    if (results == nullptr || !results->is_array() ||
        results->array.size() != r.questions.size()) {
      *error = "batch reply has the wrong number of results";
      return false;
    }
    for (size_t i = 0; i < r.questions.size(); ++i) {
      if (!CheckItem(results->array[i], r.questions[i], error)) return false;
    }
    return true;
  }
  return CheckItem(v, r.questions.at(0), error);
}

/// Per-connection verifier. A reply byte-identical to one already
/// verified for the same request is correct without a second parse —
/// response-cache hits are re-served byte for byte.
class Verifier {
 public:
  bool Check(const Request& r, int status, const std::string& body,
             std::string* error) {
    if (r.op != Op::kRegister && status == 200) {
      auto it = verified_.find(&r);
      if (it != verified_.end() && it->second == body) return true;
    }
    if (!CheckResponse(r, status, body, error)) return false;
    if (r.op != Op::kRegister) verified_[&r] = body;
    return true;
  }

 private:
  std::unordered_map<const Request*, std::string> verified_;
};

/// The request stream of one connection. serve_hot walks the pool in a
/// per-connection seeded order, forever; serve_cold runs sessions
/// conn, conn + kConnections, ... under the schema name "cold<conn>",
/// each registration replacing the connection's previous schema.
class Feed {
 public:
  Feed(const HotPool* pool, uint64_t seed)
      : pool_(pool), order_(pool->schedule) {
    Rng(seed).Shuffle(&order_);
  }
  /// `first_cycle` > 0 gives a feed whose sessions never share an
  /// epoch or a schema name with a feed started at cycle 0.
  Feed(const std::vector<Session>* sessions, int conn, uint64_t first_cycle)
      : sessions_(sessions),
        conn_(conn),
        first_cycle_(first_cycle),
        name_((first_cycle == 0 ? "cold" : "cold-ref") + std::to_string(conn)) {}

  /// Requests handed out stay valid for the feed's lifetime.
  const Request* Next() {
    if (pool_ != nullptr) {
      return &pool_->bodies[order_[next_++ % order_.size()]];
    }
    if (built_.empty() || pos_ == built_.back().size()) {
      const uint64_t global = static_cast<uint64_t>(conn_) +
                              kConnections * sessions_started_++;
      built_.push_back(SessionRequests(
          (*sessions_)[global % sessions_->size()],
          name_, first_cycle_ + global / sessions_->size()));
      pos_ = 0;
    }
    return &built_.back()[pos_++];
  }

  uint64_t sessions_started() const { return sessions_started_; }

 private:
  const HotPool* pool_ = nullptr;
  std::vector<size_t> order_;
  size_t next_ = 0;
  const std::vector<Session>* sessions_ = nullptr;
  int conn_ = 0;
  uint64_t first_cycle_ = 0;
  std::string name_;
  uint64_t sessions_started_ = 0;
  std::deque<std::vector<Request>> built_;
  size_t pos_ = 0;
};

struct TracedRequest {
  const Request* request;
  uint64_t id;
  double rtt_us;
};

struct ConnResult {
  std::vector<float> latency_us;
  std::map<Op, std::vector<float>> op_latency_us;
  uint64_t ops = 0;
  /// Operations completed in each window of the phase.
  std::vector<uint64_t> window_ops = std::vector<uint64_t>(kWindows, 0);
  uint64_t reconnects = 0;
  uint64_t bytes = 0;
  Clock::time_point end;
  std::vector<TracedRequest> traced;
};

/// One POST. Traced requests carry an X-Request-Id header so the
/// handler span can name its client span.
int Send(HttpClient* client, const Request& r, uint64_t request_id,
         std::string* body) {
  if (request_id == 0) return client->Post(OpPath(r.op), r.body, body);
  const std::string raw =
      std::string("POST ") + OpPath(r.op) +
      " HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n"
      "X-Request-Id: " +
      std::to_string(request_id) +
      "\r\nContent-Length: " + std::to_string(r.body.size()) + "\r\n\r\n" +
      r.body;
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (client->SendRaw(raw)) return client->ReadResponse(body);
    client->Close();
  }
  return -1;
}

/// Reads the daemon's VmHWM when the phase completes its `at_ops`-th
/// operation, so the figure belongs to a fixed amount of traffic.
struct RssProbe {
  pid_t pid = -1;
  uint64_t at_ops = 0;
  std::atomic<uint64_t> done{0};
  /// Written by the connection that completes operation `at_ops`.
  double kb = -1;

  void Completed() {
    if (done.fetch_add(1) + 1 == at_ops) kb = ProcPeakRssKb(pid);
  }
};

/// Closed loop on one connection from `start` until `deadline`.
void RunConnection(int port, Feed* feed, Clock::time_point start,
                   Clock::time_point deadline, SpanLog* log, RssProbe* probe,
                   ConnResult* out, Outcome* outcome) {
  const Clock::duration window = (deadline - start) / kWindows;
  HttpClient client(port);
  Verifier verifier;
  std::string body, error;
  bool first = true;
  uint64_t attempted = 0;
  while (Clock::now() < deadline) {
    const Request* r = feed->Next();
    if (!client.connected() && !first) ++out->reconnects;
    first = false;
    const uint64_t id = log != nullptr ? log->NextId() : 0;
    const auto t0 = Clock::now();
    const int status = Send(&client, *r, id, &body);
    const auto t1 = Clock::now();
    const double us = MicrosBetween(t0, t1);
    ++attempted;
    ++out->ops;
    // An operation sent before the deadline and completed after it
    // counts in the last window.
    ++out->window_ops[std::min<int64_t>((t1 - start) / window, kWindows - 1)];
    out->bytes += r->body.size() + body.size();
    out->latency_us.push_back(static_cast<float>(us));
    out->op_latency_us[r->op].push_back(static_cast<float>(us));
    if (probe != nullptr) probe->Completed();
    if (!verifier.Check(*r, status, body, &error)) outcome->Fail(error);
    if (log != nullptr) {
      log->Record("client.request", id, 0, id, 0, t0, t1);
      out->traced.push_back(TracedRequest{r, id, us});
    }
  }
  outcome->Attempt(attempted);
  out->end = Clock::now();
}

struct Phase {
  std::vector<ConnResult> conns;
  double wall_us = 0;
  uint64_t ops = 0;
  /// Per window: operations per second and, when measured, the daemon's
  /// CPU time per operation (us).
  std::vector<double> window_ops_s, window_cpu_us_per_op;
  /// The daemon's CPU time (us) over the phase, when measured.
  double daemon_cpu_us = -1;
  /// The daemon's VmHWM (KiB) and the operations completed when it was
  /// read, when measured.
  double peak_rss_kb = -1;
  uint64_t peak_rss_ops = 0;
  double throughput() const { return ops / (wall_us / 1e6); }
};

/// Runs the closed loop for `seconds`. When `daemon_pid` is positive it
/// also measures that process's CPU time over the phase and each window,
/// and its VmHWM once `rss_at_ops` operations have completed (0: at the
/// end).
Phase RunPhase(int port, std::vector<Feed>* feeds, double seconds,
               SpanLog* log, Outcome* outcome, pid_t daemon_pid = -1,
               uint64_t rss_at_ops = 0) {
  Phase phase;
  phase.conns.resize(feeds->size());
  RssProbe probe;
  probe.pid = daemon_pid;
  probe.at_ops = rss_at_ops;
  RssProbe* active_probe =
      daemon_pid > 0 && rss_at_ops > 0 ? &probe : nullptr;
  const double cpu_before = daemon_pid > 0 ? ProcCpuUs(daemon_pid) : 0;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  const Clock::duration window = (deadline - start) / kWindows;
  std::vector<std::thread> threads;
  for (size_t k = 0; k < feeds->size(); ++k) {
    threads.emplace_back(RunConnection, port, &(*feeds)[k], start, deadline,
                         log, active_probe, &phase.conns[k], outcome);
  }
  std::vector<double> cpu_at = {cpu_before};  // at each window boundary
  for (int w = 1; w <= kWindows; ++w) {
    std::this_thread::sleep_until(start + w * window);
    if (daemon_pid > 0) cpu_at.push_back(ProcCpuUs(daemon_pid));
  }
  for (std::thread& t : threads) t.join();
  Clock::time_point end = start;
  for (const ConnResult& c : phase.conns) {
    end = std::max(end, c.end);
    phase.ops += c.ops;
  }
  phase.wall_us = MicrosBetween(start, end);
  const double window_s = std::chrono::duration<double>(window).count();
  for (int w = 0; w < kWindows; ++w) {
    uint64_t ops = 0;
    for (const ConnResult& c : phase.conns) ops += c.window_ops[w];
    phase.window_ops_s.push_back(ops / window_s);
    if (daemon_pid > 0 && ops > 0) {
      phase.window_cpu_us_per_op.push_back((cpu_at[w + 1] - cpu_at[w]) / ops);
    }
  }
  if (daemon_pid > 0) {
    phase.daemon_cpu_us = ProcCpuUs(daemon_pid) - cpu_before;
    phase.peak_rss_kb = probe.kb;
    phase.peak_rss_ops = rss_at_ops;
    if (phase.peak_rss_kb < 0) {
      phase.peak_rss_kb = ProcPeakRssKb(daemon_pid);
      phase.peak_rss_ops = phase.ops;
    }
  }
  return phase;
}

/// Sends `requests` once, in order, on one connection, checking each
/// reply (set-up registrations and the warm-up pass).
void SendAll(int port, const std::vector<Request>& requests,
             Outcome* outcome) {
  HttpClient client(port);
  std::string body, error;
  for (const Request& r : requests) {
    const int status = client.Post(OpPath(r.op), r.body, &body);
    outcome->Attempt();
    if (!CheckResponse(r, status, body, &error)) outcome->Fail(error);
  }
}

struct Varz {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double Gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }
};

bool ScrapeVarz(int port, Varz* out) {
  HttpClient client(port);
  std::string body;
  if (!client.SendRaw("GET /varz HTTP/1.1\r\nHost: localhost\r\n\r\n")) {
    return false;
  }
  if (client.ReadResponse(&body) != 200) return false;
  olapdc::JsonValue v;
  if (!olapdc::ParseJsonText(body, &v) || !v.is_object()) return false;
  for (const char* section : {"counters", "gauges"}) {
    const olapdc::JsonValue* values = v.Find(section);
    if (values == nullptr || !values->is_object()) continue;
    for (const auto& [name, value] : values->object) {
      if (!value.is_number()) continue;
      (section[0] == 'c' ? out->counters : out->gauges)[name] =
          value.number_value;
    }
  }
  return true;
}

/// The conservation invariant after a run on one daemon.
void CheckConservation(const Varz& varz, uint64_t sent, Report* report,
                       Outcome* outcome) {
  const double requests = varz.Counter("olapdc.service.requests");
  const double accounted = varz.Counter("olapdc.service.ok") +
                           varz.Counter("olapdc.service.errors") +
                           varz.Counter("olapdc.service.shed");
  const double busy = varz.Counter("olapdc.http.busy_rejects");
  const bool held = requests == static_cast<double>(sent) &&
                    requests == accounted && busy == 0;
  report->Add("service.conservation", held ? 1 : 0, "count", sent);
  if (!held) {
    outcome->Fail("conservation violated: sent " + std::to_string(sent) +
                  ", olapdc.service.requests " + std::to_string(requests) +
                  ", ok+errors+shed " + std::to_string(accounted) +
                  ", busy_rejects " + std::to_string(busy));
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The count metrics of a phase, from the daemon's olapdc.* counters.
/// Counts that grow with the traffic are per operation or per thousand;
/// busy rejects and timeouts are anomalies that stay 0.
void AddCounterMetrics(const Varz& before, const Varz& after, uint64_t ops,
                       Report* report) {
  auto delta = [&](const char* name) {
    return after.Counter(name) - before.Counter(name);
  };
  const double n = static_cast<double>(ops);
  report->Add("http.busy_rejects", after.Counter("olapdc.http.busy_rejects"),
              "count", ops);
  report->Add("http.timeouts", after.Counter("olapdc.http.timeouts"), "count",
              ops);
  report->Add("service.shed_per_kreq",
              Ratio(1000 * delta("olapdc.service.shed"), n), "count", ops);
  report->Add("registry.invalidations_per_kreq",
              Ratio(1000 * delta("olapdc.cache.invalidations"), n), "count",
              ops);
  for (const char* layer : {"constraint", "closure", "nogood"}) {
    const std::string prefix = std::string("olapdc.cache.") + layer;
    const double hits = delta((prefix + ".hits").c_str());
    const double misses = delta((prefix + ".misses").c_str());
    const std::string name =
        std::string("cache.") +
        (std::string(layer) == "constraint" ? "response" : layer) +
        ".hit_ratio";
    report->Add(name, Ratio(hits, hits + misses), "ratio",
                static_cast<uint64_t>(hits + misses));
  }
  report->Add("cache.evictions_per_kreq",
              Ratio(1000 * delta("olapdc.cache.evictions"), n), "count", ops);
  report->Add("cache.bytes",
              after.Gauge("olapdc.cache.constraint.bytes") +
                  after.Gauge("olapdc.cache.closure.bytes") +
                  after.Gauge("olapdc.cache.nogood.bytes"),
              "bytes", ops);
  const double checks = delta("olapdc.dimsat.check_calls");
  report->Add("dimsat.expand_per_op",
              Ratio(delta("olapdc.dimsat.nodes_expanded"), n), "count", ops);
  report->Add("dimsat.check_per_op", Ratio(checks, n), "count", ops);
  report->Add("dimsat.assignments_per_op",
              Ratio(delta("olapdc.dimsat.assignments_tried"), n), "count",
              ops);
  report->Add("dimsat.nogood_prunes_per_op",
              Ratio(delta("olapdc.dimsat.prune.nogood"), n), "count", ops);
  report->Add("dimsat.check_yield",
              Ratio(delta("olapdc.dimsat.frozen_found"), checks), "ratio",
              static_cast<uint64_t>(checks));
  report->Add("dimsat.decomposed_runs_per_op",
              Ratio(delta("olapdc.dimsat.decomposed_runs"), n), "count", ops);
  report->Add("exec.tasks_per_op",
              Ratio(delta("olapdc.exec.tasks_executed"), n), "count", ops);
  report->Add("exec.steals_per_op", Ratio(delta("olapdc.exec.steals"), n),
              "count", ops);
  const double steals = delta("olapdc.exec.steals");
  report->Add("exec.steal_success_ratio",
              Ratio(steals, steals + delta("olapdc.exec.steal_failures")),
              "ratio", ops);
}

/// Client-side transport counts of a phase.
void AddClientMetrics(const Phase& phase, Report* report) {
  uint64_t reconnects = 0, bytes = 0;
  for (const ConnResult& c : phase.conns) {
    reconnects += c.reconnects;
    bytes += c.bytes;
  }
  report->Add("http.reconnects_per_kreq",
              Ratio(1000.0 * reconnects, phase.ops), "count", phase.ops);
  report->Add("http.bytes_per_req", Ratio(bytes, phase.ops), "bytes",
              phase.ops);
}

/// The end-to-end metrics of a phase: throughput and CPU per op as the
/// median window (and over the whole phase, printed only), latencies
/// over every operation.
void AddLatencyMetrics(const Phase& phase, Report* report) {
  std::vector<double> all;
  std::map<Op, std::vector<double>> per_op;
  for (const ConnResult& c : phase.conns) {
    all.insert(all.end(), c.latency_us.begin(), c.latency_us.end());
    for (const auto& [op, v] : c.op_latency_us) {
      per_op[op].insert(per_op[op].end(), v.begin(), v.end());
    }
  }
  report->Add("throughput_ops_s", Percentile(phase.window_ops_s, 0.5),
              "ops/s", phase.ops);
  report->Add("throughput_whole_phase_ops_s", phase.throughput(), "ops/s",
              phase.ops);
  report->Add("latency_p50_us", Percentile(all, 0.5), "us", all.size());
  report->Add("latency_p99_us", Percentile(all, 0.99), "us", all.size());
  if (phase.daemon_cpu_us >= 0) {
    report->Add("cpu_us_per_op", Percentile(phase.window_cpu_us_per_op, 0.5),
                "us", phase.ops);
    report->Add("cpu_us_per_op_whole_phase",
                Ratio(phase.daemon_cpu_us, phase.ops), "us", phase.ops);
  }
  if (phase.peak_rss_kb >= 0) {
    report->Add("peak_rss_mb", phase.peak_rss_kb / 1024.0, "MiB",
                phase.peak_rss_ops);
  }
  for (Op op : kOps) {
    auto it = per_op.find(op);
    if (it == per_op.end()) continue;
    const std::string name =
        std::string(op == Op::kRegister ? "register" : OpName(op)) + "_p50_us";
    report->Add(name, Percentile(it->second, 0.50), "us", it->second.size());
  }
}

struct Inputs {
  std::vector<Request> setup;
  HotPool pool;                    // serve_hot
  std::vector<Session> sessions;   // serve_cold
  bool hot = true;

  std::vector<Feed> MakeFeeds(uint64_t seed, uint64_t first_cycle = 0) const {
    std::vector<Feed> feeds;
    for (int k = 0; k < kConnections; ++k) {
      if (hot) {
        feeds.emplace_back(&pool, SubSeed(seed, 10 + k + first_cycle));
      } else {
        feeds.emplace_back(&sessions, k, first_cycle);
      }
    }
    return feeds;
  }
};

Inputs BuildInputs(const RunOptions& options, Report* report) {
  Inputs in;
  in.hot = options.workload == "serve_hot";
  const auto start = Clock::now();
  in.setup = SetupRegistrations();
  uint64_t digest = DigestRequests(in.setup);
  if (in.hot) {
    in.pool = BuildHotPool(options.seed);
    digest ^= DigestRequests(in.pool.bodies);
    std::map<Op, size_t> distinct, scheduled;
    for (const Request& r : in.pool.bodies) ++distinct[r.op];
    for (size_t i : in.pool.schedule) ++scheduled[in.pool.bodies[i].op];
    std::string mix;
    for (const auto& [op, n] : scheduled) {
      char share[96];
      std::snprintf(share, sizeof(share), "%s%s %zu bodies %.1f%%",
                    mix.empty() ? "" : ", ", OpName(op), distinct[op],
                    100.0 * n / in.pool.schedule.size());
      mix += share;
    }
    report->Note("pool", std::to_string(in.pool.bodies.size()) +
                             " distinct bodies; traffic " + mix);
  } else {
    in.sessions =
        BuildColdSessions(options.seed, kColdSessions, kGroundTruthThreads);
    digest ^= DigestSessions(in.sessions);
    std::vector<double> gt_us;
    size_t questions = 0;
    for (const Session& s : in.sessions) {
      questions += s.audit.size();
      for (const Question& q : s.audit) {
        if (q.op != Op::kCheck) gt_us.push_back(q.gt_us);
      }
    }
    report->Note("sessions", std::to_string(in.sessions.size()) + " (" +
                                 std::to_string(questions) + " questions)");
    report->Note("ground_truth_us implies/summarizable p50/p99/max",
                 std::to_string(Percentile(gt_us, 0.5)) + " / " +
                     std::to_string(Percentile(gt_us, 0.99)) + " / " +
                     std::to_string(Percentile(gt_us, 1.0)));
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  report->Note("input_digest", hex);
  report->Note("ground_truth_s", std::to_string(MicrosSince(start) / 1e6));
  return in;
}

/// The untraced run against a spawned olapdcd.
void RunDaemon(const RunOptions& options, const Inputs& in, Report* report,
               Outcome* outcome) {
  std::vector<double> setup_s;
  Child daemon;
  int port = 0;
  uint64_t sent = 0;
  for (int round = 0; round < kSetupRepeats; ++round) {
    const auto start = Clock::now();
    std::string error, line;
    if (!Spawn({options.daemon_path}, &daemon, &error)) {
      outcome->Fail(error);
      return;
    }
    port = 0;
    while (port == 0 && ReadLine(daemon.stdout_fd, &line)) {
      std::sscanf(line.c_str(), "olapdcd listening on port %d", &port);
    }
    if (port == 0) {
      outcome->Fail("olapdcd exited before listening");
      Wait(daemon.pid);
      return;
    }
    SendAll(port, in.setup, outcome);
    sent = in.setup.size();
    if (in.hot) {
      SendAll(port, in.pool.bodies, outcome);
      sent += in.pool.bodies.size();
    }
    setup_s.push_back(MicrosSince(start) / 1e6);
    if (round + 1 < kSetupRepeats) {
      const ExitInfo exit = Terminate(daemon.pid, 10000);
      ::close(daemon.stdout_fd);
      if (exit.code != 0) {
        outcome->Fail("olapdcd drain exit " + std::to_string(exit.code));
      }
    }
  }
  report->Add("setup_s", Percentile(setup_s, 0.5), "s", setup_s.size());

  std::vector<Feed> feeds = in.MakeFeeds(options.seed);
  Varz before, after;
  if (!ScrapeVarz(port, &before)) outcome->Fail("cannot scrape /varz");
  const HostCpu host_before = ReadHostCpu();
  Phase phase = RunPhase(port, &feeds, options.seconds, nullptr, outcome,
                         daemon.pid, in.hot ? 0 : kColdRssOps);
  report->Note("host_steal_pct",
               std::to_string(StealPct(host_before, ReadHostCpu())));
  report->Note("peak_rss_read_at_ops", std::to_string(phase.peak_rss_ops) +
                                           " of " + std::to_string(phase.ops));
  sent += phase.ops;
  if (!ScrapeVarz(port, &after)) outcome->Fail("cannot scrape /varz");
  const ExitInfo exit = Terminate(daemon.pid, 10000);
  ::close(daemon.stdout_fd);
  if (exit.code != 0) {
    outcome->Fail("olapdcd drain exit " + std::to_string(exit.code));
  }

  AddLatencyMetrics(phase, report);
  AddClientMetrics(phase, report);
  AddCounterMetrics(before, after, phase.ops, report);
  CheckConservation(after, sent, report, outcome);
  if (!in.hot) {
    uint64_t sessions = 0;
    for (const Feed& f : feeds) sessions += f.sessions_started();
    report->Note("sessions_started", std::to_string(sessions));
  }
}

/// olapdcd's wiring (tools/olapdcd.cc, default flags) in-process, with
/// a bench-owned handler that times DimService::HandleRequest.
class InProcessDaemon {
 public:
  InProcessDaemon(const InProcessDaemon&) = delete;
  InProcessDaemon& operator=(const InProcessDaemon&) = delete;

  explicit InProcessDaemon(SpanLog* log)
      : gate_(olapdc::exec::AdmissionGate::Options{16, 50}), log_(log) {
    olapdc::obs::MetricsRegistry::Global().Enable();
    olapdc::service::ServiceCaches::Options cache_options;
    cache_options.memory_budget_bytes = 32ull << 20;
    caches_ = std::make_unique<olapdc::service::ServiceCaches>(cache_options);
    olapdc::service::DimService::Options service_options;
    service_options.registry = &registry_;
    service_options.gate = &gate_;
    service_options.caches = caches_.get();
    service_ = std::make_unique<olapdc::service::DimService>(service_options);
  }

  bool Start() {
    olapdc::obs::HttpServer::Options options;
    options.port = 0;
    options.max_connections = 4;
    options.handler = [this](const olapdc::obs::HttpRequest& request) {
      return Handle(request);
    };
    return server_.Start(options);
  }

  void Stop() { server_.Stop(); }
  int port() const { return server_.port(); }

  /// The handler span of traced request `id` (us), or -1.
  double HandlerUs(uint64_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handler_us_.find(id);
    return it == handler_us_.end() ? -1 : it->second;
  }

 private:
  olapdc::obs::HttpResponse Handle(const olapdc::obs::HttpRequest& request) {
    if (request.method == "GET" || request.method == "HEAD") {
      olapdc::obs::TelemetryServer::Response response =
          telemetry_.Handle(request.path);
      return olapdc::obs::HttpResponse{response.status, response.content_type,
                                       response.body, {}};
    }
    const std::string* id_header = request.FindHeader("X-Request-Id");
    if (id_header == nullptr) return service_->HandleRequest(request);
    const uint64_t id = std::strtoull(id_header->c_str(), nullptr, 10);
    const auto t0 = Clock::now();
    olapdc::obs::HttpResponse response = service_->HandleRequest(request);
    const auto t1 = Clock::now();
    log_->Record("service.handle", log_->NextId(), id, id, 1, t0, t1);
    std::lock_guard<std::mutex> lock(mu_);
    handler_us_[id] = MicrosBetween(t0, t1);
    return response;
  }

  olapdc::service::SchemaRegistry registry_;
  olapdc::exec::AdmissionGate gate_;
  std::unique_ptr<olapdc::service::ServiceCaches> caches_;
  std::unique_ptr<olapdc::service::DimService> service_;
  olapdc::obs::TelemetryServer telemetry_;
  olapdc::obs::HttpServer server_;
  SpanLog* log_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, double> handler_us_;
};

/// Mirror replay of one connection's traced requests.
struct MirrorResult {
  std::map<std::string, std::vector<double>> layers;
  std::vector<double> transport_us, service_self_us;
  double rtt_sum = 0, handler_sum = 0, mirrored_sum = 0;
  uint64_t engine_expands = 0;
};

void ReplayConnection(Mirror* mirror, const InProcessDaemon& daemon,
                      const std::vector<TracedRequest>& traced, SpanLog* log,
                      MirrorResult* out, Outcome* outcome) {
  LayerRecorder recorder(log);
  std::string error;
  for (const TracedRequest& t : traced) {
    const double handler = daemon.HandlerUs(t.id);
    recorder.BeginRequest(t.id);
    if (!mirror->Replay(*t.request, &recorder, &error)) outcome->Fail(error);
    const double mirrored = recorder.EndRequest();
    if (handler < 0) continue;
    out->rtt_sum += t.rtt_us;
    out->handler_sum += handler;
    out->mirrored_sum += mirrored;
    out->transport_us.push_back(t.rtt_us - handler);
    out->service_self_us.push_back(handler - mirrored);
  }
  out->layers = std::move(recorder.samples);
  out->engine_expands = recorder.engine_expands;
}

/// The traced run: per-layer metrics.
void RunTraced(const RunOptions& options, const Inputs& in, Report* report,
               Outcome* outcome) {
  SpanLog log(kSpanCapacity);
  InProcessDaemon daemon(&log);
  if (!daemon.Start()) {
    outcome->Fail("in-process server did not start");
    return;
  }
  const int port = daemon.port();
  Mirror mirror;
  {
    // Set-up on both sides: the mirror's caches must be as warm as the
    // server's when the traced traffic starts.
    LayerRecorder warm(&log);
    warm.recording = false;
    std::string error;
    SendAll(port, in.setup, outcome);
    for (const Request& r : in.setup) {
      if (!mirror.Replay(r, &warm, &error)) outcome->Fail(error);
    }
    if (in.hot) {
      SendAll(port, in.pool.bodies, outcome);
      for (const Request& r : in.pool.bodies) {
        if (!mirror.Replay(r, &warm, &error)) outcome->Fail(error);
      }
    }
  }
  uint64_t sent = in.setup.size() + (in.hot ? in.pool.bodies.size() : 0);
  // Untraced quarters before and after the traced phase, on feeds of
  // their own (serve_cold: epochs the traced sessions never use), so
  // drift during the run cancels out of trace.overhead_pct.
  std::vector<Feed> feeds = in.MakeFeeds(options.seed);
  std::vector<Feed> reference = in.MakeFeeds(options.seed, 1u << 20);
  Varz before, after, final_varz;
  const Phase untraced_before =
      RunPhase(port, &reference, options.seconds / 4, nullptr, outcome);
  if (!ScrapeVarz(port, &before)) outcome->Fail("cannot scrape /varz");
  const Phase traced =
      RunPhase(port, &feeds, options.seconds / 2, &log, outcome);
  if (!ScrapeVarz(port, &after)) outcome->Fail("cannot scrape /varz");
  const Phase untraced_after =
      RunPhase(port, &reference, options.seconds / 4, nullptr, outcome);
  const uint64_t untraced_ops = untraced_before.ops + untraced_after.ops;
  const double untraced_throughput =
      untraced_ops /
      ((untraced_before.wall_us + untraced_after.wall_us) / 1e6);
  sent += traced.ops + untraced_ops;
  if (!ScrapeVarz(port, &final_varz)) outcome->Fail("cannot scrape /varz");
  daemon.Stop();

  std::vector<MirrorResult> mirrored(traced.conns.size());
  {
    std::vector<std::thread> threads;
    for (size_t k = 0; k < traced.conns.size(); ++k) {
      threads.emplace_back(ReplayConnection, &mirror, std::cref(daemon),
                           std::cref(traced.conns[k].traced), &log,
                           &mirrored[k], outcome);
    }
    for (std::thread& t : threads) t.join();
  }
  MirrorResult all;
  for (MirrorResult& m : mirrored) {
    for (auto& [layer, v] : m.layers) {
      all.layers[layer].insert(all.layers[layer].end(), v.begin(), v.end());
    }
    all.transport_us.insert(all.transport_us.end(), m.transport_us.begin(),
                            m.transport_us.end());
    all.service_self_us.insert(all.service_self_us.end(),
                               m.service_self_us.begin(),
                               m.service_self_us.end());
    all.rtt_sum += m.rtt_sum;
    all.handler_sum += m.handler_sum;
    all.mirrored_sum += m.mirrored_sum;
    all.engine_expands += m.engine_expands;
  }

  report->Add("trace.traced_ops_s", traced.throughput(), "ops/s", traced.ops);
  report->Add("trace.untraced_ops_s", untraced_throughput, "ops/s",
              untraced_ops);
  report->Add("trace.overhead_pct",
              (Ratio(untraced_throughput, traced.throughput()) - 1) * 100,
              "%", traced.ops);
  report->Add("trace.coverage_pct", Ratio(all.mirrored_sum, all.handler_sum) * 100,
              "%", all.transport_us.size());
  report->Add("http.transport_p50_us", Percentile(all.transport_us, 0.5), "us",
              all.transport_us.size());
  report->Add("http.transport_p99_us", Percentile(all.transport_us, 0.99),
              "us", all.transport_us.size());
  report->Add("service.self_p50_us", Percentile(all.service_self_us, 0.5),
              "us", all.service_self_us.size());
  // Shares of the client-observed request time; with the layer shares
  // below they add up to 100%.
  report->Add("http.transport.share_pct",
              Ratio(Sum(all.transport_us), all.rtt_sum) * 100, "%",
              all.transport_us.size());
  report->Add("service.self.share_pct",
              Ratio(Sum(all.service_self_us), all.rtt_sum) * 100, "%",
              all.service_self_us.size());
  const std::pair<const char*, const char*> layer_metrics[] = {
      {"json.parse", "json.parse_p50_us"},
      {"registry.find", "registry.find_p50_us"},
      {"registry.register", "registry.register_p50_us"},
      {"schema_io.parse", "schema_io.parse_p50_us"},
      {"constraint.parse", "constraint.parse_p50_us"},
      {"constraint.normalize", "constraint.normalize_p50_us"},
      {"cache.lookup", "cache.lookup_p50_us"},
      {"cache.insert", "cache.insert_p50_us"},
      {"dimsat.check", "dimsat.check_engine_p50_us"},
      {"dimsat.implies", "dimsat.implies_engine_p50_us"},
      {"dimsat.summarizable", "dimsat.summarizable_engine_p50_us"},
  };
  double engine_us = 0;
  for (const auto& [layer, metric] : layer_metrics) {
    const std::vector<double>& v = all.layers[layer];
    report->Add(metric, Percentile(v, 0.5), "us", v.size());
    report->Add(std::string(layer) + ".share_pct",
                Ratio(Sum(v), all.rtt_sum) * 100, "%", v.size());
    if (std::string(layer).rfind("dimsat.", 0) == 0) engine_us += Sum(v);
  }
  report->Add("dimsat.share_pct", Ratio(engine_us, all.rtt_sum) * 100, "%",
              traced.ops);
  report->Add("dimsat.us_per_expand", Ratio(engine_us, all.engine_expands),
              "us", all.engine_expands);
  // Layers only cli_enumerate exercises.
  report->Add("frozen.models_per_op", 0, "count", traced.ops);
  report->Add("frozen.share_pct", 0, "%", traced.ops);
  report->Add("cli.startup.share_pct", 0, "%", traced.ops);
  AddClientMetrics(traced, report);
  AddCounterMetrics(before, after, traced.ops, report);
  CheckConservation(final_varz, sent, report, outcome);

  const std::string path = options.work_dir + "/trace_" + options.workload +
                           "_" + std::to_string(options.seed) + ".jsonl";
  if (log.WriteJsonl(path)) {
    report->Note("trace_file", path + " (" + std::to_string(log.kept()) +
                                   " spans, " +
                                   std::to_string(log.dropped()) + " dropped)");
  }
}

}  // namespace

void RunServe(const RunOptions& options, Report* report, Outcome* outcome) {
  const Inputs in = BuildInputs(options, report);
  report->Note("loop", "closed, " + std::to_string(kConnections) +
                           " keep-alive connections, olapdcd --threads 1");
  if (options.trace) {
    RunTraced(options, in, report, outcome);
  } else {
    RunDaemon(options, in, report, outcome);
  }
}

}  // namespace perfbench
