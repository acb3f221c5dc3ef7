// loadgen — HTTP load generator for olapdcd.
//
// Hammers a live daemon with the mixed request shapes of the request
// plane (check / implies / summarizable / batch, plus deliberately
// hostile shapes: malformed JSON, unknown schemas, 1ms deadlines that
// force the checkpoint path), from several concurrent connections,
// and reports per-endpoint latency percentiles, throughput, and the
// shed rate as BENCH_service.json (bench/bench_util.h reporter format,
// consumed by bench_gate).
//
//   loadgen --port N [--threads T] [--duration-ms D]
//   loadgen --spawn ./olapdcd [--threads T] [--duration-ms D]
//           [-- daemon flags...]
//
// --spawn forks the daemon itself (ephemeral port parsed from its
// stdout), measures the SIGTERM drain wall time after the load phase,
// and propagates a nonzero daemon exit status — which is how the CI
// smoke proves "drain completes within the deadline with exit 0" from
// outside the process.
//
// Client-side conservation is checked on exit: every request sent is
// accounted as exactly one of {2xx, shed 503, other 4xx/5xx,
// transport error}; a daemon that drops a request on the floor fails
// the run.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/location_example.h"
#include "exec/work_stealing_pool.h"
#include "io/schema_io.h"
#include "obs/json.h"
#include "tools/flags.h"
#include "tools/http_client.h"

namespace olapdc {
namespace {

using tools::HttpClient;

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr const char* kEndpoints[] = {"check", "implies", "summarizable",
                                      "batch", "hostile"};
constexpr size_t kNumEndpoints = 5;

struct EndpointStats {
  uint64_t sent = 0;
  uint64_t ok_2xx = 0;
  uint64_t shed_503 = 0;
  uint64_t http_4xx = 0;
  uint64_t http_5xx = 0;  // non-503
  uint64_t transport_errors = 0;
  uint64_t checkpoints = 0;
  uint64_t cache_served = 0;
  std::vector<int64_t> latencies_us;

  void Merge(const EndpointStats& other) {
    sent += other.sent;
    ok_2xx += other.ok_2xx;
    shed_503 += other.shed_503;
    http_4xx += other.http_4xx;
    http_5xx += other.http_5xx;
    transport_errors += other.transport_errors;
    checkpoints += other.checkpoints;
    cache_served += other.cache_served;
    latencies_us.insert(latencies_us.end(), other.latencies_us.begin(),
                        other.latencies_us.end());
  }
};

int64_t Percentile(std::vector<int64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct WorkerResult {
  EndpointStats per_endpoint[kNumEndpoints];
};

/// The request mix: mostly well-formed reasoning calls, with hostile
/// shapes sprinkled in. Index into kEndpoints for accounting.
struct Shape {
  size_t endpoint = 0;
  std::string path;
  std::string body;
  /// Raw bytes instead of a framed POST (malformed-HTTP shape).
  bool raw = false;
  std::string raw_bytes;
};

std::vector<Shape> BuildShapes() {
  std::vector<Shape> shapes;
  const std::string check =
      "{\"schema\": \"loadgen\", \"category\": \"Store\"}";
  const std::string implies =
      "{\"schema\": \"loadgen\", \"constraint\": \"Store/City\"}";
  const std::string summarizable =
      "{\"schema\": \"loadgen\", \"category\": \"Country\", "
      "\"sources\": [\"Store\"]}";
  const std::string batch =
      "{\"requests\": [{\"op\": \"check\", \"schema\": \"loadgen\", "
      "\"category\": \"Store\"}, {\"op\": \"implies\", \"schema\": "
      "\"loadgen\", \"constraint\": \"Store/City\"}]}";
  const std::string tiny_deadline =
      "{\"schema\": \"loadgen\", \"category\": \"Store\", "
      "\"deadline_ms\": 1}";
  auto add = [&shapes](size_t endpoint, const char* path,
                       const std::string& body) {
    Shape shape;
    shape.endpoint = endpoint;
    shape.path = path;
    shape.body = body;
    shapes.push_back(std::move(shape));
  };
  // Weighted mix; hostile shapes are a steady trickle, not the bulk.
  add(0, "/v1/check", check);
  add(1, "/v1/implies", implies);
  add(0, "/v1/check", check);
  add(2, "/v1/summarizable", summarizable);
  add(3, "/v1/batch", batch);
  add(0, "/v1/check", tiny_deadline);
  add(1, "/v1/implies", implies);
  add(4, "/v1/check", "{\"schema\": \"loadgen\", ");  // 400
  add(2, "/v1/summarizable", summarizable);
  add(4, "/v1/check",
      "{\"schema\": \"no-such-schema\", \"category\": \"Store\"}");  // 404
  add(0, "/v1/check", check);
  Shape garbage;  // malformed request line; server answers 400
  garbage.endpoint = 4;
  garbage.raw = true;
  garbage.raw_bytes = "BOGUS nonsense\r\n\r\n";
  shapes.push_back(garbage);
  return shapes;
}

void Worker(int port, const std::vector<Shape>& shapes,
            const std::vector<Shape>& repeats, double repeat_fraction,
            uint64_t seed, int64_t deadline_us, uint64_t min_requests,
            std::atomic<uint64_t>* global_sent, WorkerResult* out) {
  HttpClient client(port);
  size_t next = 0;
  // Per-worker xorshift64*: cheap, deterministic per seed.
  uint64_t rng = seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull;
  auto rand01 = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<double>(rng >> 11) / 9007199254740992.0;
  };
  while (NowUs() < deadline_us ||
         global_sent->load(std::memory_order_relaxed) < min_requests) {
    // --repeat-fraction: with probability f, re-send a well-formed body
    // from the mix instead of advancing the rotation — repeat-heavy
    // traffic, the shape the cross-request cache plane serves best.
    const bool repeat = repeat_fraction > 0.0 && !repeats.empty() &&
                        rand01() < repeat_fraction;
    const Shape& shape =
        repeat ? repeats[static_cast<size_t>(rand01() *
                                             static_cast<double>(
                                                 repeats.size())) %
                         repeats.size()]
               : shapes[next++ % shapes.size()];
    EndpointStats& stats = out->per_endpoint[shape.endpoint];
    ++stats.sent;
    global_sent->fetch_add(1, std::memory_order_relaxed);
    const int64_t start = NowUs();
    int status = -1;
    std::string body;
    if (shape.raw) {
      // Malformed framing: send raw bytes, read whatever error the
      // server produces, then reconnect (the server closes on 400).
      if (client.SendRaw(shape.raw_bytes)) {
        status = client.ReadResponse(&body);
      }
      client.Close();
    } else {
      status = client.Post(shape.path, shape.body, &body);
    }
    const int64_t elapsed = NowUs() - start;
    if (status < 0) {
      ++stats.transport_errors;
      client.Close();
      continue;
    }
    stats.latencies_us.push_back(elapsed);
    if (status == 503) {
      ++stats.shed_503;
    } else if (status >= 500) {
      ++stats.http_5xx;
    } else if (status >= 400) {
      ++stats.http_4xx;
    } else {
      ++stats.ok_2xx;
      if (body.find("\"checkpoint\"") != std::string::npos) {
        ++stats.checkpoints;
      }
      if (body.find("\"cached\": true") != std::string::npos) {
        ++stats.cache_served;
      }
    }
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: loadgen (--port N | --spawn <olapdcd>) [--threads T] "
      "[--duration-ms D] [--min-requests N] [--bench-name NAME] "
      "[--repeat-fraction F] [-- daemon flags...]\n");
  return 2;
}

struct SpawnedDaemon {
  pid_t pid = -1;
  int port = 0;
};

bool Spawn(const std::string& binary, const std::vector<std::string>& extra,
           SpawnedDaemon* out) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::close(pipe_fds[0]);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : extra) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    std::fprintf(stderr, "loadgen: execv %s: %s\n", binary.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  // Parse "olapdcd listening on port N" from the daemon's stdout.
  std::string line;
  char c;
  while (::read(pipe_fds[0], &c, 1) == 1) {
    if (c == '\n') {
      int port = 0;
      if (std::sscanf(line.c_str(), "olapdcd listening on port %d", &port) ==
              1 &&
          port > 0) {
        out->pid = pid;
        out->port = port;
        ::close(pipe_fds[0]);
        return true;
      }
      line.clear();
    } else {
      line += c;
    }
  }
  ::close(pipe_fds[0]);
  std::fprintf(stderr, "loadgen: daemon exited before announcing a port\n");
  ::waitpid(pid, nullptr, 0);
  return false;
}

int Run(int argc, char** argv) {
  int port = 0;
  std::string spawn_binary;
  int threads = 4;
  int64_t duration_ms = 3000;
  uint64_t min_requests = 0;
  double repeat_fraction = 0.0;
  std::string bench_name = "service";
  std::vector<std::string> daemon_args;

  int64_t n = 0;  // the numeric flag just parsed
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto numeric = [&](int64_t min, int64_t max) {
      const char* v = next();
      return v != nullptr &&
             tools::ParseInt64Flag(arg.c_str(), v, min, max, &n);
    };
    if (arg == "--") {
      for (++i; i < argc; ++i) daemon_args.emplace_back(argv[i]);
      break;
    } else if (arg == "--port") {
      if (!numeric(1, 65535)) return Usage();
      port = static_cast<int>(n);
    } else if (arg == "--spawn") {
      const char* v = next();
      if (v == nullptr) return Usage();
      spawn_binary = v;
    } else if (arg == "--threads") {
      if (!numeric(1, exec::kMaxThreads)) return Usage();
      threads = static_cast<int>(n);
    } else if (arg == "--duration-ms") {
      if (!numeric(1, tools::kMaxMsFlag)) return Usage();
      duration_ms = n;
    } else if (arg == "--min-requests") {
      if (!numeric(0, int64_t{1} << 40)) return Usage();
      min_requests = static_cast<uint64_t>(n);
    } else if (arg == "--bench-name") {
      const char* v = next();
      if (v == nullptr) return Usage();
      bench_name = v;
    } else if (arg == "--repeat-fraction") {
      const char* v = next();
      if (v == nullptr || !tools::ParseDoubleFlag("--repeat-fraction", v, 0.0,
                                                  1.0, &repeat_fraction)) {
        return Usage();
      }
    } else {
      std::fprintf(stderr, "loadgen: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if ((port <= 0) == spawn_binary.empty()) return Usage();

  std::signal(SIGPIPE, SIG_IGN);

  SpawnedDaemon daemon;
  if (!spawn_binary.empty()) {
    if (!Spawn(spawn_binary, daemon_args, &daemon)) return 1;
    port = daemon.port;
    std::fprintf(stderr, "loadgen: spawned olapdcd pid %d on port %d\n",
                 static_cast<int>(daemon.pid), port);
  }

  // Register the workload schema (the paper's location example) so the
  // request mix has something real to reason about.
  const std::string schema_text =
      SerializeSchema(bench::Unwrap(LocationSchema()));
  const std::string register_body = "{\"name\": \"loadgen\", \"text\": " +
                                    obs::JsonString(schema_text) + "}";
  {
    HttpClient setup(port);
    bool registered = false;
    for (int attempt = 0; attempt < 50 && !registered; ++attempt) {
      std::string body;
      const int status = setup.Post("/v1/schemas", register_body, &body);
      if (status == 200) {
        registered = true;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    if (!registered) {
      std::fprintf(stderr, "loadgen: could not register schema on port %d\n",
                   port);
      if (daemon.pid > 0) ::kill(daemon.pid, SIGKILL);
      return 1;
    }
  }

  const std::vector<Shape> shapes = BuildShapes();
  // Repeat candidates: the well-formed POSTs (hostile shapes stay on
  // the rotation only — repeating garbage exercises nothing new).
  std::vector<Shape> repeats;
  for (const Shape& shape : shapes) {
    if (!shape.raw && shape.endpoint != 4) repeats.push_back(shape);
  }
  const int64_t start_us = NowUs();
  const int64_t deadline_us = start_us + duration_ms * 1000;
  std::atomic<uint64_t> global_sent{0};
  std::vector<WorkerResult> results(static_cast<size_t>(threads));
  {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(Worker, port, std::cref(shapes), std::cref(repeats),
                        repeat_fraction, static_cast<uint64_t>(t + 1),
                        deadline_us, min_requests, &global_sent, &results[t]);
    }
    for (std::thread& t : pool) t.join();
  }
  const double elapsed_s =
      static_cast<double>(NowUs() - start_us) / 1e6;

  EndpointStats totals[kNumEndpoints];
  for (const WorkerResult& r : results) {
    for (size_t e = 0; e < kNumEndpoints; ++e) {
      totals[e].Merge(r.per_endpoint[e]);
    }
  }

  // Drain measurement (spawn mode): SIGTERM, then time until exit.
  int64_t drain_ms = -1;
  int daemon_exit = -1;
  if (daemon.pid > 0) {
    const int64_t term_us = NowUs();
    ::kill(daemon.pid, SIGTERM);
    int wstatus = 0;
    ::waitpid(daemon.pid, &wstatus, 0);
    drain_ms = (NowUs() - term_us) / 1000;
    daemon_exit = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 128;
    std::fprintf(stderr, "loadgen: daemon exited %d after %lld ms drain\n",
                 daemon_exit, static_cast<long long>(drain_ms));
  }

  bench::BenchReporter reporter(bench_name);
  uint64_t all_sent = 0, all_ok = 0, all_shed = 0, all_4xx = 0, all_5xx = 0,
           all_transport = 0, all_checkpoints = 0, all_cache_served = 0;
  for (size_t e = 0; e < kNumEndpoints; ++e) {
    EndpointStats& s = totals[e];
    all_sent += s.sent;
    all_ok += s.ok_2xx;
    all_shed += s.shed_503;
    all_4xx += s.http_4xx;
    all_5xx += s.http_5xx;
    all_transport += s.transport_errors;
    all_checkpoints += s.checkpoints;
    all_cache_served += s.cache_served;
    std::sort(s.latencies_us.begin(), s.latencies_us.end());
    reporter.AddRow()
        .Set("endpoint", kEndpoints[e])
        .Set("requests", s.sent)
        .Set("ok", s.ok_2xx)
        .Set("shed", s.shed_503)
        .Set("http_4xx", s.http_4xx)
        .Set("http_5xx", s.http_5xx)
        .Set("transport_errors", s.transport_errors)
        .Set("cache_served", s.cache_served)
        .Set("p50_us", Percentile(s.latencies_us, 0.50))
        .Set("p99_us", Percentile(s.latencies_us, 0.99));
  }
  const uint64_t accounted =
      all_ok + all_shed + all_4xx + all_5xx + all_transport;
  const bool conserved = accounted == all_sent;
  bench::BenchReporter::Row& overall = reporter.AddRow();
  overall.Set("endpoint", "overall")
      .Set("requests", all_sent)
      .Set("ok", all_ok)
      .Set("shed", all_shed)
      .Set("http_4xx", all_4xx)
      .Set("http_5xx", all_5xx)
      .Set("transport_errors", all_transport)
      .Set("checkpoints", all_checkpoints)
      .Set("cache_served", all_cache_served)
      .Set("rps", elapsed_s > 0
                      ? static_cast<double>(all_sent) / elapsed_s
                      : 0.0)
      .Set("shed_rate_pct",
           all_sent > 0 ? 100.0 * static_cast<double>(all_shed) /
                              static_cast<double>(all_sent)
                        : 0.0)
      .Set("conservation_ok", conserved);
  if (daemon.pid > 0) {
    overall.Set("drain_time_ms", drain_ms).Set("daemon_exit", daemon_exit);
  }
  reporter.WriteJson();

  std::printf(
      "loadgen: %llu sent in %.2fs (%.0f rps): %llu ok, %llu shed, %llu "
      "4xx, %llu 5xx, %llu transport; %llu checkpoints; conservation %s\n",
      static_cast<unsigned long long>(all_sent), elapsed_s,
      all_sent > 0 ? static_cast<double>(all_sent) / elapsed_s : 0.0,
      static_cast<unsigned long long>(all_ok),
      static_cast<unsigned long long>(all_shed),
      static_cast<unsigned long long>(all_4xx),
      static_cast<unsigned long long>(all_5xx),
      static_cast<unsigned long long>(all_transport),
      static_cast<unsigned long long>(all_checkpoints),
      conserved ? "OK" : "VIOLATED");

  if (!conserved) {
    std::fprintf(stderr,
                 "loadgen: CONSERVATION VIOLATED: sent %llu != accounted "
                 "%llu\n",
                 static_cast<unsigned long long>(all_sent),
                 static_cast<unsigned long long>(accounted));
    return 1;
  }
  if (all_sent == all_transport) {
    std::fprintf(stderr, "loadgen: every request failed at transport\n");
    return 1;
  }
  if (daemon.pid > 0 && daemon_exit != 0) {
    std::fprintf(stderr, "loadgen: daemon exit %d (want 0)\n", daemon_exit);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace olapdc

int main(int argc, char** argv) { return olapdc::Run(argc, argv); }
