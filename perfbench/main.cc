// olapdc_bench — the olapdc benchmark harness.
//
//   olapdc_bench --workload <serve_hot|serve_cold|cli_enumerate>
//                --seed <n> --seconds <s> --trace <0|1>
//                --daemon <olapdcd> --cli <olapdc> --work-dir <dir>
//
// Builds the workload's inputs from the seed, computes their ground
// truth, drives the system from outside, checks every answer, and
// prints every metric with its unit and sample count, then one JSON
// result line: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1 (the names BENCHMARK.json lists). Exits 1 on
// any wrong or missing answer. perfbench/run.py builds and runs it.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The metrics of the result line; they match BENCHMARK.json.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "throughput_ops_s", "latency_p50_us", "cpu_us_per_op",
    "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "trace.overhead_pct",
    "trace.coverage_pct",
    "http.transport.share_pct",
    "service.self.share_pct",
    "json.parse.share_pct",
    "registry.find.share_pct",
    "registry.register.share_pct",
    "schema_io.parse.share_pct",
    "constraint.parse.share_pct",
    "constraint.normalize.share_pct",
    "cache.lookup.share_pct",
    "cache.insert.share_pct",
    "dimsat.share_pct",
    "frozen.share_pct",
    "cli.startup.share_pct",
    "http.reconnects_per_kreq",
    "http.bytes_per_req",
    "http.busy_rejects",
    "http.timeouts",
    "service.shed_per_kreq",
    "registry.invalidations_per_kreq",
    "cache.response.hit_ratio",
    "cache.closure.hit_ratio",
    "cache.nogood.hit_ratio",
    "cache.evictions_per_kreq",
    "cache.bytes",
    "dimsat.expand_per_op",
    "dimsat.check_per_op",
    "dimsat.assignments_per_op",
    "dimsat.nogood_prunes_per_op",
    "dimsat.check_yield",
    "dimsat.decomposed_runs_per_op",
    "frozen.models_per_op",
    "exec.tasks_per_op",
    "exec.steals_per_op",
    "exec.steal_success_ratio",
};

int Usage() {
  std::fprintf(stderr,
               "usage: olapdc_bench --workload <serve_hot|serve_cold|"
               "cli_enumerate> --seed <n> --seconds <s> --trace <0|1> "
               "--daemon <olapdcd> --cli <olapdc> --work-dir <dir>\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--daemon") {
      options->daemon_path = value;
    } else if (flag == "--cli") {
      options->cli_path = value;
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->daemon_path.empty() &&
         !options->cli_path.empty() && !options->work_dir.empty() &&
         (options->workload == "serve_hot" ||
          options->workload == "serve_cold" ||
          options->workload == "cli_enumerate");
}

int Main(int argc, char** argv) {
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  std::signal(SIGPIPE, SIG_IGN);

  const bool serve = options.workload != "cli_enumerate";
  Report report;
  report.Note("workload", options.workload);
  report.Note("seed", std::to_string(options.seed));
  report.Note("seconds", std::to_string(options.seconds));
  report.Note("trace", options.trace ? "1" : "0");
  report.Note("nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
  report.Note("compiler", OLAPDC_BENCH_COMPILER);
  report.Note("build_type", OLAPDC_BENCH_BUILD_TYPE);
  report.Note("connections", serve ? "2" : "n/a");
  report.Note("threads", serve ? "olapdcd --threads 1 (default)"
                               : "olapdc --threads 2");

  Outcome outcome;
  if (serve) {
    RunServe(options, &report, &outcome);
  } else {
    RunCliEnumerate(options, &report, &outcome);
  }
  const uint64_t attempted = outcome.attempted();
  const uint64_t failed = outcome.failed();
  report.Add("failed_pct",
             attempted > 0 ? 100.0 * static_cast<double>(failed) /
                                 static_cast<double>(attempted)
                           : 0.0,
             "%", attempted);
  report.PrintTable();
  for (const std::string& message : outcome.messages()) {
    std::printf("FAILURE: %s\n", message.c_str());
  }

  const std::vector<std::string>& names = options.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (const std::string& name : names) {
    const Metric* m = report.Find(name);
    if (m == nullptr) {
      std::fprintf(stderr, "olapdc_bench: metric %s was not measured\n",
                   name.c_str());
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m->value);
    metrics += olapdc::obs::JsonString(name) + ": {\"value\": " + value +
               ", \"unit\": " + olapdc::obs::JsonString(m->unit) + "}";
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
