// cli_enumerate: batch model enumeration through the olapdc binary.
// One invocation at a time of `olapdc frozen <file> Base --threads 2`
// over a seeded corpus, stdout read through a pipe; every output is
// checked against the ground-truth model count and the digest of the
// listed model lines.
//
// Set-up is what every invocation pays before it enumerates: the
// median `olapdc dot <file>` wall time (process start plus schema load).
//
// Traced run: a traced half adds --metrics-json (the CLI's own olapdc.*
// counters) and a span per invocation, an untraced half gives the
// reference throughput, and an in-process mirror replays every traced
// invocation as schema_io.parse, dimsat.enumerate
// (EnumerateFrozenDimensions at 2 threads) and frozen.to_string.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "core/dimsat.h"
#include "exec/work_stealing_pool.h"
#include "inputs.h"
#include "io/json_parse.h"
#include "io/schema_io.h"
#include "process.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kCorpusFiles = 40;
constexpr uint64_t kMinModels = 2000;
constexpr uint64_t kMaxModels = 5000;
constexpr int kCliThreads = 2;
constexpr int kGroundTruthThreads = 4;
constexpr size_t kStartupSamples = 31;
constexpr size_t kSpanCapacity = 100000;

struct Invocation {
  size_t file = 0;
  double wall_us = 0;
  double cpu_us = 0;
  double max_rss_kb = 0;
  uint64_t stdout_bytes = 0;
  uint64_t id = 0;
};

/// Runs the CLI once; returns false when it could not run at all.
bool RunCli(const std::vector<std::string>& argv, std::string* out,
            ExitInfo* exit, double* wall_us, std::string* error) {
  out->clear();
  const auto start = Clock::now();
  Child child;
  if (!Spawn(argv, &child, error)) return false;
  ReadToEnd(child.stdout_fd, out);
  ::close(child.stdout_fd);
  *exit = Wait(child.pid);
  *wall_us = MicrosSince(start);
  return true;
}

/// Checks `olapdc frozen` output: the header count and the listed
/// model lines against ground truth.
bool CheckFrozenOutput(const CorpusFile& file, const std::string& out,
                       std::string* error) {
  unsigned long long count = 0;
  if (std::sscanf(out.c_str(), "%llu frozen dimension(s) with root Base:",
                  &count) != 1) {
    *error = "frozen output has no header";
    return false;
  }
  uint64_t lines = 0, digest = 0;
  size_t pos = out.find('\n');
  while (pos != std::string::npos && pos + 1 < out.size()) {
    const size_t end = out.find('\n', pos + 1);
    const std::string line = out.substr(
        pos + 1, (end == std::string::npos ? out.size() : end) - pos - 1);
    if (line.rfind("  ", 0) != 0) {
      *error = "unexpected frozen output line";
      return false;
    }
    ++lines;
    digest += LineDigest(line);
    pos = end;
  }
  if (count != file.models || lines != file.models ||
      digest != file.lines_digest) {
    *error = file.path + ": " + std::to_string(count) + " models (" +
             std::to_string(lines) + " lines) where ground truth lists " +
             std::to_string(file.models) +
             (digest != file.lines_digest ? ", model lines differ" : "");
    return false;
  }
  return true;
}

/// `olapdc dot <file>` over the first corpus files: the start-up and
/// schema load every invocation pays.
std::vector<Invocation> MeasureStartup(const RunOptions& options,
                                       const std::vector<CorpusFile>& corpus,
                                       Outcome* outcome) {
  std::vector<Invocation> runs;
  std::string out, error;
  for (size_t i = 0; i < kStartupSamples; ++i) {
    const CorpusFile& file = corpus[i % corpus.size()];
    Invocation run;
    ExitInfo exit;
    outcome->Attempt();
    if (!RunCli({options.cli_path, "dot", file.path}, &out, &exit,
                &run.wall_us, &error)) {
      outcome->Fail(error);
      continue;
    }
    if (exit.code != 0 || out.find("digraph") == std::string::npos) {
      outcome->Fail("olapdc dot failed with exit " +
                    std::to_string(exit.code));
    }
    run.max_rss_kb = static_cast<double>(exit.usage.ru_maxrss);
    runs.push_back(run);
  }
  return runs;
}

struct Phase {
  std::vector<Invocation> runs;
  double wall_us = 0;
  double throughput() const { return runs.size() / (wall_us / 1e6); }
};

/// Invokes `olapdc frozen` over the corpus in `order`, starting at
/// `*next`, until `seconds` have passed.
Phase RunPhase(const RunOptions& options,
               const std::vector<CorpusFile>& corpus,
               const std::vector<size_t>& order, size_t* next, double seconds,
               const std::string& metrics_path, SpanLog* log,
               std::map<std::string, double>* counters, Outcome* outcome) {
  Phase phase;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::string out, error;
  while (Clock::now() < deadline) {
    Invocation run;
    run.file = order[(*next)++ % order.size()];
    const CorpusFile& file = corpus[run.file];
    std::vector<std::string> argv = {options.cli_path, "frozen", file.path,
                                     "Base", "--threads",
                                     std::to_string(kCliThreads)};
    if (!metrics_path.empty()) {
      argv.push_back("--metrics-json");
      argv.push_back(metrics_path);
    }
    ExitInfo exit;
    outcome->Attempt();
    const auto t0 = Clock::now();
    if (!RunCli(argv, &out, &exit, &run.wall_us, &error)) {
      outcome->Fail(error);
      continue;
    }
    if (log != nullptr) {
      run.id = log->NextId();
      log->Record("cli.invocation", run.id, 0, run.id, 0, t0,
                  t0 + std::chrono::microseconds(
                           static_cast<int64_t>(run.wall_us)));
    }
    run.cpu_us = RusageCpuUs(exit.usage);
    run.max_rss_kb = static_cast<double>(exit.usage.ru_maxrss);
    run.stdout_bytes = out.size();
    if (exit.code != 0) {
      outcome->Fail("olapdc frozen exit " + std::to_string(exit.code));
    } else if (!CheckFrozenOutput(file, out, &error)) {
      outcome->Fail(error);
    }
    if (counters != nullptr) {
      std::ifstream in(metrics_path);
      std::stringstream text;
      text << in.rdbuf();
      olapdc::JsonValue v;
      const olapdc::JsonValue* values = nullptr;
      if (olapdc::ParseJsonText(text.str(), &v) && v.is_object()) {
        values = v.Find("counters");
      }
      if (values == nullptr || !values->is_object()) {
        outcome->Fail("olapdc --metrics-json output unreadable");
      } else {
        for (const auto& [name, value] : values->object) {
          if (value.is_number()) (*counters)[name] += value.number_value;
        }
      }
    }
    phase.runs.push_back(run);
  }
  phase.wall_us = MicrosSince(start);
  return phase;
}

std::vector<double> Field(const std::vector<Invocation>& runs,
                          double Invocation::*field) {
  std::vector<double> out;
  for (const Invocation& r : runs) out.push_back(r.*field);
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Layers the daemon workloads measure and this one does not touch.
void AddIdleServeLayers(uint64_t ops, Report* report) {
  for (const char* name :
       {"http.transport.share_pct", "service.self.share_pct",
        "json.parse.share_pct", "registry.find.share_pct",
        "registry.register.share_pct", "constraint.parse.share_pct",
        "constraint.normalize.share_pct", "cache.lookup.share_pct",
        "cache.insert.share_pct"}) {
    report->Add(name, 0, "%", ops);
  }
  for (const char* name :
       {"http.busy_rejects", "http.timeouts", "service.shed_per_kreq",
        "registry.invalidations_per_kreq", "cache.evictions_per_kreq"}) {
    report->Add(name, 0, "count", ops);
  }
  report->Add("http.reconnects_per_kreq", 0, "count", ops);
  report->Add("http.bytes_per_req", 0, "bytes", ops);
  report->Add("cache.bytes", 0, "bytes", ops);
  for (const char* name : {"cache.response.hit_ratio",
                           "cache.closure.hit_ratio",
                           "cache.nogood.hit_ratio"}) {
    report->Add(name, 0, "ratio", 0);
  }
}

void RunTraced(const RunOptions& options,
               const std::vector<CorpusFile>& corpus,
               const std::vector<size_t>& order, Report* report,
               Outcome* outcome) {
  olapdc::exec::SetProcessPoolThreads(kCliThreads);
  SpanLog log(kSpanCapacity);
  const std::vector<Invocation> startup =
      MeasureStartup(options, corpus, outcome);
  const std::vector<double> startup_us = Field(startup, &Invocation::wall_us);
  report->Add("cli.startup_p50_us", Percentile(startup_us, 0.5), "us",
              startup_us.size());

  size_t next = 0;
  std::map<std::string, double> counters;
  const std::string metrics_path = options.work_dir + "/cli_metrics.json";
  const Phase traced = RunPhase(options, corpus, order, &next,
                                options.seconds / 2, metrics_path, &log,
                                &counters, outcome);
  const Phase untraced = RunPhase(options, corpus, order, &next,
                                  options.seconds / 2, "", nullptr, nullptr,
                                  outcome);

  // Mirror: the same invocations in-process, layer by layer.
  std::vector<double> parse_us, enumerate_us, to_string_us;
  uint64_t models = 0, expands = 0;
  for (const Invocation& run : traced.runs) {
    const CorpusFile& file = corpus[run.file];
    const uint64_t root = log.NextId();
    const auto t0 = Clock::now();
    std::ifstream in(file.path);
    std::stringstream text;
    text << in.rdbuf();
    auto ds = olapdc::ParseSchemaText(text.str());
    const auto t1 = Clock::now();
    log.Record("schema_io.parse", log.NextId(), root, run.id, 2, t0, t1);
    if (!ds.ok()) {
      outcome->Fail("mirror: corpus file does not parse");
      continue;
    }
    olapdc::DimsatOptions dimsat;
    dimsat.num_threads = kCliThreads;
    olapdc::DimsatResult r = olapdc::EnumerateFrozenDimensions(
        *ds, ds->hierarchy().FindCategory("Base"), dimsat);
    const auto t2 = Clock::now();
    log.Record("dimsat.enumerate", log.NextId(), root, run.id, 2, t1, t2);
    std::string rendered;
    for (const olapdc::FrozenDimension& f : r.frozen) {
      rendered += "  " + f.ToString(ds->hierarchy()) + "\n";
    }
    const auto t3 = Clock::now();
    log.Record("frozen.to_string", log.NextId(), root, run.id, 2, t2, t3);
    log.Record("mirror.request", root, run.id, run.id, 1, t0, t3);
    if (r.frozen.size() != file.models) {
      outcome->Fail("mirror: wrong model count for " + file.path);
    }
    parse_us.push_back(MicrosBetween(t0, t1));
    enumerate_us.push_back(MicrosBetween(t1, t2));
    to_string_us.push_back(MicrosBetween(t2, t3));
    models += r.frozen.size();
    expands += r.stats.expand_calls;
  }

  const uint64_t ops = traced.runs.size();
  const double n = static_cast<double>(ops);
  const std::vector<double> wall = Field(traced.runs, &Invocation::wall_us);
  const double wall_sum = Sum(wall);
  auto counter = [&counters](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  report->Add("trace.overhead_pct",
              (Ratio(untraced.throughput(), traced.throughput()) - 1) * 100,
              "%", ops);
  report->Add("trace.coverage_pct",
              Ratio(Sum(parse_us) + Sum(enumerate_us) + Sum(to_string_us),
                    wall_sum) * 100,
              "%", ops);
  report->Add("schema_io.parse_p50_us", Percentile(parse_us, 0.5), "us",
              parse_us.size());
  report->Add("dimsat.enumerate_p50_us", Percentile(enumerate_us, 0.5), "us",
              enumerate_us.size());
  report->Add("schema_io.parse.share_pct",
              Ratio(Sum(parse_us), wall_sum) * 100, "%", ops);
  report->Add("cli.startup.share_pct",
              Ratio(Percentile(startup_us, 0.5) * n, wall_sum) * 100, "%",
              ops);
  report->Add("dimsat.share_pct", Ratio(Sum(enumerate_us), wall_sum) * 100,
              "%", ops);
  report->Add("frozen.share_pct", Ratio(Sum(to_string_us), wall_sum) * 100,
              "%", ops);
  report->Add("dimsat.us_per_expand", Ratio(Sum(enumerate_us), expands), "us",
              expands);
  const double checks = counter("olapdc.dimsat.check_calls");
  report->Add("dimsat.expand_per_op",
              Ratio(counter("olapdc.dimsat.nodes_expanded"), n), "count", ops);
  report->Add("dimsat.check_per_op", Ratio(checks, n), "count", ops);
  report->Add("dimsat.assignments_per_op",
              Ratio(counter("olapdc.dimsat.assignments_tried"), n), "count",
              ops);
  report->Add("dimsat.nogood_prunes_per_op",
              Ratio(counter("olapdc.dimsat.prune.nogood"), n), "count", ops);
  report->Add("dimsat.check_yield",
              Ratio(counter("olapdc.dimsat.frozen_found"), checks), "ratio",
              static_cast<uint64_t>(checks));
  report->Add("dimsat.decomposed_runs_per_op",
              Ratio(counter("olapdc.dimsat.decomposed_runs"), n), "count",
              ops);
  report->Add("frozen.models_per_op", Ratio(models, n), "count", ops);
  report->Add("frozen.to_string_ns", Ratio(Sum(to_string_us) * 1000, models),
              "ns", models);
  uint64_t stdout_bytes = 0;
  std::vector<double> rss_per_model;
  const double startup_rss_kb =
      Percentile(Field(startup, &Invocation::max_rss_kb), 0.5);
  for (const Invocation& run : traced.runs) {
    stdout_bytes += run.stdout_bytes;
    rss_per_model.push_back((run.max_rss_kb - startup_rss_kb) * 1024.0 /
                            static_cast<double>(corpus[run.file].models));
  }
  report->Add("frozen.stdout_bytes_per_model", Ratio(stdout_bytes, models),
              "bytes", models);
  report->Add("frozen.rss_bytes_per_model", Percentile(rss_per_model, 0.5),
              "bytes", ops);
  const double steals = counter("olapdc.exec.steals");
  report->Add("exec.tasks_per_op",
              Ratio(counter("olapdc.exec.tasks_executed"), n), "count", ops);
  report->Add("exec.steals_per_op", Ratio(steals, n), "count", ops);
  report->Add("exec.steal_success_ratio",
              Ratio(steals, steals + counter("olapdc.exec.steal_failures")),
              "ratio", ops);
  report->Add("exec.cpu_per_wall",
              Ratio(Sum(Field(traced.runs, &Invocation::cpu_us)),
                    wall_sum * kCliThreads),
              "ratio", ops);
  AddIdleServeLayers(ops, report);

  const std::string path = options.work_dir + "/trace_" + options.workload +
                           "_" + std::to_string(options.seed) + ".jsonl";
  if (log.WriteJsonl(path)) {
    report->Note("trace_file", path + " (" + std::to_string(log.kept()) +
                                   " spans)");
  }
}

/// Builds the corpus and its ground truth in a forked child. A spawned
/// CLI's ru_maxrss starts from its parent's RSS high-water mark, so the
/// enumerations of the ground truth must not happen in this process.
bool BuildCorpusInChild(const RunOptions& options,
                        std::vector<CorpusFile>* corpus) {
  const std::string manifest = options.work_dir + "/corpus.manifest";
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    const std::vector<CorpusFile> built =
        BuildCorpus(options.seed, kCorpusFiles, kMinModels, kMaxModels,
                    kGroundTruthThreads, options.work_dir);
    std::ofstream out(manifest, std::ios::trunc);
    for (const CorpusFile& f : built) {
      out << f.path << ' ' << f.layered << ' ' << f.models << ' '
          << f.expands << ' ' << f.lines_digest << ' ' << f.gt_us << '\n';
    }
    out.close();
    ::_exit(out.fail() ? 1 : 0);
  }
  if (Wait(pid).code != 0) return false;
  std::ifstream in(manifest);
  CorpusFile f;
  while (in >> f.path >> f.layered >> f.models >> f.expands >>
         f.lines_digest >> f.gt_us) {
    std::ifstream text_in(f.path);
    std::stringstream text;
    text << text_in.rdbuf();
    f.text = text.str();
    corpus->push_back(f);
  }
  return corpus->size() == kCorpusFiles;
}

}  // namespace

void RunCliEnumerate(const RunOptions& options, Report* report,
                     Outcome* outcome) {
  const auto gt_start = Clock::now();
  std::vector<CorpusFile> corpus;
  if (!BuildCorpusInChild(options, &corpus)) {
    outcome->Fail("corpus generation failed");
    return;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(DigestCorpus(corpus)));
  report->Note("input_digest", hex);
  report->Note("ground_truth_s", std::to_string(MicrosSince(gt_start) / 1e6));
  for (bool layered : {true, false}) {
    std::vector<double> models, expands, gt_ms;
    for (const CorpusFile& f : corpus) {
      if (f.layered != layered) continue;
      models.push_back(static_cast<double>(f.models));
      expands.push_back(static_cast<double>(f.expands));
      gt_ms.push_back(f.gt_us / 1000);
    }
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%zu files; models min/p50/max %.0f / %.0f / %.0f; "
                  "EXPANDs mean %.0f; ground truth p50 %.1f ms",
                  models.size(), Percentile(models, 0), Percentile(models, 0.5),
                  Percentile(models, 1), Sum(expands) / expands.size(),
                  Percentile(gt_ms, 0.5));
    report->Note(layered ? "corpus layered 4x4" : "corpus 3-component", line);
  }
  report->Note("loop", "closed, one invocation at a time, olapdc --threads " +
                           std::to_string(kCliThreads));
  std::vector<size_t> order;
  for (size_t i = 0; i < corpus.size(); ++i) order.push_back(i);
  Rng(SubSeed(options.seed, 20)).Shuffle(&order);

  if (options.trace) {
    RunTraced(options, corpus, order, report, outcome);
    return;
  }
  const std::vector<Invocation> startup =
      MeasureStartup(options, corpus, outcome);
  report->Add("setup_s",
              Percentile(Field(startup, &Invocation::wall_us), 0.5) / 1e6, "s",
              startup.size());
  size_t next = 0;
  const HostCpu host_before = ReadHostCpu();
  const Phase phase = RunPhase(options, corpus, order, &next, options.seconds,
                               "", nullptr, nullptr, outcome);
  report->Note("host_steal_pct",
               std::to_string(StealPct(host_before, ReadHostCpu())));
  const std::vector<double> wall = Field(phase.runs, &Invocation::wall_us);
  const uint64_t ops = phase.runs.size();
  report->Add("throughput_ops_s", phase.throughput(), "ops/s", ops);
  report->Add("latency_p50_us", Percentile(wall, 0.5), "us", ops);
  report->Add("frozen_p50_us", Percentile(wall, 0.5), "us", ops);
  report->Add("cpu_us_per_op",
              Ratio(Sum(Field(phase.runs, &Invocation::cpu_us)), ops), "us",
              ops);
  std::vector<double> rss = Field(phase.runs, &Invocation::max_rss_kb);
  report->Add("peak_rss_mb", Percentile(rss, 1.0) / 1024.0, "MiB", ops);
}

}  // namespace perfbench
