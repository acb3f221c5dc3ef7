// olapdc — command-line front end for the dimension-constraint
// reasoner.
//
//   olapdc check <schema-file>
//       Parse the schema and audit every category's satisfiability;
//       for unsatisfiable categories, print a minimal conflicting
//       constraint core.
//   olapdc frozen <schema-file> <root-category>
//       Enumerate the frozen dimensions with the given root (component
//       decomposed when the root's split is eligible).
//   olapdc implies <schema-file> <constraint...>
//       Decide ds |= alpha; print a counterexample structure if not.
//   olapdc summarizable <schema-file> <target> <source>...
//       Theorem 1 test: is <target> summarizable from the sources?
//   olapdc minimize <schema-file>
//       Print the schema with redundant constraints removed.
//   olapdc dot <schema-file>
//       Emit the hierarchy as Graphviz.
//   olapdc validate <schema-file> <instance-file>
//       Load an instance, run C1-C7 validation and the Sigma model
//       check.
//   olapdc mine <schema-file> <instance-file>
//       Learn dimension constraints from the instance and print the
//       resulting schema.
//
// Global flags:
//   --deadline-ms <n>   Wall-clock budget for the reasoning work. On
//                       expiration the command degrades (prints
//                       "unknown" / partial output) and exits with the
//                       deadline-exceeded code instead of hanging.
//   --memory-budget-mb <n>  Byte cap (in MiB) on the reasoning working
//                       set (estimate-based governor; see
//                       docs/robustness.md). On exhaustion the command
//                       degrades with kResourceExhausted the same way a
//                       deadline does.
//   --threads <n>       Above 1, sizes the shared process pool
//                       (src/exec) to n workers and runs the DIMSAT
//                       searches on it; at most 256. Defaults to
//                       OLAPDC_THREADS when set, else 1.
//   --metrics-json <path>  Enable the metrics registry and write the
//                       final snapshot (olapdc.* counters, gauges,
//                       latency histograms) to <path> as JSON.
//   --trace <path>      Stream structured trace spans (one JSON object
//                       per line) to <path> while the command runs.
//   --explain           Record every DIMSAT EXPAND decision and print
//                       the explain report (each prune-rule firing
//                       with its depth) to stderr when done.
//   --explain-trace <path>  Also write the decisions as Chrome
//                       trace_event JSON (open in ui.perfetto.dev).
//                       Implies --explain.
//   Value flags also accept the --flag=value spelling. Any other
//   argument that starts with "--" is a usage error.
//
// Exit codes: 0 = success / affirmative answer; 1 = definitive negative
// answer (NOT IMPLIED, UNSATISFIABLE, ...); 2 = usage error; otherwise
// a distinct code per StatusCode (tools::ExitCodeFor in tools/flags.h,
// shared with olapdcd) so scripts can tell a parse error from a timeout
// from a missing file.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/memory_budget.h"
#include "obs/metrics.h"
#include "obs/search_tree.h"
#include "obs/span.h"
#include "constraint/evaluator.h"
#include "constraint/parser.h"
#include "constraint/printer.h"
#include "core/diagnostics.h"
#include "core/dimsat.h"
#include "core/implication.h"
#include "core/mining.h"
#include "core/report.h"
#include "core/summarizability.h"
#include "exec/work_stealing_pool.h"
#include "io/instance_io.h"
#include "io/schema_io.h"
#include "tools/flags.h"

namespace olapdc {
namespace {

constexpr int kExitAnswerNo = 1;
constexpr int kExitUsage = 2;

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return tools::ExitCodeFor(status.code());
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: olapdc <command> <schema-file> [args...] [--deadline-ms <n>]\n"
      "  check <schema>                     satisfiability audit\n"
      "  frozen <schema> <root>             enumerate frozen dimensions\n"
      "  implies <schema> <constraint...>   decide ds |= alpha\n"
      "  summarizable <schema> <target> <source>...\n"
      "  minimize <schema>                  drop redundant constraints\n"
      "  report <schema>                    heterogeneity report\n"
      "  dot <schema>                       Graphviz of the hierarchy\n"
      "  validate <schema> <instance>       C1-C7 + Sigma model check\n"
      "  mine <schema> <instance>           learn constraints from data\n"
      "global flags: --deadline-ms <n>, --memory-budget-mb <n>, "
      "--threads <n>, --metrics-json <path>, --trace <path>,\n"
      "  --explain, --explain-trace <path>\n"
      "exit codes: 0 yes/ok, 1 no, 2 usage, 10-17 one per error class\n"
      "  (16 = deadline exceeded, 17 = cancelled)\n");
  return kExitUsage;
}

/// The per-invocation resource envelope: the --deadline-ms wall-clock
/// budget, the --memory-budget-mb byte cap, and the --threads /
/// OLAPDC_THREADS worker parallelism.
struct CliBudget {
  Budget budget;
  /// Owns the MemoryBudget the Budget points at (shared so the struct
  /// stays copyable; the CLI never mutates it after flag parsing).
  std::shared_ptr<MemoryBudget> memory;
  bool bounded = false;
  int threads = 1;
  const Budget* get() const { return bounded ? &budget : nullptr; }
  /// Stamps this envelope onto one command's DimsatOptions.
  void Apply(DimsatOptions* options) const {
    options->budget = get();
    options->num_threads = threads;
  }
};

void PrintPartialStats(const DimsatStats& stats) {
  std::fprintf(stderr,
               "partial work before the budget expired: %llu EXPAND calls, "
               "%llu CHECK calls, %llu assignments\n",
               static_cast<unsigned long long>(stats.expand_calls),
               static_cast<unsigned long long>(stats.check_calls),
               static_cast<unsigned long long>(stats.assignments_tried));
}

int Check(const DimensionSchema& ds, const CliBudget& budget) {
  const HierarchySchema& schema = ds.hierarchy();
  DimsatOptions options;
  budget.Apply(&options);
  bool all_ok = true;
  Status degraded;
  for (CategoryId c = 0; c < schema.num_categories(); ++c) {
    Result<bool> satisfiable = IsCategorySatisfiable(ds, c, options);
    if (!satisfiable.ok()) {
      if (!IsBudgetError(satisfiable.status())) return Fail(satisfiable.status());
      // Degrade: report this category as unknown and keep auditing the
      // rest under what remains of the budget.
      degraded = satisfiable.status();
      std::printf("%-20s unknown (%s)\n", schema.CategoryName(c).c_str(),
                  std::string(StatusCodeToString(satisfiable.status().code()))
                      .c_str());
      continue;
    }
    std::printf("%-20s %s\n", schema.CategoryName(c).c_str(),
                *satisfiable ? "satisfiable" : "UNSATISFIABLE");
    if (!*satisfiable) {
      all_ok = false;
      Result<std::vector<size_t>> core = UnsatisfiableCore(ds, c, options);
      if (core.ok()) {
        std::printf("  conflicting constraints:\n");
        for (size_t i : *core) {
          std::printf("    %s\n",
                      ConstraintToString(schema, ds.constraints()[i]).c_str());
        }
      }
    }
  }
  if (!degraded.ok()) return Fail(degraded);
  return all_ok ? 0 : kExitAnswerNo;
}

int Frozen(const DimensionSchema& ds, const std::string& root_name,
           const CliBudget& budget) {
  Result<CategoryId> root = ds.hierarchy().CategoryIdOf(root_name);
  if (!root.ok()) return Fail(root.status());
  DimsatOptions options;
  budget.Apply(&options);
  // Listing every model is where decomposition pays: a multi-component
  // schema costs the sum of its component searches plus composition
  // instead of their product, with the same model set. Branching stays
  // off; it multiplies EXPANDs on layered schemas (DESIGN.md §8).
  options.decompose = true;
  DimsatResult r = EnumerateFrozenDimensions(ds, *root, options);
  if (!r.status.ok() && !IsBudgetError(r.status)) return Fail(r.status);
  std::printf("%zu frozen dimension(s) with root %s%s:\n", r.frozen.size(),
              root_name.c_str(),
              r.status.ok() ? "" : " (partial: budget expired)");
  for (const FrozenDimension& f : r.frozen) {
    std::printf("  %s\n", f.ToString(ds.hierarchy()).c_str());
  }
  if (!r.status.ok()) {
    PrintPartialStats(r.stats);
    return Fail(r.status);
  }
  return 0;
}

int ImpliesCmd(const DimensionSchema& ds, const std::string& text,
               const CliBudget& budget) {
  Result<DimensionConstraint> alpha =
      ParseConstraint(ds.hierarchy(), text);
  if (!alpha.ok()) return Fail(alpha.status());
  DimsatOptions options;
  budget.Apply(&options);
  Result<ImplicationResult> r = Implies(ds, *alpha, options);
  if (!r.ok()) return Fail(r.status());
  if (!r->status.ok()) {
    std::printf("UNKNOWN\n");
    PrintPartialStats(r->stats);
    return Fail(r->status);
  }
  if (r->implied) {
    std::printf("IMPLIED\n");
    return 0;
  }
  std::printf("NOT IMPLIED\n");
  if (r->counterexample.has_value()) {
    std::printf("counterexample: %s\n",
                r->counterexample->ToString(ds.hierarchy()).c_str());
  }
  return kExitAnswerNo;
}

int Summarizable(const DimensionSchema& ds,
                 const std::vector<std::string>& args,
                 const CliBudget& budget) {
  const HierarchySchema& schema = ds.hierarchy();
  Result<CategoryId> target = schema.CategoryIdOf(args[0]);
  if (!target.ok()) return Fail(target.status());
  std::vector<CategoryId> sources;
  for (size_t i = 1; i < args.size(); ++i) {
    Result<CategoryId> c = schema.CategoryIdOf(args[i]);
    if (!c.ok()) return Fail(c.status());
    sources.push_back(*c);
  }
  DimsatOptions options;
  budget.Apply(&options);
  Result<SummarizabilityResult> r =
      IsSummarizable(ds, *target, sources, options);
  if (!r.ok()) return Fail(r.status());
  if (!r->status.ok()) {
    std::printf("UNKNOWN (%zu of %zu bottom categories decided)\n",
                r->details.size(),
                schema.bottom_categories().size());
    PrintPartialStats(r->stats);
    return Fail(r->status);
  }
  std::printf("%s\n", r->summarizable ? "SUMMARIZABLE" : "NOT SUMMARIZABLE");
  for (const auto& detail : r->details) {
    if (!detail.implied && detail.counterexample.has_value()) {
      std::printf("counterexample (bottom %s): %s\n",
                  schema.CategoryName(detail.bottom).c_str(),
                  detail.counterexample->ToString(schema).c_str());
    }
  }
  return r->summarizable ? 0 : kExitAnswerNo;
}

int Minimize(const DimensionSchema& ds, const CliBudget& budget) {
  DimsatOptions options;
  budget.Apply(&options);
  Result<DimensionSchema> minimized = MinimizeConstraintSet(ds, options);
  if (!minimized.ok()) return Fail(minimized.status());
  std::printf("%s", SerializeSchema(*minimized).c_str());
  std::fprintf(stderr, "kept %zu of %zu constraints\n",
               minimized->constraints().size(), ds.constraints().size());
  return 0;
}

int Validate(const DimensionSchema& ds, const std::string& instance_path) {
  Result<DimensionInstance> d =
      LoadInstanceFile(ds.hierarchy_ptr(), instance_path);
  if (!d.ok()) return Fail(d.status());
  std::printf("structure (C1-C7): OK (%d members)\n", d->num_members());
  bool ok = true;
  for (const DimensionConstraint& c : ds.constraints()) {
    bool holds = Satisfies(*d, c);
    ok &= holds;
    std::printf("%-8s %s\n", holds ? "holds" : "VIOLATED",
                ConstraintToString(ds.hierarchy(), c).c_str());
    if (!holds) {
      for (MemberId m : ViolatingMembers(*d, c)) {
        std::printf("         by member '%s'\n", d->member(m).key.c_str());
      }
    }
  }
  return ok ? 0 : kExitAnswerNo;
}

/// Parsed global flags; `args` is everything else, in order.
struct CliFlags {
  std::vector<std::string> args;
  CliBudget budget;
  std::string metrics_json_path;
  std::string trace_path;
  bool explain = false;
  std::string explain_trace_path;
  bool usage_error = false;
};

/// Category names of the schema the current command loaded, so the
/// explain renderers can name prune edges (ids render as "#<id>"
/// before a schema is loaded).
std::vector<std::string> g_category_names;

std::string CategoryNameOf(int id) {
  if (id >= 0 && static_cast<size_t>(id) < g_category_names.size()) {
    return g_category_names[id];
  }
  return "#" + std::to_string(id);
}

/// Extracts `--flag value` / `--flag=value`. Returns true when `arg`
/// consumed the flag (then `*value` holds its value or is empty with
/// `flags->usage_error` set).
bool TakeFlagValue(const std::string& flag, const std::string& arg, int argc,
                   char** argv, int* i, std::string* value, CliFlags* flags) {
  if (arg == flag) {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
      flags->usage_error = true;
      return true;
    }
    *value = argv[++*i];
    return true;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    *value = arg.substr(flag.size() + 1);
    if (value->empty()) {
      std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
      flags->usage_error = true;
    }
    return true;
  }
  return false;
}

CliFlags ParseFlags(int argc, char** argv) {
  CliFlags flags;
  if (int env = exec::EnvThreadCount(); env > 0) {
    flags.budget.threads = env;
  }
  // `--flag value` / `--flag=value` through tools::ParseInt64Flag; a
  // missing or bad value sets usage_error.
  auto take_int = [&](const char* flag, const std::string& arg, int* i,
                      int64_t min, int64_t max, int64_t* out) {
    std::string value;
    if (!TakeFlagValue(flag, arg, argc, argv, i, &value, &flags)) {
      return false;
    }
    if (!flags.usage_error &&
        !tools::ParseInt64Flag(flag, value, min, max, out)) {
      flags.usage_error = true;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    int64_t n = 0;
    if (take_int("--deadline-ms", arg, &i, 1, tools::kMaxMsFlag, &n)) {
      if (flags.usage_error) return flags;
      flags.budget.budget.SetDeadline(Budget::Clock::now() +
                                      std::chrono::milliseconds(n));
      flags.budget.bounded = true;
      continue;
    }
    if (take_int("--memory-budget-mb", arg, &i, 1, 1 << 20, &n)) {
      if (flags.usage_error) return flags;
      flags.budget.memory =
          std::make_shared<MemoryBudget>(static_cast<uint64_t>(n) << 20);
      flags.budget.budget.SetMemory(flags.budget.memory.get());
      flags.budget.bounded = true;
      continue;
    }
    if (take_int("--threads", arg, &i, 1, exec::kMaxThreads, &n)) {
      if (flags.usage_error) return flags;
      flags.budget.threads = static_cast<int>(n);
      continue;
    }
    if (TakeFlagValue("--metrics-json", arg, argc, argv, &i, &value, &flags)) {
      if (flags.usage_error) return flags;
      flags.metrics_json_path = value;
      continue;
    }
    if (TakeFlagValue("--trace", arg, argc, argv, &i, &value, &flags)) {
      if (flags.usage_error) return flags;
      flags.trace_path = value;
      continue;
    }
    if (arg == "--explain") {
      flags.explain = true;
      continue;
    }
    if (TakeFlagValue("--explain-trace", arg, argc, argv, &i, &value,
                      &flags)) {
      if (flags.usage_error) return flags;
      flags.explain = true;
      flags.explain_trace_path = value;
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      flags.usage_error = true;
      return flags;
    }
    flags.args.push_back(std::move(arg));
  }
  return flags;
}

int RunCommand(const std::vector<std::string>& args, const CliBudget& budget) {
  const std::string& command = args[0];
  Result<DimensionSchema> ds = LoadSchemaFile(args[1]);
  if (!ds.ok()) return Fail(ds.status());

  // Let the explain renderers name categories after this command ends.
  g_category_names.clear();
  for (CategoryId c = 0; c < ds->hierarchy().num_categories(); ++c) {
    g_category_names.push_back(ds->hierarchy().CategoryName(c));
  }

  if (command == "check") return Check(*ds, budget);
  if (command == "dot") {
    std::printf("%s", ds->hierarchy().ToDot().c_str());
    return 0;
  }
  if (command == "minimize") return Minimize(*ds, budget);
  if (command == "report") {
    ReportOptions report_options;
    budget.Apply(&report_options.dimsat);
    Result<std::string> report = HeterogeneityReport(*ds, report_options);
    if (!report.ok()) return Fail(report.status());
    std::printf("%s", report->c_str());
    return 0;
  }
  if (command == "frozen" && args.size() >= 3) {
    return Frozen(*ds, args[2], budget);
  }
  if (command == "implies" && args.size() >= 3) {
    std::string text;
    for (size_t i = 2; i < args.size(); ++i) {
      if (i > 2) text += " ";
      text += args[i];
    }
    return ImpliesCmd(*ds, text, budget);
  }
  if (command == "summarizable" && args.size() >= 4) {
    std::vector<std::string> rest(args.begin() + 2, args.end());
    return Summarizable(*ds, rest, budget);
  }
  if (command == "validate" && args.size() >= 3) return Validate(*ds, args[2]);
  if (command == "mine" && args.size() >= 3) {
    Result<DimensionInstance> d =
        LoadInstanceFile(ds->hierarchy_ptr(), args[2]);
    if (!d.ok()) return Fail(d.status());
    MiningOptions mining_options;
    mining_options.budget = budget.get();
    Result<DimensionSchema> mined = MineSchema(*d, mining_options);
    if (!mined.ok()) return Fail(mined.status());
    std::printf("%s", SerializeSchema(*mined).c_str());
    return 0;
  }
  return Usage();
}

/// Writes the final metrics snapshot; failure to write is reported but
/// does not change the command's exit code.
void DumpMetrics(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (out) out << obs::MetricsRegistry::Global().ToJson() << "\n";
  if (!out) {
    std::fprintf(stderr, "warning: could not write metrics to '%s'\n",
                 path.c_str());
  }
}

int Run(int argc, char** argv) {
  CliFlags flags = ParseFlags(argc, argv);
  if (flags.usage_error) return kExitUsage;
  if (flags.args.size() < 2) return Usage();

  // Size the shared pool to the requested parallelism before anything
  // instantiates it.
  if (flags.budget.threads > 1) {
    exec::SetProcessPoolThreads(flags.budget.threads);
  }

  if (!flags.metrics_json_path.empty()) {
    obs::MetricsRegistry::Global().Enable();
  }
  if (!flags.trace_path.empty() &&
      !obs::TraceSink::Global().Open(flags.trace_path)) {
    std::fprintf(stderr, "error: cannot open trace file '%s'\n",
                 flags.trace_path.c_str());
    return kExitUsage;
  }
  if (flags.explain) {
    obs::SearchTreeRecorder::Global().Enable();
  }

  const int code = RunCommand(flags.args, flags.budget);

  if (flags.explain) {
    std::vector<obs::ExplainEvent> events =
        obs::SearchTreeRecorder::Global().Drain();
    const std::string report = obs::RenderExplainReport(
        events, [](int id) { return CategoryNameOf(id); });
    std::fprintf(stderr, "--- explain: %zu search-tree decisions",
                 events.size());
    const uint64_t dropped = obs::SearchTreeRecorder::Global().dropped();
    if (dropped > 0) {
      std::fprintf(stderr, " (%llu dropped to ring bounds)",
                   static_cast<unsigned long long>(dropped));
    }
    std::fprintf(stderr, " ---\n%s", report.c_str());
    if (!flags.explain_trace_path.empty()) {
      std::ofstream out(flags.explain_trace_path, std::ios::trunc);
      if (out) {
        out << obs::RenderChromeTrace(
                   events, [](int id) { return CategoryNameOf(id); })
            << "\n";
      }
      if (!out) {
        std::fprintf(stderr,
                     "warning: could not write explain trace to '%s'\n",
                     flags.explain_trace_path.c_str());
      }
    }
    obs::SearchTreeRecorder::Global().Disable();
  }

  if (!flags.metrics_json_path.empty()) {
    // Final gauge refresh so the export carries the quiescent memory
    // picture (reserved_bytes_now back to 0, peak_bytes at high water).
    if (flags.budget.memory) flags.budget.memory->PublishGauges();
    DumpMetrics(flags.metrics_json_path);
  }
  obs::TraceSink::Global().Close();
  return code;
}

}  // namespace
}  // namespace olapdc

int main(int argc, char** argv) { return olapdc::Run(argc, argv); }
