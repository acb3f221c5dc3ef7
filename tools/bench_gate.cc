// bench_gate — regression gate over the committed BENCH_*.json
// baselines (bench/bench_util.h reporters).
//
//   bench_gate --baseline BENCH_exec.json --current fresh.json \
//              [--default-threshold-pct 25] [--threshold ms=50] ...
//
// Rows are matched by index (the reporters emit a fixed grid in a
// deterministic order). Within a row, *latency-like* numeric fields —
// "ms", "us", "ns_per_task", or any field ending in _ms/_us/_ns —
// are gated lower-is-better: the gate fails when
//   current > baseline * (1 + threshold_pct / 100).
// Every other shared numeric field is reported informationally only
// (counters like expand_calls legitimately change with the workload,
// and throughput-like fields would need a higher-is-better gate —
// add a --threshold entry the day one matters).
//
// A second mode gates *robustness* reports instead of latency grids:
//
//   bench_gate --invariants <report.json>...
//
// accepts the chaos_campaign report format (BENCH_robustness.json,
// chaos_daemon_report.json) and fails unless "invariants_held" is true
// and "violations" is empty — so CI can block on "the chaos campaign
// found nothing" with the same binary that gates the latency
// baselines. When the report embeds a "crash_grid" object (the kill-9
// recovery grid from `chaos_campaign --crash`), that section's own
// "invariants_held" must also be true. Pass
// `--require-crash-grid <min_rounds>` before --invariants to make the
// section mandatory: a report without a crash grid, or with fewer
// rounds than the floor, fails the gate — so CI can insist the
// committed baseline actually ran the kill grid at scale instead of
// silently passing a sweep-only report.
//
// A third mode gates higher-is-better fields against an absolute
// floor (the latency gate is relative and lower-is-better, so ratios
// like a cache hit rate need their own direction):
//
//   bench_gate --current BENCH_cache.json --floor warm_hit_ratio=0.5
//
// Every row that carries the field must be >= the floor; a field that
// appears in no row is a usage error (a misspelled gate must not pass
// silently).
//
// A fourth mode holds deterministic counters (node counts, model
// counts) to their committed values exactly:
//
//   bench_gate --baseline BENCH_dimsat_ablation.json --current fresh.json
//              --exact expand_calls --exact check_calls
//
// Rows are matched by index and must carry the same "workload" and
// "config" strings. Every baseline row that carries an exact field
// must carry the same value in the current row; a differing value or a
// missing row fails, and a field that appears in no baseline row is a
// usage error. Like --floor, this mode gates no latency field.
//
// Exit codes: 0 = within thresholds / invariants held, 1 = regression
// or violated invariant, 2 = usage or unreadable/ill-formed input.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "io/json_parse.h"

namespace olapdc::tools {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitRegression = 1;
constexpr int kExitUsage = 2;

int Usage() {
  std::fprintf(
      stderr,
      "usage: bench_gate --baseline <BENCH.json> --current <BENCH.json>\n"
      "                  [--default-threshold-pct <p>] "
      "[--threshold <field>=<p>]...\n"
      "       bench_gate [--require-crash-grid <min_rounds>] "
      "--invariants <report.json>...\n"
      "       bench_gate --current <BENCH.json> --floor <field>=<min>...\n"
      "       bench_gate --baseline <BENCH.json> --current <BENCH.json> "
      "--exact <field>...\n"
      "gates latency-like fields (ms/us/ns_per_task/*_ms/*_us/*_ns) at\n"
      "current <= baseline * (1 + p/100); other numeric fields are\n"
      "reported but not gated. --invariants instead checks chaos\n"
      "campaign reports: \"invariants_held\" must be true with an empty\n"
      "\"violations\" array, and an embedded \"crash_grid\" section must\n"
      "itself hold; --require-crash-grid makes that section mandatory\n"
      "with at least <min_rounds> rounds. --floor gates higher-is-better\n"
      "fields: every row carrying the field must be >= the floor.\n"
      "--exact holds a field to its baseline value in every row, rows\n"
      "matched by index with equal \"workload\" and \"config\".\n"
      "exit codes: 0 within thresholds, 1 regression/violation, 2 "
      "usage/parse\n");
  return kExitUsage;
}

/// --invariants mode: every report must say invariants_held=true with
/// zero violations. A report embedding a "crash_grid" object (the
/// kill-9 grid from `chaos_campaign --crash`) must also hold inside
/// that section; with `require_crash_grid`, a report *without* the
/// section — or with fewer than `min_crash_rounds` rounds — fails, so
/// CI can insist the baseline actually exercised the kill grid.
int CheckInvariants(const std::vector<std::string>& paths,
                    bool require_crash_grid, double min_crash_rounds) {
  int bad = 0;
  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "bench_gate: cannot read '%s'\n", path.c_str());
      return kExitUsage;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    JsonValue doc;
    std::string error;
    if (!ParseJsonText(buffer.str(), &doc, &error) || !doc.is_object()) {
      std::fprintf(stderr, "bench_gate: '%s': %s\n", path.c_str(),
                   error.c_str());
      return kExitUsage;
    }
    const JsonValue* held = doc.Find("invariants_held");
    const JsonValue* violations = doc.Find("violations");
    if (held == nullptr || !held->is_bool() || violations == nullptr ||
        !violations->is_array()) {
      std::fprintf(stderr,
                   "bench_gate: '%s' is not an invariants report "
                   "(missing invariants_held / violations)\n",
                   path.c_str());
      return kExitUsage;
    }
    const JsonValue* crash_grid = doc.Find("crash_grid");
    bool crash_ok = true;
    if (crash_grid != nullptr) {
      if (!crash_grid->is_object()) {
        std::printf("  FAIL  %s: \"crash_grid\" is not an object\n",
                    path.c_str());
        crash_ok = false;
      } else {
        const JsonValue* grid_held = crash_grid->Find("invariants_held");
        const JsonValue* rounds = crash_grid->Find("rounds");
        const double n_rounds =
            rounds != nullptr && rounds->is_number() ? rounds->number_value : 0;
        if (grid_held == nullptr || !grid_held->is_bool() ||
            !grid_held->bool_value) {
          std::printf("  FAIL  %s: crash_grid invariants_held != true\n",
                      path.c_str());
          crash_ok = false;
        } else if (require_crash_grid && n_rounds < min_crash_rounds) {
          std::printf("  FAIL  %s: crash_grid rounds %g < required %g\n",
                      path.c_str(), n_rounds, min_crash_rounds);
          crash_ok = false;
        } else {
          std::printf("  ok    %s: crash_grid held (%g rounds)\n",
                      path.c_str(), n_rounds);
        }
      }
    } else if (require_crash_grid) {
      std::printf("  FAIL  %s: no \"crash_grid\" section but "
                  "--require-crash-grid was given\n",
                  path.c_str());
      crash_ok = false;
    }
    if (held->bool_value && violations->array.empty() && crash_ok) {
      std::printf("  ok    %s: invariants held\n", path.c_str());
      continue;
    }
    ++bad;
    std::printf("  FAIL  %s: %zu violation(s), invariants_held=%s\n",
                path.c_str(), violations->array.size(),
                held->bool_value ? "true" : "false");
    for (const JsonValue& v : violations->array) {
      const JsonValue* what = v.Find("what");
      const JsonValue* site = v.Find("site");
      std::printf("        [%s] %s\n",
                  site != nullptr && site->is_string()
                      ? site->string_value.c_str()
                      : "?",
                  what != nullptr && what->is_string()
                      ? what->string_value.c_str()
                      : "(unstructured violation)");
    }
  }
  std::printf("bench_gate: %zu report(s), %d with violations\n", paths.size(),
              bad);
  return bad > 0 ? kExitRegression : kExitOk;
}

bool LatencyLike(const std::string& field) {
  if (field == "ms" || field == "us" || field == "ns_per_task") return true;
  auto ends_with = [&](const char* suffix) {
    const size_t n = std::char_traits<char>::length(suffix);
    return field.size() >= n &&
           field.compare(field.size() - n, n, suffix) == 0;
  };
  return ends_with("_ms") || ends_with("_us") || ends_with("_ns");
}

/// A short row label from the row's string/integer identity fields
/// (mode, workload, threads, ...), so a report line names the grid
/// point, not just "row 7".
std::string RowLabel(const JsonValue& row) {
  std::string label;
  for (const auto& [key, value] : row.object) {
    if (value.is_string()) {
      if (!label.empty()) label += " ";
      label += key + "=" + value.string_value;
    } else if (value.is_number() && !LatencyLike(key) &&
               (key == "threads" || key == "seed" || key == "size")) {
      if (!label.empty()) label += " ";
      std::ostringstream num;
      num << value.number_value;
      label += key + "=" + num.str();
    }
  }
  return label;
}

bool LoadBench(const std::string& path, JsonValue* out, std::string* bench,
               const JsonValue** rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_gate: cannot read '%s'\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!ParseJsonText(buffer.str(), out, &error)) {
    std::fprintf(stderr, "bench_gate: '%s': %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  const JsonValue* name = out->Find("bench");
  *bench = (name != nullptr && name->is_string()) ? name->string_value : "?";
  *rows = out->Find("rows");
  if (*rows == nullptr || !(*rows)->is_array()) {
    std::fprintf(stderr, "bench_gate: '%s' has no \"rows\" array\n",
                 path.c_str());
    return false;
  }
  return true;
}

/// --floor mode: every row of `path` that carries a floored field must
/// be >= the floor. Higher-is-better, absolute — the complement of the
/// relative lower-is-better latency gate.
int CheckFloors(const std::string& path,
                const std::map<std::string, double>& floors) {
  JsonValue doc;
  std::string bench;
  const JsonValue* rows = nullptr;
  if (!LoadBench(path, &doc, &bench, &rows)) return kExitUsage;
  int failures = 0;
  for (const auto& [field, min_value] : floors) {
    int checked = 0;
    int exempt = 0;
    for (size_t i = 0; i < rows->array.size(); ++i) {
      const JsonValue* value = rows->array[i].Find(field);
      if (value == nullptr || !value->is_number()) continue;
      ++checked;
      // Rows may self-exempt from floors when the claim is unmeasurable
      // on the producing host: "single_core_host" (no parallel speedup
      // physically possible) or the generic "floor_exempt" (a claim
      // that needs hardware the host lacks). Failing the gate there
      // would punish the machine, not catch a regression.
      const JsonValue* single = rows->array[i].Find("single_core_host");
      const JsonValue* generic = rows->array[i].Find("floor_exempt");
      const bool exempted =
          (single != nullptr && single->is_bool() && single->bool_value) ||
          (generic != nullptr && generic->is_bool() && generic->bool_value);
      if (exempted) {
        ++exempt;
        std::printf("  skip  %s[%zu]: %s %g (host-exempt row)\n",
                    bench.c_str(), i, field.c_str(), value->number_value);
        continue;
      }
      if (value->number_value < min_value) {
        ++failures;
        std::printf("  FAIL  %s[%zu]: %s %g < floor %g\n", bench.c_str(), i,
                    field.c_str(), value->number_value, min_value);
      } else {
        std::printf("  ok    %s[%zu]: %s %g >= floor %g\n", bench.c_str(), i,
                    field.c_str(), value->number_value, min_value);
      }
    }
    if (checked == 0) {
      std::fprintf(stderr,
                   "bench_gate: no row in '%s' carries field '%s' — a "
                   "misspelled floor must not pass silently\n",
                   path.c_str(), field.c_str());
      return kExitUsage;
    }
    if (exempt == checked) {
      std::printf("  note  %s: every '%s' row is host-exempt — floor "
                  "not enforced on this machine\n",
                  bench.c_str(), field.c_str());
    }
  }
  std::printf("bench_gate: %s: %zu floor(s), %d failure(s)\n", bench.c_str(),
              floors.size(), failures);
  return failures > 0 ? kExitRegression : kExitOk;
}

/// The row's `key` string, or "" when it has none.
std::string StringField(const JsonValue& row, const char* key) {
  const JsonValue* value = row.Find(key);
  return value != nullptr && value->is_string() ? value->string_value : "";
}

/// --exact mode: every baseline row carrying an exact field must carry
/// the same value in the current row at the same index, and that row
/// must name the same workload and config.
int CheckExact(const std::string& baseline_path,
               const std::string& current_path,
               const std::vector<std::string>& fields) {
  JsonValue baseline_doc, current_doc;
  std::string bench, current_bench;
  const JsonValue* baseline_rows = nullptr;
  const JsonValue* current_rows = nullptr;
  if (!LoadBench(baseline_path, &baseline_doc, &bench, &baseline_rows) ||
      !LoadBench(current_path, &current_doc, &current_bench,
                 &current_rows)) {
    return kExitUsage;
  }
  int failures = 0;
  for (const std::string& field : fields) {
    int checked = 0;
    for (size_t i = 0; i < baseline_rows->array.size(); ++i) {
      const JsonValue& base_row = baseline_rows->array[i];
      const JsonValue* base_value = base_row.Find(field);
      if (base_value == nullptr || !base_value->is_number()) continue;
      ++checked;
      const std::string label = RowLabel(base_row);
      if (i >= current_rows->array.size()) {
        ++failures;
        std::printf("  FAIL  %s[%zu] %s: row missing from current\n",
                    bench.c_str(), i, label.c_str());
        continue;
      }
      const JsonValue& curr_row = current_rows->array[i];
      if (StringField(base_row, "workload") !=
              StringField(curr_row, "workload") ||
          StringField(base_row, "config") != StringField(curr_row, "config")) {
        ++failures;
        std::printf("  FAIL  %s[%zu] %s: current row is %s\n", bench.c_str(),
                    i, label.c_str(), RowLabel(curr_row).c_str());
        continue;
      }
      const JsonValue* curr_value = curr_row.Find(field);
      if (curr_value == nullptr || !curr_value->is_number()) {
        ++failures;
        std::printf("  FAIL  %s[%zu] %s: %s %.17g -> missing\n", bench.c_str(),
                    i, label.c_str(), field.c_str(), base_value->number_value);
      } else if (curr_value->number_value != base_value->number_value) {
        ++failures;
        std::printf("  FAIL  %s[%zu] %s: %s %.17g -> %.17g\n", bench.c_str(), i,
                    label.c_str(), field.c_str(), base_value->number_value,
                    curr_value->number_value);
      } else {
        std::printf("  ok    %s[%zu] %s: %s %.17g\n", bench.c_str(), i,
                    label.c_str(), field.c_str(), base_value->number_value);
      }
    }
    if (checked == 0) {
      std::fprintf(stderr,
                   "bench_gate: no row in '%s' carries field '%s' — a "
                   "misspelled exact gate must not pass silently\n",
                   baseline_path.c_str(), field.c_str());
      return kExitUsage;
    }
  }
  std::printf("bench_gate: %s: %zu exact field(s), %d mismatch(es)\n",
              bench.c_str(), fields.size(), failures);
  return failures > 0 ? kExitRegression : kExitOk;
}

int Run(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double default_threshold_pct = 25;
  std::map<std::string, double> per_field_pct;
  std::map<std::string, double> floors;
  std::vector<std::string> exact;
  bool require_crash_grid = false;
  double min_crash_rounds = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--invariants") {
      std::vector<std::string> paths;
      for (++i; i < argc; ++i) paths.emplace_back(argv[i]);
      if (paths.empty()) return Usage();
      return CheckInvariants(paths, require_crash_grid, min_crash_rounds);
    } else if (arg == "--require-crash-grid") {
      const char* v = next();
      if (v == nullptr) return Usage();
      char* end = nullptr;
      min_crash_rounds = std::strtod(v, &end);
      if (end == v || *end != '\0' || min_crash_rounds < 1) return Usage();
      require_crash_grid = true;
    } else if (arg == "--baseline") {
      const char* v = next();
      if (v == nullptr) return Usage();
      baseline_path = v;
    } else if (arg == "--current") {
      const char* v = next();
      if (v == nullptr) return Usage();
      current_path = v;
    } else if (arg == "--default-threshold-pct") {
      const char* v = next();
      if (v == nullptr) return Usage();
      char* end = nullptr;
      default_threshold_pct = std::strtod(v, &end);
      if (end == v || *end != '\0' || default_threshold_pct < 0) {
        return Usage();
      }
    } else if (arg == "--threshold") {
      const char* v = next();
      if (v == nullptr) return Usage();
      const std::string spec = v;
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) return Usage();
      char* end = nullptr;
      const double pct = std::strtod(spec.c_str() + eq + 1, &end);
      if (*end != '\0' || pct < 0) return Usage();
      per_field_pct[spec.substr(0, eq)] = pct;
    } else if (arg == "--floor") {
      const char* v = next();
      if (v == nullptr) return Usage();
      const std::string spec = v;
      const size_t eq = spec.find('=');
      if (eq == std::string::npos) return Usage();
      char* end = nullptr;
      const double min_value = std::strtod(spec.c_str() + eq + 1, &end);
      if (end == spec.c_str() + eq + 1 || *end != '\0') return Usage();
      floors[spec.substr(0, eq)] = min_value;
    } else if (arg == "--exact") {
      const char* v = next();
      if (v == nullptr || *v == '\0') return Usage();
      exact.emplace_back(v);
    } else {
      return Usage();
    }
  }
  if (!exact.empty()) {
    if (floors.empty() && !baseline_path.empty() && !current_path.empty()) {
      return CheckExact(baseline_path, current_path, exact);
    }
    return Usage();
  }
  if (!floors.empty()) {
    if (baseline_path.empty() && !current_path.empty()) {
      return CheckFloors(current_path, floors);
    }
    return Usage();
  }
  if (baseline_path.empty() || current_path.empty()) return Usage();

  JsonValue baseline_doc, current_doc;
  std::string baseline_bench, current_bench;
  const JsonValue* baseline_rows = nullptr;
  const JsonValue* current_rows = nullptr;
  if (!LoadBench(baseline_path, &baseline_doc, &baseline_bench,
                 &baseline_rows) ||
      !LoadBench(current_path, &current_doc, &current_bench, &current_rows)) {
    return kExitUsage;
  }
  if (baseline_bench != current_bench) {
    std::fprintf(stderr,
                 "bench_gate: bench mismatch: baseline '%s' vs current "
                 "'%s'\n",
                 baseline_bench.c_str(), current_bench.c_str());
    return kExitUsage;
  }
  if (baseline_rows->array.size() != current_rows->array.size()) {
    std::fprintf(stderr,
                 "bench_gate: row count mismatch: baseline %zu vs current "
                 "%zu (grid changed — recommit the baseline)\n",
                 baseline_rows->array.size(), current_rows->array.size());
    return kExitUsage;
  }

  int regressions = 0;
  int gated_fields = 0;
  for (size_t i = 0; i < baseline_rows->array.size(); ++i) {
    const JsonValue& base_row = baseline_rows->array[i];
    const JsonValue& curr_row = current_rows->array[i];
    const std::string label = RowLabel(base_row);
    for (const auto& [field, base_value] : base_row.object) {
      if (!base_value.is_number()) continue;
      const JsonValue* curr_value = curr_row.Find(field);
      if (curr_value == nullptr || !curr_value->is_number()) continue;
      const double base = base_value.number_value;
      const double curr = curr_value->number_value;
      if (!LatencyLike(field)) {
        if (base != curr) {
          std::printf("  info  %s[%zu] %s: %s %g -> %g (not gated)\n",
                      baseline_bench.c_str(), i, label.c_str(), field.c_str(),
                      base, curr);
        }
        continue;
      }
      ++gated_fields;
      const auto it = per_field_pct.find(field);
      const double pct =
          it != per_field_pct.end() ? it->second : default_threshold_pct;
      if (base > 0 && curr > base * (1 + pct / 100)) {
        ++regressions;
        std::printf("  FAIL  %s[%zu] %s: %s %g -> %g (+%.1f%% > %.1f%%)\n",
                    baseline_bench.c_str(), i, label.c_str(), field.c_str(),
                    base, curr, (curr / base - 1) * 100, pct);
      } else {
        std::printf("  ok    %s[%zu] %s: %s %g -> %g\n",
                    baseline_bench.c_str(), i, label.c_str(), field.c_str(),
                    base, curr);
      }
    }
  }
  std::printf("bench_gate: %s: %d gated field(s), %d regression(s)\n",
              baseline_bench.c_str(), gated_fields, regressions);
  return regressions > 0 ? kExitRegression : kExitOk;
}

}  // namespace
}  // namespace olapdc::tools

int main(int argc, char** argv) { return olapdc::tools::Run(argc, argv); }
