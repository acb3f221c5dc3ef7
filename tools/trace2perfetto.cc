// trace2perfetto — converts a TraceSink JSONL span capture (the CLI's
// `--trace <path>` output; one completed span per line with id,
// parent, thread, depth, start_us, dur_us, stats) into Chrome
// trace_event JSON loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
//   trace2perfetto <trace.jsonl> [<out.json>]     (default: stdout)
//
// Each span becomes a "X" (complete) event on its recording thread's
// track; span stats, id, and parent ride along in args, so the
// parentage stitched across work-steals (obs/span.h) is inspectable
// in the UI. Lines that fail to parse are skipped with a warning —
// a truncated capture (process killed mid-write) still converts.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "io/json_parse.h"
#include "obs/json.h"

namespace olapdc::tools {
namespace {

/// Re-renders a parsed JSON value (only the shapes span stats use:
/// scalars) back to JSON text for the args object.
std::string RenderScalar(const JsonValue& value) {
  switch (value.type) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return value.bool_value ? "true" : "false";
    case JsonValue::Type::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", value.number_value);
      return buf;
    }
    case JsonValue::Type::kString: return obs::JsonString(value.string_value);
    default: return "null";
  }
}

int Run(int argc, char** argv) {
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr,
                 "usage: trace2perfetto <trace.jsonl> [<out.json>]\n"
                 "converts olapdc --trace output to Chrome trace_event "
                 "JSON (open in ui.perfetto.dev)\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "trace2perfetto: cannot read '%s'\n", argv[1]);
    return 2;
  }

  std::ostringstream events;
  bool first = true;
  size_t lineno = 0;
  size_t skipped = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue span;
    std::string error;
    if (!ParseJsonText(line, &span, &error) || !span.is_object()) {
      std::fprintf(stderr, "trace2perfetto: skipping line %zu: %s\n", lineno,
                   error.c_str());
      ++skipped;
      continue;
    }
    const JsonValue* name = span.Find("name");
    const JsonValue* start = span.Find("start_us");
    const JsonValue* dur = span.Find("dur_us");
    const JsonValue* thread = span.Find("thread");
    if (name == nullptr || !name->is_string() || start == nullptr ||
        !start->is_number() || dur == nullptr || !dur->is_number()) {
      std::fprintf(stderr,
                   "trace2perfetto: skipping line %zu: not a span record\n",
                   lineno);
      ++skipped;
      continue;
    }
    if (!first) events << ",\n";
    first = false;
    events << "{\"name\": " << RenderScalar(*name)
           << ", \"ph\": \"X\", \"ts\": " << RenderScalar(*start)
           << ", \"dur\": " << RenderScalar(*dur) << ", \"pid\": 1"
           << ", \"tid\": "
           << (thread != nullptr && thread->is_number()
                   ? RenderScalar(*thread)
                   : "0")
           << ", \"args\": {";
    bool first_arg = true;
    for (const char* key : {"id", "parent", "depth"}) {
      const JsonValue* value = span.Find(key);
      if (value == nullptr) continue;
      if (!first_arg) events << ", ";
      first_arg = false;
      events << obs::JsonString(key) << ": " << RenderScalar(*value);
    }
    const JsonValue* stats = span.Find("stats");
    if (stats != nullptr && stats->is_object()) {
      for (const auto& [key, value] : stats->object) {
        if (!first_arg) events << ", ";
        first_arg = false;
        events << obs::JsonString(key) << ": " << RenderScalar(value);
      }
    }
    events << "}}";
  }

  const std::string payload =
      "{\"traceEvents\": [\n" + events.str() + "\n]}\n";
  if (argc == 3) {
    std::ofstream out(argv[2], std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "trace2perfetto: cannot write '%s'\n", argv[2]);
      return 2;
    }
    out << payload;
  } else {
    std::cout << payload;
  }
  if (skipped > 0) {
    std::fprintf(stderr, "trace2perfetto: %zu line(s) skipped\n", skipped);
  }
  return 0;
}

}  // namespace
}  // namespace olapdc::tools

int main(int argc, char** argv) { return olapdc::tools::Run(argc, argv); }
