// Shared helpers for the olapdc benchmark/figure harnesses.

#ifndef OLAPDC_BENCH_BENCH_UTIL_H_
#define OLAPDC_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "exec/work_stealing_pool.h"
#include "obs/json.h"

namespace olapdc {
namespace bench {

/// Wall-clock stopwatch in microseconds.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double ElapsedMs() const { return ElapsedUs() / 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Median, minimum and maximum of one config's repeated wall times.
struct Spread {
  double median_ms = 0;
  double min_ms = 0;
  double max_ms = 0;
};

/// Runs every config 7 times and returns each one's Spread, in config
/// order. A config is one measured run returning its wall time in
/// milliseconds. Repetitions alternate the config order (forward, then
/// reversed), so drift on the host — a warming cache, a neighbour's
/// load — falls on every config alike.
inline std::vector<Spread> RepeatAlternating(
    const std::vector<std::function<double()>>& configs) {
  constexpr int kRepetitions = 7;  // odd: the median is one sample
  std::vector<std::vector<double>> samples(configs.size());
  for (int rep = 0; rep < kRepetitions; ++rep) {
    for (size_t k = 0; k < configs.size(); ++k) {
      const size_t i = rep % 2 == 0 ? k : configs.size() - 1 - k;
      samples[i].push_back(configs[i]());
    }
  }
  std::vector<Spread> out;
  for (std::vector<double>& ms : samples) {
    std::sort(ms.begin(), ms.end());
    out.push_back({ms[ms.size() / 2], ms.front(), ms.back()});
  }
  return out;
}

/// Unwraps a Result in harness code (aborts with the error on failure).
template <typename T>
T Unwrap(Result<T> result) {
  OLAPDC_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void PrintRule() {
  std::printf("--------------------------------------------------------------------------\n");
}

/// Host and build provenance, rendered as one JSON object. Benchmark
/// numbers are only comparable against a floor or a committed baseline
/// when the JSON records which machine and build produced them — CI
/// (and the single-core speedup exemption in tools/bench_gate) keys
/// off these fields rather than guessing from the numbers.
inline std::string HostJson() {
  std::string flags;
#if defined(NDEBUG)
  flags += "NDEBUG";
#else
  flags += "DEBUG";
#endif
#if defined(__OPTIMIZE__)
  flags += " -O";
#endif
#if defined(__SANITIZE_ADDRESS__)
  flags += " asan";
#endif
#if defined(__SANITIZE_THREAD__)
  flags += " tsan";
#endif
#if defined(__AVX2__)
  flags += " avx2";
#endif
  std::string out = "{\"hardware_concurrency\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"effective_threads\": ";
  out += std::to_string(exec::DefaultThreadCount());
  out += ", \"compiler\": " + obs::JsonString(__VERSION__);
  out += ", \"build_flags\": " + obs::JsonString(flags);
  out += "}";
  return out;
}

/// Machine-readable benchmark output. A harness creates one reporter,
/// appends one Row per measured case, and calls WriteJson() at exit to
/// produce `BENCH_<name>.json` next to the binary:
///
///   {"bench": "<name>", "host": {...}, "rows": [{"case": ..., "ms": ...}, ...]}
///
/// so CI and offline tooling can diff benchmark runs without scraping
/// the human-oriented stdout tables. The "host" object (HostJson) makes
/// each file self-describing about the machine and build that produced
/// its numbers.
class BenchReporter {
 public:
  class Row {
   public:
    Row& Set(std::string_view key, double value) {
      return SetRendered(key, obs::JsonNumber(value));
    }
    Row& Set(std::string_view key, uint64_t value) {
      return SetRendered(key, std::to_string(value));
    }
    Row& Set(std::string_view key, int64_t value) {
      return SetRendered(key, std::to_string(value));
    }
    Row& Set(std::string_view key, int value) {
      return SetRendered(key, std::to_string(value));
    }
    Row& Set(std::string_view key, bool value) {
      return SetRendered(key, value ? "true" : "false");
    }
    Row& Set(std::string_view key, std::string_view value) {
      return SetRendered(key, obs::JsonString(value));
    }
    Row& Set(std::string_view key, const char* value) {
      return Set(key, std::string_view(value));
    }

   private:
    friend class BenchReporter;
    Row& SetRendered(std::string_view key, std::string rendered) {
      fields_.emplace_back(std::string(key), std::move(rendered));
      return *this;
    }
    /// Values pre-rendered as JSON, in insertion order.
    std::vector<std::pair<std::string, std::string>> fields_;
  };

  explicit BenchReporter(std::string name) : name_(std::move(name)) {}

  /// The reference stays valid for the reporter's lifetime (deque
  /// storage), so a harness can keep filling a row after adding more.
  Row& AddRow() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Writes BENCH_<name>.json into the current directory. Returns false
  /// (after printing a warning) when the file cannot be written.
  bool WriteJson() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (out) out << ToJson() << "\n";
    if (!out) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

  std::string ToJson() const {
    std::string out = "{\"bench\": " + obs::JsonString(name_) +
                      ", \"host\": " + HostJson() + ", \"rows\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{";
      for (size_t j = 0; j < rows_[i].fields_.size(); ++j) {
        if (j > 0) out += ", ";
        out += obs::JsonString(rows_[i].fields_[j].first) + ": " +
               rows_[i].fields_[j].second;
      }
      out += "}";
    }
    out += "]}";
    return out;
  }

 private:
  std::string name_;
  std::deque<Row> rows_;
};

}  // namespace bench
}  // namespace olapdc

#endif  // OLAPDC_BENCH_BENCH_UTIL_H_
