// The traced run's span log: spans are kept in memory and written once
// at the end as obs::TraceSink-style JSON lines (name, id, parent,
// thread, depth, start_us, dur_us, and the request id under "stats"),
// so tools/trace2perfetto renders them unchanged.

#ifndef OLAPDC_PERFBENCH_TRACE_H_
#define OLAPDC_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "bench_common.h"

namespace perfbench {

struct SpanRecord {
  /// A string literal (span names are the layer names of the report).
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request_id = 0;
  int thread = 0;
  int depth = 0;
  double start_us = 0;
  double dur_us = 0;
};

class SpanLog {
 public:
  /// Keeps at most `capacity` spans; later ones are counted as dropped
  /// (the per-layer statistics never depend on the log).
  explicit SpanLog(size_t capacity) : capacity_(capacity) {}

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// Microseconds since the log was created.
  double Us(Clock::time_point t) const { return MicrosBetween(epoch_, t); }

  void Record(const char* name, uint64_t id, uint64_t parent,
              uint64_t request_id, int depth, Clock::time_point start,
              Clock::time_point end);

  /// Writes every kept span as one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

  size_t kept() const;
  uint64_t dropped() const;

 private:
  const Clock::time_point epoch_ = Clock::now();
  const size_t capacity_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  uint64_t dropped_ = 0;
};

/// A small stable id of the calling thread.
int ThreadOrdinal();

}  // namespace perfbench

#endif  // OLAPDC_PERFBENCH_TRACE_H_
