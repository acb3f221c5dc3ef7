#include "obs/span.h"

#include <thread>

#include "obs/json.h"

namespace olapdc {
namespace obs {

namespace {

/// The thread's current span-parentage context. Spans install/restore
/// it RAII-style; the execution layer overwrites it for the duration of
/// a task with the context captured at spawn (ScopedTraceContext), so
/// parentage follows the logical strand of work, not the OS thread.
thread_local TraceContext tls_context;

/// Small stable per-thread id for span attribution (std::thread::id is
/// opaque and verbose in JSON).
int ThreadOrdinal() {
  static std::atomic<int> next{0};
  thread_local int ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TraceContext CurrentTraceContext() { return tls_context; }

ScopedTraceContext::ScopedTraceContext(const TraceContext& context)
    : saved_(tls_context) {
  tls_context = context;
}

ScopedTraceContext::~ScopedTraceContext() { tls_context = saved_; }

TraceSink& TraceSink::Global() {
  static TraceSink* sink = new TraceSink();
  return *sink;
}

bool TraceSink::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    enabled_.store(false, std::memory_order_relaxed);
    return false;
  }
  if (!have_epoch_) {
    epoch_ = std::chrono::steady_clock::now();
    have_epoch_ = true;
  }
  enabled_.store(true, std::memory_order_relaxed);
  return true;
}

void TraceSink::Close() {
  enabled_.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  have_epoch_ = false;
}

double TraceSink::NowUs() const {
  if (!enabled()) return 0;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceSink::EmitLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fputs(line.c_str(), file_);
    std::fputc('\n', file_);
  }
}

ObsSpan::ObsSpan(std::string_view name)
    : active_(TraceSink::Global().enabled()) {
  if (!active_) return;
  name_ = std::string(name);
  saved_context_ = tls_context;
  parent_ = saved_context_.span_id;
  depth_ = saved_context_.depth;
  id_ = NextSpanId();
  tls_context = TraceContext{id_, depth_ + 1};
  start_us_ = TraceSink::Global().NowUs();
}

ObsSpan::~ObsSpan() {
  if (!active_) return;
  tls_context = saved_context_;
  TraceSink& sink = TraceSink::Global();
  const double end_us = sink.NowUs();
  std::string line = "{\"name\": " + JsonString(name_) +
                     ", \"id\": " + std::to_string(id_) +
                     ", \"parent\": " + std::to_string(parent_) +
                     ", \"thread\": " + std::to_string(ThreadOrdinal()) +
                     ", \"depth\": " + std::to_string(depth_) +
                     ", \"start_us\": " + JsonNumber(start_us_) +
                     ", \"dur_us\": " + JsonNumber(end_us - start_us_);
  if (!stats_.empty()) {
    line += ", \"stats\": {";
    bool first = true;
    for (const auto& [key, value] : stats_) {
      if (!first) line += ", ";
      first = false;
      line += JsonString(key) + ": " + value;
    }
    line += "}";
  }
  line += "}";
  sink.EmitLine(line);
}

void ObsSpan::AddStat(std::string_view key, uint64_t value) {
  if (active_) stats_.emplace_back(std::string(key), std::to_string(value));
}

void ObsSpan::AddStat(std::string_view key, int64_t value) {
  if (active_) stats_.emplace_back(std::string(key), std::to_string(value));
}

void ObsSpan::AddStat(std::string_view key, double value) {
  if (active_) stats_.emplace_back(std::string(key), JsonNumber(value));
}

void ObsSpan::AddStat(std::string_view key, std::string_view value) {
  if (active_) stats_.emplace_back(std::string(key), JsonString(value));
}

void ObsSpan::AddStat(std::string_view key, bool value) {
  if (active_) {
    stats_.emplace_back(std::string(key), value ? "true" : "false");
  }
}

}  // namespace obs
}  // namespace olapdc
