#include "trace.h"

#include <cstdio>

#include "obs/json.h"

namespace perfbench {

int ThreadOrdinal() {
  static std::atomic<int> next{0};
  thread_local const int ordinal = next.fetch_add(1);
  return ordinal;
}

void SpanLog::Record(const char* name, uint64_t id, uint64_t parent,
                     uint64_t request_id, int depth, Clock::time_point start,
                     Clock::time_point end) {
  SpanRecord span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.request_id = request_id;
  span.thread = ThreadOrdinal();
  span.depth = depth;
  span.start_us = Us(start);
  span.dur_us = MicrosBetween(start, end);
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() < capacity_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    std::fprintf(out,
                 "{\"name\": %s, \"id\": %llu, \"parent\": %llu, \"thread\": "
                 "%d, \"depth\": %d, \"start_us\": %s, \"dur_us\": %s, "
                 "\"stats\": {\"request_id\": %llu}}\n",
                 olapdc::obs::JsonString(s.name).c_str(),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.thread, s.depth,
                 olapdc::obs::JsonNumber(s.start_us).c_str(),
                 olapdc::obs::JsonNumber(s.dur_us).c_str(),
                 static_cast<unsigned long long>(s.request_id));
  }
  return std::fclose(out) == 0;
}

size_t SpanLog::kept() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace perfbench
