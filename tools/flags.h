// Validated numeric flag parsing shared by olapdc, olapdcd, loadgen
// and chaos_campaign: empty or non-numeric text, trailing junk and
// out-of-range values are rejected with a message on stderr, instead
// of atoi/atof's silent 0 and ERANGE saturation. Callers exit 2
// (usage) when a parse fails. Thread-count flags are bounded by
// exec::kMaxThreads (exec/work_stealing_pool.h).

#ifndef OLAPDC_TOOLS_FLAGS_H_
#define OLAPDC_TOOLS_FLAGS_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace olapdc::tools {

/// Generous ceiling on every millisecond flag.
inline constexpr int64_t kMaxMsFlag = int64_t{1} << 40;

inline bool ParseInt64Flag(const char* flag, const std::string& text,
                           int64_t min, int64_t max, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE ||
      n < min || n > max) {
    std::fprintf(stderr,
                 "error: %s needs an integer in [%lld, %lld], got '%s'\n",
                 flag, static_cast<long long>(min),
                 static_cast<long long>(max), text.c_str());
    return false;
  }
  *out = n;
  return true;
}

inline bool ParseDoubleFlag(const char* flag, const std::string& text,
                            double min, double max, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE ||
      !(v >= min && v <= max)) {
    std::fprintf(stderr, "error: %s needs a number in [%g, %g], got '%s'\n",
                 flag, min, max, text.c_str());
    return false;
  }
  *out = v;
  return true;
}

}  // namespace olapdc::tools

#endif  // OLAPDC_TOOLS_FLAGS_H_
