// Small string helpers shared across olapdc modules.

#ifndef OLAPDC_COMMON_STRING_UTIL_H_
#define OLAPDC_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace olapdc {

/// Joins the elements of `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Joins fn(x) over `items` with `sep`; fn must return something
/// appendable to a std::string.
template <typename Container, typename Fn>
std::string JoinMapped(const Container& items, std::string_view sep, Fn&& fn) {
  std::string out;
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += sep;
    first = false;
    out += fn(item);
  }
  return out;
}

/// Consumes the next line of `*rest`, without its newline; the last
/// line need not end in one.
std::string_view NextLine(std::string_view* rest);

}  // namespace olapdc

#endif  // OLAPDC_COMMON_STRING_UTIL_H_
