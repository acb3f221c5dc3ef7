#include "common/string_util.h"

namespace olapdc {

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  return JoinMapped(parts, sep, [](const std::string& s) { return s; });
}

std::string_view NextLine(std::string_view* rest) {
  const size_t eol = rest->find('\n');
  std::string_view line;
  if (eol == std::string_view::npos) {
    line = *rest;
    *rest = std::string_view();
  } else {
    line = rest->substr(0, eol);
    *rest = rest->substr(eol + 1);
  }
  return line;
}

}  // namespace olapdc
