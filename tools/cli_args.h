// Flag values shared by the rair_* command-line tools. Numbers are strict:
// a value is accepted only when the whole text is one number inside the
// flag's range, so "abc", "5x", "-1" or "" never run as a silently
// truncated number. Schemes are named by their labels (sim/scheme.h).
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/scheme.h"

namespace rair::cli {

/// Parses the value `text` of `flag` into `out` when all of it is one
/// number in [lo, hi]. Integers are decimal; with `hex` set, a 0x prefix
/// selects hexadecimal (a leading 0 alone never means octal). On failure
/// prints "<flag>: expected ..., got '<text>'" to stderr, leaves `out`
/// alone and returns false.
template <typename T>
bool parseNumber(const char* flag, const char* text, T& out,
                 std::type_identity_t<T> lo,
                 std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
                 bool hex = false) {
  static_assert(std::is_arithmetic_v<T>);
  const unsigned char first = static_cast<unsigned char>(text[0]);
  // strtoull wraps "-1" and every strto* skips leading blanks: neither is
  // a number as written.
  bool ok = first != '\0' && !std::isspace(first) &&
            (std::is_signed_v<T> || first != '-');
  const int base =
      hex && text[0] == '0' && (text[1] == 'x' || text[1] == 'X') ? 16 : 10;
  char* end = nullptr;
  errno = 0;
  T value{};
  if constexpr (std::is_floating_point_v<T>) {
    const double v = std::strtod(text, &end);
    ok = ok && std::isfinite(v) && v >= lo && v <= hi;
    value = static_cast<T>(v);
  } else if constexpr (std::is_signed_v<T>) {
    const long long v = std::strtoll(text, &end, base);
    ok = ok && v >= lo && v <= hi;
    value = static_cast<T>(v);
  } else {
    const unsigned long long v = std::strtoull(text, &end, base);
    ok = ok && v >= lo && v <= hi;
    value = static_cast<T>(v);
  }
  if (ok && errno == 0 && *end == '\0') {
    out = value;
    return true;
  }
  const auto str = [](T v) {
    if constexpr (std::is_floating_point_v<T>) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", static_cast<double>(v));
      return std::string(buf);
    } else {
      return std::to_string(v);
    }
  };
  const char* kind = std::is_floating_point_v<T> ? "a number" : "an integer";
  const std::string range =
      hi == std::numeric_limits<T>::max()
          ? " >= " + str(lo)
          : " in [" + str(lo) + ", " + str(hi) + "]";
  std::fprintf(stderr, "%s: expected %s%s, got '%s'\n", flag, kind,
               range.c_str(), text);
  return false;
}

/// Looks up the scheme labelled `label` into `out`. On an unknown label
/// prints it and every valid label to stderr and returns false.
inline bool parseScheme(const std::string& label, SchemeSpec& out) {
  if (auto s = schemeByLabel(label)) {
    out = std::move(*s);
    return true;
  }
  std::string valid;
  for (const SchemeSpec& s : labelledSchemes()) {
    if (!valid.empty()) valid += ", ";
    valid += s.label;
  }
  std::fprintf(stderr, "unknown scheme '%s' (valid labels: %s)\n",
               label.c_str(), valid.c_str());
  return false;
}

}  // namespace rair::cli
