// Whole-value numeric flag parsing, shared by privbasis_cli and
// privbasis_server. Each helper takes all of `value` or nothing: no sign
// on an unsigned value, no space, no trailing byte, and no NaN or
// infinity, so "-1" cannot wrap, "abc" cannot read as 0 and "1.0x"
// cannot read as 1. On failure it names the flag on stderr and returns
// false; both tools then exit 2 with usage.
#ifndef PRIVBASIS_TOOLS_FLAG_PARSE_H_
#define PRIVBASIS_TOOLS_FLAG_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>

namespace privbasis::flags {

/// Parses all of `value` as an unsigned decimal in [lo, hi] into `*out`.
template <typename T>
bool ParseUint(const std::string& flag, std::string_view value, T* out,
               uint64_t lo = 0,
               uint64_t hi = static_cast<uint64_t>(
                   std::numeric_limits<T>::max())) {
  uint64_t parsed = 0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, parsed);
  if (ec != std::errc() || end != last || parsed < lo || parsed > hi) {
    std::fprintf(stderr,
                 "%s needs a whole number in [%llu, %llu], got \"%.*s\"\n",
                 flag.c_str(), static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi),
                 static_cast<int>(value.size()), value.data());
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

/// True when all of `value` is a finite number; stores it in `*out`.
inline bool ReadFinite(std::string_view value, double* out) {
  double parsed = 0.0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, parsed);
  if (ec != std::errc() || end != last || !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

/// Parses all of `value` as a finite number into `*out`. Its range is the
/// caller's to check.
inline bool ParseFinite(const std::string& flag, std::string_view value,
                        double* out) {
  if (ReadFinite(value, out)) return true;
  std::fprintf(stderr, "%s needs a finite number, got \"%.*s\"\n",
               flag.c_str(), static_cast<int>(value.size()), value.data());
  return false;
}

/// Parses all of `value` as a finite number greater than 0 into `*out`.
inline bool ParsePositive(const std::string& flag, std::string_view value,
                          double* out) {
  double parsed = 0.0;
  if (ReadFinite(value, &parsed) && parsed > 0.0) {
    *out = parsed;
    return true;
  }
  std::fprintf(stderr, "%s needs a finite number > 0, got \"%.*s\"\n",
               flag.c_str(), static_cast<int>(value.size()), value.data());
  return false;
}

}  // namespace privbasis::flags

#endif  // PRIVBASIS_TOOLS_FLAG_PARSE_H_
