// Command-line parsing shared by uots_server, uots_client and
// uots_snapshot: `--name=VALUE` matching, and numbers read whole and
// range-checked, so a malformed or out-of-range value is rejected instead
// of wrapping (`--port=70000` used to serve on port 4464).

#ifndef UOTS_APPS_FLAGS_H_
#define UOTS_APPS_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>

namespace uots::cli {

/// True when `arg` is `name=VALUE`; stores VALUE in *out.
inline bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

/// Parses all of `s` as a finite number in [lo, hi]; false otherwise.
template <typename T>
bool ParseNumber(const std::string& s, T lo, T hi, T* out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || p != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace uots::cli

#endif  // UOTS_APPS_FLAGS_H_
