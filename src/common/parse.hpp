#pragma once

// Strict numeric parsing for external text inputs (checkpoints, sweep
// manifests, graph descriptors). One shared helper so the "full token,
// nothing else, never throws" policy is defined once: the token must be
// entirely consumed and non-empty, or the parse fails.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

namespace rr {

inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || text.empty()) return std::nullopt;
  return value;
}

// ---- checked CLI-flag parsing ----
//
// Shared by the command-line drivers (rr_cli, rr_serverd): the strtoull
// idiom they used before accepted "--rounds abc" as 0 and "--k 1e6" as 1,
// silently running a different experiment than asked. These helpers apply
// the full-token parse above and fail *loudly*, naming the program and
// the flag, so a typo aborts the command (exit-code contract stays with
// the caller) instead of producing plausible garbage.

/// Parses `text` as a u64 CLI-flag value. On failure prints
/// "<prog>: <flag> expects an unsigned integer (got '<text>')" to stderr
/// and returns false, leaving `out` untouched.
inline bool parse_flag_u64(const char* prog, const char* flag,
                           std::string_view text, std::uint64_t& out) {
  const auto v = parse_u64(text);
  if (!v) {
    std::fprintf(stderr, "%s: %s expects an unsigned integer (got '%s')\n",
                 prog, flag, std::string(text).c_str());
    return false;
  }
  out = *v;
  return true;
}

/// As parse_flag_u64 with an inclusive range check (narrow targets:
/// node counts, shard counts, ports).
inline bool parse_flag_u64_range(const char* prog, const char* flag,
                                 std::string_view text, std::uint64_t min,
                                 std::uint64_t max, std::uint64_t& out) {
  std::uint64_t v = 0;
  if (!parse_flag_u64(prog, flag, text, v)) return false;
  if (v < min || v > max) {
    std::fprintf(stderr,
                 "%s: %s must be in [%llu, %llu] (got '%s')\n", prog, flag,
                 static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max),
                 std::string(text).c_str());
    return false;
  }
  out = v;
  return true;
}

/// Convenience for 32-bit flag targets.
inline bool parse_flag_u32(const char* prog, const char* flag,
                           std::string_view text, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!parse_flag_u64_range(prog, flag, text, 0, ~std::uint32_t{0}, v)) {
    return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// Checks an enumerated CLI-flag value against the names it may take. On
/// failure prints "<prog>: <flag> must be one of a, b, c (got <text>)"
/// to stderr and returns false.
inline bool parse_flag_enum(const char* prog, const char* flag,
                            std::string_view text,
                            std::initializer_list<std::string_view> names) {
  std::string list;
  for (const std::string_view name : names) {
    if (text == name) return true;
    if (!list.empty()) list += ", ";
    list += name;
  }
  std::fprintf(stderr, "%s: %s must be one of %s (got %s)\n", prog, flag,
               list.c_str(), std::string(text).c_str());
  return false;
}

}  // namespace rr
