// The one strict unsigned-integer parse for text from outside the
// program: CLI flags, spec overrides, environment variables, instance,
// trace and partial-result files.
//
// `istream >>`, strtoul and stoull into an unsigned type all accept a
// leading '-' and negate it ("-1" reads as the type's maximum).  This
// takes digits only and an upper bound, and leaves the error text to the
// caller, which knows what the number names.  It never allocates, so
// set-up paths (scenario overrides in a grid's expansion) may call it
// freely.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace osp {

/// `text` as a decimal integer in [0, max], or nothing when it is empty,
/// holds anything but the digits 0-9 (no sign, space or base prefix), or
/// exceeds `max`.
inline std::optional<std::uint64_t> parse_unsigned(std::string_view text,
                                                   std::uint64_t max) {
  const char* end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [last, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || last != end || value > max) return std::nullopt;
  return value;
}

}  // namespace osp
