// Strict parsers for numeric command-line values.
//
// The whole text must be one plain decimal number: a sign, leading or
// trailing junk, an out-of-range value and (for reals) inf/nan are errors,
// so a typo can never wrap around or silently become 0. On error the
// parsers return nullopt and describe the problem, with the offending
// character position, in `*why`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace arinoc {

/// Unsigned decimal integer in [0, max].
std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t max, std::string* why);

/// Non-negative finite real (decimal or exponent notation, e.g. 5e-4).
std::optional<double> parse_real(std::string_view text, std::string* why);

}  // namespace arinoc
