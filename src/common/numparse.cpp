#include "common/numparse.hpp"

#include <charconv>
#include <cmath>

namespace arinoc {

namespace {

/// Shared prefix checks; returns false (filling `why`) on an empty value or
/// a leading sign.
bool check_start(std::string_view text, std::string* why) {
  if (text.empty()) {
    *why = "empty value";
    return false;
  }
  if (text[0] == '-' || text[0] == '+') {
    *why = "sign not allowed at position 1";
    return false;
  }
  return true;
}

std::string bad_char(std::string_view text, std::size_t pos) {
  return "unexpected character '" + std::string(1, text[pos]) +
         "' at position " + std::to_string(pos + 1);
}

}  // namespace

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t max, std::string* why) {
  if (!check_start(text, why)) return std::nullopt;
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c < '0' || c > '9') {
      *why = bad_char(text, i);
      return std::nullopt;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (digit > max || value > (max - digit) / 10) {
      *why = "out of range (max " + std::to_string(max) + ")";
      return std::nullopt;
    }
    value = value * 10 + digit;
  }
  return value;
}

std::optional<double> parse_real(std::string_view text, std::string* why) {
  if (!check_start(text, why)) return std::nullopt;
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    *why = "out of range";
    return std::nullopt;
  }
  if (ec != std::errc()) {
    *why = bad_char(text, 0);
    return std::nullopt;
  }
  if (ptr != end) {
    *why = bad_char(text, static_cast<std::size_t>(ptr - text.data()));
    return std::nullopt;
  }
  if (!std::isfinite(value)) {
    *why = "not a finite number";
    return std::nullopt;
  }
  return value;
}

}  // namespace arinoc
