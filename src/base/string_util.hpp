// string_util.hpp — small string helpers shared by the I/O layer and the
// name-based abstraction heuristics.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/checked.hpp"

namespace sdf {

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Splits `text` on `separator`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char separator);

/// True for the bytes std::isspace accepts in the C locale, the locale the
/// program runs in; inline, so a scanner pays no call per byte.
inline bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Appends the decimal digits of an integer to `out`, as operator<< writes
/// them in the C locale, without a stream or a temporary string.
template <typename Integer>
void append_decimal(std::string& out, Integer value) {
    char digits[24];
    const auto written = std::to_chars(digits, digits + sizeof digits, value);
    out.append(digits, written.ptr);
}

/// Parses a decimal integer; std::nullopt when `text` is not exactly one
/// well-formed int64.
std::optional<Int> parse_int(std::string_view text);

/// Splits an actor name into a non-numeric stem and a numeric suffix:
/// "A12" -> {"A", 12}; names without a trailing number yield no suffix.
/// Used by the automatic abstraction discovery ("group all Ai into A").
struct NameParts {
    std::string stem;
    std::optional<Int> index;
};
NameParts split_name_suffix(std::string_view name);

/// True when `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

}  // namespace sdf
