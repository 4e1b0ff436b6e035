#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace xdb {

/// \brief 'A'-'Z' to 'a'-'z' and every other byte as it is: std::tolower in
/// the "C" locale (the program never calls setlocale), without the call.
inline char AsciiLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// \brief 'a'-'z' to 'A'-'Z' and every other byte as it is.
inline char AsciiUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

/// \brief ASCII-lowercases a string (SQL identifiers are case-insensitive).
std::string ToLower(std::string_view s);

/// \brief ASCII-uppercases a string.
std::string ToUpper(std::string_view s);

/// \brief Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// \brief Splits on a delimiter character; empty tokens are kept.
std::vector<std::string> Split(std::string_view s, char delim);

/// \brief Joins tokens with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// \brief Trims ASCII whitespace from both ends.
std::string Trim(std::string_view s);

/// \brief True if `s` starts with `prefix` (case-sensitive).
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief SQL LIKE match with % and _ wildcards (case-sensitive).
bool LikeMatch(std::string_view value, std::string_view pattern);

/// \brief Renders a byte count as a human-readable string (e.g. "1.5 MB").
std::string HumanBytes(double bytes);

/// \brief Replaces every run of ASCII digits with one '*' ("xdb_q12_t4" ->
/// "xdb_q*_t*"), so per-query names and literals share one bounded label.
std::string CollapseDigitRuns(std::string_view s);

}  // namespace xdb
