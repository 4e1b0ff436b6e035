#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"

namespace xdb {
namespace sql {

enum class TokenType : uint8_t {
  kIdentifier,
  kKeyword,    // recognised SQL keyword (normalised uppercase in `text`)
  kNumber,
  kString,     // contents without quotes
  kOperator,   // punctuation / operators, text holds the lexeme
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  std::string text;
  double number = 0;      // kNumber with a '.' or an exponent
  int64_t integer = 0;    // kNumber without one (exact)
  bool is_integer = false;
  size_t position = 0;  // byte offset, for error messages
};

/// \brief Tokenises SQL text. Keywords are case-insensitive; identifiers
/// may be double-quoted or backquoted (dialect tolerance).
Result<std::vector<Token>> Tokenize(const std::string& input);

}  // namespace sql
}  // namespace xdb
