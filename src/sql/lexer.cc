#include "src/sql/lexer.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <unordered_set>

#include "src/common/str_util.h"

namespace xdb {
namespace sql {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kKeywords = {
      "SELECT", "FROM",   "WHERE",  "GROUP",  "BY",      "ORDER",
      "HAVING",
      "LIMIT",  "AS",     "AND",    "OR",     "NOT",     "BETWEEN",
      "LIKE",   "IN",     "IS",     "NULL",   "TRUE",    "FALSE",
      "CASE",   "WHEN",   "THEN",   "ELSE",   "END",     "CREATE",
      "VIEW",   "TABLE",  "FOREIGN", "SERVER", "OPTIONS", "DROP",
      "EXPLAIN", "ANALYZE", "DATE", "EXTRACT", "YEAR",  "ASC",   "DESC",
      "MATERIALIZED", "IF", "EXISTS", "DISTINCT",
      "SUM",    "AVG",    "COUNT",  "MIN",    "MAX",
  };
  return kKeywords;
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = input.size();

  auto peek = [&](size_t off = 0) -> char {
    return i + off < n ? input[i + off] : '\0';
  };

  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // -- line comment
    if (c == '-' && peek(1) == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    Token tok;
    tok.position = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) ||
                       input[i] == '_')) {
        ++i;
      }
      std::string word = input.substr(start, i - start);
      std::string upper = ToUpper(word);
      if (Keywords().count(upper)) {
        tok.type = TokenType::kKeyword;
        tok.text = upper;
      } else {
        tok.type = TokenType::kIdentifier;
        tok.text = ToLower(word);
      }
      tokens.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      size_t start = i;
      bool has_dot = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) ||
                       input[i] == '.')) {
        if (input[i] == '.') {
          if (has_dot) break;
          has_dot = true;
        }
        ++i;
      }
      // exponent
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        size_t j = i + 1;
        if (j < n && (input[j] == '+' || input[j] == '-')) ++j;
        if (j < n && std::isdigit(static_cast<unsigned char>(input[j]))) {
          i = j;
          while (i < n && std::isdigit(static_cast<unsigned char>(input[i])))
            ++i;
          has_dot = true;
        }
      }
      tok.type = TokenType::kNumber;
      tok.text = input.substr(start, i - start);
      tok.is_integer = !has_dot;
      // Integers parse exactly; a double only has to stay finite (strtod
      // flags underflow too, which rounds to zero or a subnormal and is
      // fine).
      const char* first = tok.text.data();
      const char* last = first + tok.text.size();
      if (tok.is_integer) {
        if (std::from_chars(first, last, tok.integer).ec != std::errc()) {
          return Status::ParseError("integer literal out of range: " +
                                    tok.text);
        }
      } else {
        errno = 0;
        tok.number = std::strtod(first, nullptr);
        if (errno == ERANGE && std::isinf(tok.number)) {
          return Status::ParseError("numeric literal out of range: " +
                                    tok.text);
        }
      }
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '\'') {
      ++i;
      std::string s;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (peek(1) == '\'') {  // escaped quote
            s += '\'';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        s += input[i++];
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(tok.position));
      }
      tok.type = TokenType::kString;
      tok.text = std::move(s);
      tokens.push_back(std::move(tok));
      continue;
    }
    if (c == '"' || c == '`') {
      char quote = c;
      ++i;
      std::string s;
      bool closed = false;
      while (i < n) {
        if (input[i] == quote) {
          ++i;
          closed = true;
          break;
        }
        s += input[i++];
      }
      if (!closed) {
        return Status::ParseError("unterminated quoted identifier at offset " +
                                  std::to_string(tok.position));
      }
      tok.type = TokenType::kIdentifier;
      tok.text = ToLower(s);
      tokens.push_back(std::move(tok));
      continue;
    }
    // multi-char operators
    if ((c == '<' && (peek(1) == '=' || peek(1) == '>')) ||
        (c == '>' && peek(1) == '=') || (c == '!' && peek(1) == '=')) {
      tok.type = TokenType::kOperator;
      tok.text = input.substr(i, 2);
      if (tok.text == "!=") tok.text = "<>";
      i += 2;
      tokens.push_back(std::move(tok));
      continue;
    }
    static const std::string kSingle = "+-*/=<>(),.;";
    if (kSingle.find(c) != std::string::npos) {
      tok.type = TokenType::kOperator;
      tok.text = std::string(1, c);
      ++i;
      tokens.push_back(std::move(tok));
      continue;
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at offset " + std::to_string(i));
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace sql
}  // namespace xdb
