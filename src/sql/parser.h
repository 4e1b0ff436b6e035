#pragma once

#include <string>

#include "src/common/result.h"
#include "src/sql/ast.h"

namespace xdb {
namespace sql {

/// \brief Parses a single SQL statement (trailing semicolon allowed).
///
/// Supported grammar (the subset the XDB system needs end-to-end):
///   SELECT * | expr [AS alias], ...  (DISTINCT: kNotImplemented)
///     FROM [db.]table [AS alias], ...
///     [WHERE expr] [GROUP BY expr, ...]
///     [ORDER BY expr [ASC|DESC], ...] [LIMIT n]
///   CREATE [MATERIALIZED] VIEW name AS select
///   CREATE TABLE name AS select
///   CREATE FOREIGN TABLE name [(col, ...)] SERVER ident
///     [OPTIONS (table 'name')]
///   DROP TABLE|VIEW|FOREIGN TABLE [IF EXISTS] name
///   EXPLAIN select
Result<StatementPtr> ParseStatement(const std::string& text);

/// \brief Convenience: parses text that must be a SELECT.
Result<SelectPtr> ParseSelect(const std::string& text);

}  // namespace sql
}  // namespace xdb
