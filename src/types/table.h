#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/types/column_chunk.h"
#include "src/types/schema.h"
#include "src/types/value.h"

namespace xdb {

/// \brief Approximate serialized size of a row (for transfer accounting).
size_t RowSerializedSize(const Row& row);

/// \brief In-memory relation: a schema plus one ColumnChunk per field.
///
/// This is the storage substrate of the simulated DBMS nodes and the only
/// thing operators pass to each other: typed columns, encoded at load time
/// for base tables, and for operator outputs either computed or references
/// to the lanes of their inputs' columns. Rows exist only at the edges —
/// AppendRow and the row constructor build columns, and rows()/row() decode
/// fresh copies for printing, oracles and tests. A table is built by one
/// writer and read-only once shared, so concurrent const readers need no
/// synchronization, and a reference column may share ownership of another
/// table's column (see ColumnChunk::Reference).
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);
  Table(Schema schema, std::vector<Row> rows);
  /// Operator output: `columns[c]` holds `num_rows` lanes of declared type
  /// `schema.field(c).type` (the type Encode() and the wire sizes use).
  Table(Schema schema, std::vector<ColumnChunk> columns, size_t num_rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  const std::vector<ColumnChunk>& columns() const { return columns_; }
  const ColumnChunk& column(size_t c) const { return columns_[c]; }

  /// Decodes every row (a fresh copy on each call).
  std::vector<Row> rows() const;
  /// Decodes row `i`.
  Row row(size_t i) const;

  /// Appends one row of schema().num_fields() values.
  void AppendRow(const Row& row);
  /// Pre-sizes every column for `n` total rows.
  void Reserve(size_t n);

  /// Re-encodes every column into its cheapest encoding (base tables, at
  /// load time).
  void Encode();
  /// Copies the lanes of every reference column into the column, so that
  /// the table owns all its lanes (stored relations).
  void Materialize();

  /// Total serialized size of all rows in row format (what the classic wire
  /// mode ships).
  size_t SerializedSize() const;

  /// Wire width of the columnar encoding (dictionary/RLE/FOR compressed;
  /// see ColumnChunk). Always <= SerializedSize().
  size_t EncodedSerializedSize() const;

  /// Renders the first `max_rows` rows as an ASCII table (for examples).
  std::string ToDisplayString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<ColumnChunk> columns_;
  size_t num_rows_ = 0;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace xdb
