#include "src/types/table.h"

#include <algorithm>
#include <cassert>

namespace xdb {

size_t RowSerializedSize(const Row& row) {
  size_t n = 0;
  for (const auto& v : row) n += v.SerializedSize();
  return n;
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  for (const Field& f : schema_.fields()) columns_.emplace_back(f.type);
}

Table::Table(Schema schema, std::vector<Row> rows) : Table(std::move(schema)) {
  Reserve(rows.size());
  for (const Row& r : rows) AppendRow(r);
}

Table::Table(Schema schema, std::vector<ColumnChunk> columns, size_t num_rows)
    : schema_(std::move(schema)),
      columns_(std::move(columns)),
      num_rows_(num_rows) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    assert(columns_[c].type() == schema_.field(c).type);
    assert(columns_[c].size() == num_rows_);
  }
}

std::vector<Row> Table::rows() const {
  std::vector<Row> out(num_rows_, Row(columns_.size()));
  for (size_t c = 0; c < columns_.size(); ++c) {
    for (size_t i = 0; i < num_rows_; ++i) out[i][c] = columns_[c].GetValue(i);
  }
  return out;
}

Row Table::row(size_t i) const {
  Row out;
  out.reserve(columns_.size());
  for (const ColumnChunk& c : columns_) out.push_back(c.GetValue(i));
  return out;
}

void Table::AppendRow(const Row& row) {
  assert(row.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(row[c]);
  ++num_rows_;
}

void Table::Reserve(size_t n) {
  for (ColumnChunk& c : columns_) c.Reserve(n);
}

void Table::Encode() {
  for (ColumnChunk& c : columns_) c.Encode();
}

void Table::Materialize() {
  for (ColumnChunk& c : columns_) c.Materialize();
}

size_t Table::SerializedSize() const {
  size_t n = 0;
  for (const ColumnChunk& c : columns_) n += c.DecodedSize();
  return n;
}

size_t Table::EncodedSerializedSize() const {
  size_t n = 0;
  for (const ColumnChunk& c : columns_) n += c.EncodedSize();
  return n;
}

std::string Table::ToDisplayString(size_t max_rows) const {
  // Compute column widths over header + shown rows.
  size_t shown = std::min(max_rows, num_rows_);
  std::vector<size_t> widths(schema_.num_fields());
  std::vector<std::vector<std::string>> cells(shown);
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    widths[c] = schema_.field(c).name.size();
  }
  for (size_t r = 0; r < shown; ++r) {
    cells[r].resize(schema_.num_fields());
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      cells[r][c] = columns_[c].GetValue(r).ToString();
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  std::string out;
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    out += (c ? " | " : "| ") + pad(schema_.field(c).name, widths[c]);
  }
  out += " |\n";
  for (size_t c = 0; c < schema_.num_fields(); ++c) {
    out += (c ? "-+-" : "+-") + std::string(widths[c], '-');
  }
  out += "-+\n";
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < schema_.num_fields(); ++c) {
      out += (c ? " | " : "| ") + pad(cells[r][c], widths[c]);
    }
    out += " |\n";
  }
  if (shown < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - shown) + " more rows)\n";
  }
  return out;
}

}  // namespace xdb
