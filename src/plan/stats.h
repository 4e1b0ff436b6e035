#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/types/table.h"

namespace xdb {

/// \brief Per-column statistics used by the cardinality estimator.
struct ColumnStats {
  double ndv = 1000.0;   // number of distinct values (estimate)
  Value min = Value::Null(TypeId::kInt64);
  Value max = Value::Null(TypeId::kInt64);
  double avg_width = 8.0;  // average serialized width in bytes

  bool has_min_max() const { return !min.is_null() && !max.is_null(); }
};

/// \brief Per-relation statistics.
struct TableStats {
  double row_count = 0;
  std::vector<ColumnStats> columns;  // aligned with the relation's schema
};

/// \brief Estimated properties of a plan node's output.
struct PlanEstimate {
  double rows = 0;
  double row_width = 64.0;  // average serialized bytes per row
  std::vector<ColumnStats> columns;

  double bytes() const { return rows * row_width; }
};

/// \brief Scans a table once and computes exact min/max/ndv/width stats.
///
/// This is the "ANALYZE" of the simulated DBMS: the statistics every
/// component DBMS exposes through its declarative interface (and which XDB
/// gathers in its preparation phase through the connectors).
TableStats ComputeTableStats(const Table& table);

}  // namespace xdb
