#include "src/plan/stats.h"

#include <unordered_set>

namespace xdb {

TableStats ComputeTableStats(const Table& table) {
  TableStats stats;
  const size_t n = table.num_rows();
  stats.row_count = static_cast<double>(n);
  stats.columns.resize(table.schema().num_fields());
  for (size_t c = 0; c < stats.columns.size(); ++c) {
    const ColumnChunk& col = table.column(c);
    ColumnStats& cs = stats.columns[c];
    std::unordered_set<size_t> distinct_hashes;
    for (size_t i = 0; i < n; ++i) {
      if (col.IsNull(i)) continue;
      Value v = col.GetValue(i);
      distinct_hashes.insert(v.Hash());
      if (cs.min.is_null() || v.Compare(cs.min) < 0) cs.min = v;
      if (cs.max.is_null() || v.Compare(cs.max) > 0) cs.max = std::move(v);
    }
    cs.ndv = std::max<double>(1.0,
                              static_cast<double>(distinct_hashes.size()));
    cs.avg_width = n > 0 ? static_cast<double>(col.DecodedSize()) /
                               static_cast<double>(n)
                         : 8.0;
  }
  return stats;
}

}  // namespace xdb
