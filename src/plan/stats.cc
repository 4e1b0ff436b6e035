#include "src/plan/stats.h"

#include <algorithm>
#include <string_view>

namespace xdb {

namespace {

/// The number of distinct HashKeyLane values: an open-addressing set of the
/// hashes themselves. HashKeyLane mixes every payload bit, so the low bits
/// pick the slot; 0 marks an empty slot and is counted on the side.
class DistinctHashes {
 public:
  void Insert(uint64_t h) {
    if (h == 0) {
      zero_ = true;
      return;
    }
    if (2 * (count_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      if (slots_[i] == h) return;
      if (slots_[i] == 0) {
        slots_[i] = h;
        ++count_;
        return;
      }
    }
  }

  size_t size() const { return count_ + (zero_ ? 1 : 0); }

 private:
  void Grow() {
    std::vector<uint64_t> old(std::max<size_t>(64, 2 * slots_.size()), 0);
    old.swap(slots_);
    count_ = 0;
    for (uint64_t h : old) {
      if (h != 0) Insert(h);
    }
  }

  std::vector<uint64_t> slots_;
  size_t count_ = 0;
  bool zero_ = false;
};

/// Running min and max under Value::Compare's strict < and >: the first of
/// equal values stays (-0.0 then 0.0 keeps -0.0), a NaN min stays, and a
/// NaN max is replaced by the next value, exactly as for boxed Values.
template <typename T>
struct MinMax {
  bool seen = false;
  T min{};
  T max{};

  void Add(const T& v) {
    if (!seen || v < min) min = v;
    if (!seen || !(v < max || v == max)) max = v;  // Compare(v, max) > 0
    seen = true;
  }

  template <typename Make>
  void Store(const Make& make, ColumnStats* cs) const {
    if (!seen) return;
    cs->min = make(min);
    cs->max = make(max);
  }
};

/// Calls fn(i, lane) on each non-NULL lane of `col` (not a reference) after
/// counting its key lane's hash, which is Value::Hash of the lane.
template <typename Fn>
void FoldLanes(const ColumnChunk& col, DistinctHashes* distinct,
               const Fn& fn) {
  constexpr size_t kBlock = 1024;
  KeyLane lanes[kBlock];
  for (size_t begin = 0; begin < col.size(); begin += kBlock) {
    const size_t end = std::min(col.size(), begin + kBlock);
    col.DecodeKeyLanes(begin, end, lanes);
    for (size_t k = 0; k < end - begin; ++k) {
      if (lanes[k].cls == KeyClass::kNull) continue;
      distinct->Insert(HashKeyLane(lanes[k]));
      fn(begin + k, lanes[k]);
    }
  }
}

/// NDV, min and max of a column that is not a reference. Only a boxed
/// column builds Values; the others compare typed payloads.
void FoldColumn(const ColumnChunk& col, ColumnStats* cs) {
  DistinctHashes distinct;
  if (col.encoding() == ColumnEncoding::kBoxed) {
    MinMax<Value> mm;
    FoldLanes(col, &distinct,
              [&](size_t i, const KeyLane&) { mm.Add(col.GetValue(i)); });
    mm.Store([](const Value& v) { return v; }, cs);
  } else if (col.type() == TypeId::kDouble) {
    // Doubles are always plain. The payload, not the lane: a lane turns
    // -0.0 into 0.0 and integral doubles into the int class.
    MinMax<double> mm;
    FoldLanes(col, &distinct,
              [&](size_t i, const KeyLane&) { mm.Add(col.f64_data()[i]); });
    mm.Store(Value::Double, cs);
  } else if (col.type() == TypeId::kString) {
    MinMax<std::string_view> mm;
    FoldLanes(col, &distinct,
              [&](size_t i, const KeyLane&) { mm.Add(col.StringAt(i)); });
    mm.Store([](std::string_view s) { return Value::String(std::string(s)); },
             cs);
  } else {
    // Bool, int64 and date: the int-class lane's payload is the value.
    MinMax<int64_t> mm;
    FoldLanes(col, &distinct, [&](size_t, const KeyLane& lane) {
      mm.Add(static_cast<int64_t>(lane.payload));
    });
    const TypeId type = col.type();
    mm.Store(
        [type](int64_t v) {
          if (type == TypeId::kBool) return Value::Bool(v != 0);
          return type == TypeId::kDate ? Value::Date(v) : Value::Int64(v);
        },
        cs);
  }
  cs->ndv = std::max<double>(1.0, static_cast<double>(distinct.size()));
}

}  // namespace

TableStats ComputeTableStats(const Table& table) {
  TableStats stats;
  const size_t n = table.num_rows();
  stats.row_count = static_cast<double>(n);
  stats.columns.resize(table.schema().num_fields());
  for (size_t c = 0; c < stats.columns.size(); ++c) {
    const ColumnChunk& col = table.column(c);
    ColumnStats& cs = stats.columns[c];
    if (col.encoding() == ColumnEncoding::kReference) {
      // Operator outputs: stored tables are materialized before this.
      ColumnChunk owned = col;
      owned.Materialize();
      FoldColumn(owned, &cs);
    } else {
      FoldColumn(col, &cs);
    }
    cs.avg_width = n > 0 ? static_cast<double>(col.DecodedSize()) /
                               static_cast<double>(n)
                         : 8.0;
  }
  return stats;
}

}  // namespace xdb
