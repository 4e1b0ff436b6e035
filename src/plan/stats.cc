#include "src/plan/stats.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string_view>

namespace xdb {

namespace {

/// The number of distinct HashKeyLane values: an open-addressing set of the
/// hashes themselves. HashKeyLane mixes every payload bit, so the high bits
/// pick the slot (of any table size); 0 marks an empty slot and is counted
/// on the side. Hashes are probed in batches, each batch's slots prefetched
/// before the first is read.
class DistinctHashes {
 public:
  void Insert(uint64_t h) {
    pending_[pending_count_++] = h;
    if (pending_count_ == kBatch) Flush();
  }

  /// Sizes the table once for up to `lanes` distinct hashes, 2 slots each,
  /// instead of doubling its way up.
  void Reserve(size_t lanes) {
    Flush();
    if (2 * lanes > slots_.size()) Rehash(2 * lanes);
  }

  size_t size() {
    Flush();
    return count_ + (zero_ ? 1 : 0);
  }

 private:
  static constexpr size_t kBatch = 16;

  void Flush() {
    if (2 * (count_ + pending_count_) > slots_.size()) {
      Rehash(std::max<size_t>(64, 2 * slots_.size()));
    }
    for (size_t k = 0; k < pending_count_; ++k) {
      __builtin_prefetch(&slots_[Slot(pending_[k])]);
    }
    for (size_t k = 0; k < pending_count_; ++k) Probe(pending_[k]);
    pending_count_ = 0;
  }

  size_t Slot(uint64_t h) const {
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(h) * slots_.size()) >> 64);
  }

  void Probe(uint64_t h) {
    if (h == 0) {
      zero_ = true;
      return;
    }
    const size_t n = slots_.size();
    for (size_t i = Slot(h);; i = (i + 1 == n) ? 0 : i + 1) {
      if (slots_[i] == h) return;
      if (slots_[i] == 0) {
        slots_[i] = h;
        ++count_;
        return;
      }
    }
  }

  void Rehash(size_t slots) {
    std::vector<uint64_t> old(slots, 0);
    old.swap(slots_);
    count_ = 0;
    for (uint64_t h : old) {
      if (h != 0) Probe(h);
    }
  }

  std::vector<uint64_t> slots_;
  size_t count_ = 0;
  bool zero_ = false;
  uint64_t pending_[kBatch] = {};
  size_t pending_count_ = 0;
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

/// The value of an int-class lane of declared type `type`.
Value IntValue(TypeId type, int64_t v) {
  if (type == TypeId::kBool) return Value::Bool(v != 0);
  return type == TypeId::kDate ? Value::Date(v) : Value::Int64(v);
}

void StoreNdv(DistinctHashes* distinct, ColumnStats* cs) {
  cs->ndv = std::max<double>(1.0, static_cast<double>(distinct->size()));
}

// ---------------------------------------------------------------------------
// The lane path: boxed, frame-of-reference and RLE columns.

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

void FoldLanePath(const ColumnChunk& col, ColumnStats* cs) {
  DistinctHashes distinct;
  if (col.encoding() == ColumnEncoding::kBoxed) {
    MinMax<Value> mm;
    FoldLanes(col, &distinct,
              [&](size_t i, const KeyLane&) { mm.Add(col.GetValue(i)); });
    mm.Store([](const Value& v) { return v; }, cs);
  } else {
    // Frame-of-reference and RLE lanes are int-class: the payload is the
    // value.
    MinMax<int64_t> mm;
    FoldLanes(col, &distinct, [&](size_t, const KeyLane& lane) {
      mm.Add(static_cast<int64_t>(lane.payload));
    });
    const TypeId type = col.type();
    mm.Store([type](int64_t v) { return IntValue(type, v); }, cs);
  }
  StoreNdv(&distinct, cs);
}

// ---------------------------------------------------------------------------
// Kernels that read plain and dictionary lanes where they are stored. Each
// may skip a lane only when its bits or bytes equal a lane's it has already
// counted, so NDV, min and max are those of the lane path.

/// After this many counted lanes, a set holding more than half as many
/// hashes is sized once for the whole column.
constexpr size_t kProbeLanes = 1024;

/// A direct-mapped memory of recently counted lanes, keyed by a lane's bits
/// (ints, doubles) or by its string: Repeat(slot, key) is true when `key`
/// equals the lane remembered in `slot`, and otherwise remembers it there.
/// The first key asked about fills every slot.
template <typename Key>
class LaneMemory {
 public:
  static constexpr size_t kSlots = 256;

  bool Repeat(size_t slot, Key key) {
    if (!primed_) {
      std::fill(slots_, slots_ + kSlots, key);
      primed_ = true;
      return false;
    }
    if (Same(slots_[slot], key)) return true;
    slots_[slot] = key;
    return false;
  }

 private:
  static bool Same(uint64_t a, uint64_t b) { return a == b; }
  static bool Same(const std::string* a, const std::string* b) {
    return *a == *b;
  }

  Key slots_[kSlots] = {};
  bool primed_ = false;
};

/// The memory slot of a lane with these bits.
size_t MemorySlot(uint64_t bits) {
  return static_cast<size_t>((bits * 0x9e3779b97f4a7c15ULL) >> 56);
}

/// The memory slot of a string lane: by length, first byte and last byte.
size_t MemorySlot(const std::string& s) {
  if (s.empty()) return MemorySlot(uint64_t{0});
  return MemorySlot(s.size() ^
                    (uint64_t{static_cast<uint8_t>(s.front())} << 40) ^
                    (uint64_t{static_cast<uint8_t>(s.back())} << 48));
}

/// The non-NULL lanes of a column of `n` lanes and NULL map `nulls`.
size_t CountedLanes(const std::vector<uint8_t>& nulls, size_t n) {
  if (nulls.empty()) return n;
  return static_cast<size_t>(std::count(nulls.begin(), nulls.end(), 0));
}

/// Calls visit(i) on each non-NULL lane i < n, in order. Once kProbeLanes
/// lanes are visited, a set that already holds more than half as many
/// hashes is going to be large, so it is sized once for all of them.
template <typename Visit>
void VisitCounted(size_t n, const std::vector<uint8_t>& null_map,
                  DistinctHashes* distinct, const Visit& visit) {
  const uint8_t* nulls = null_map.empty() ? nullptr : null_map.data();
  size_t i = 0;
  for (size_t seen = 0; i < n && seen < kProbeLanes; ++i) {
    if (nulls != nullptr && nulls[i] != 0) continue;
    visit(i);
    ++seen;
  }
  if (i < n && distinct->size() > kProbeLanes / 2) {
    distinct->Reserve(CountedLanes(null_map, n));
  }
  for (; i < n; ++i) {
    if (nulls == nullptr || nulls[i] == 0) visit(i);
  }
}

/// Plain bool, int64 and date lanes, whose int-class key lane's payload is
/// the value. HashKeyLane is a bijection of the payload within the class, so
/// NDV is the number of distinct values: a bitmap over [min, max] counts
/// them when that range is dense (at most 8 bytes per counted lane above an
/// 8 KiB floor), and a set of the hashes otherwise.
void FoldInts(const ColumnChunk& col, ColumnStats* cs) {
  const size_t n = col.size();
  const int64_t* v = col.i64_data().data();
  const std::vector<uint8_t>& null_map = col.null_map();
  const uint8_t* nulls = null_map.empty() ? nullptr : null_map.data();
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  size_t counted = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool live = nulls == nullptr || nulls[i] == 0;
    lo = live ? std::min(lo, v[i]) : lo;
    hi = live ? std::max(hi, v[i]) : hi;
    counted += live ? 1 : 0;
  }
  if (counted == 0) {
    cs->ndv = 1.0;
    return;
  }
  cs->min = IntValue(col.type(), lo);
  cs->max = IntValue(col.type(), hi);
  // Unsigned: [INT64_MIN, INT64_MAX] is 2^64 - 1, not an overflow.
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (range < std::max<uint64_t>(64 * static_cast<uint64_t>(counted),
                                 uint64_t{1} << 16)) {
    std::vector<uint64_t> words(range / 64 + 1, 0);
    const uint64_t base = static_cast<uint64_t>(lo);
    for (size_t i = 0; i < n; ++i) {
      if (nulls != nullptr && nulls[i] != 0) continue;
      const uint64_t d = static_cast<uint64_t>(v[i]) - base;
      words[d / 64] |= uint64_t{1} << (d % 64);
    }
    size_t ndv = 0;
    for (uint64_t w : words) ndv += static_cast<size_t>(std::popcount(w));
    cs->ndv = static_cast<double>(ndv);
    return;
  }
  DistinctHashes distinct;
  LaneMemory<uint64_t> memory;
  VisitCounted(n, null_map, &distinct, [&](size_t i) {
    const auto bits = static_cast<uint64_t>(v[i]);
    if (memory.Repeat(MemorySlot(bits), bits)) return;
    distinct.Insert(HashKeyLane({KeyClass::kInt, bits}));
  });
  StoreNdv(&distinct, cs);
}

/// Plain doubles: one pass that hashes each lane's key lane straight into
/// the set. The memory is keyed by bit pattern (-0.0 and 0.0, or two NaNs,
/// are different keys with the lanes that DoubleKeyLane makes of them), and
/// min and max see every lane: a repeated NaN changes the max.
void FoldDoubles(const ColumnChunk& col, ColumnStats* cs) {
  const double* v = col.f64_data().data();
  DistinctHashes distinct;
  MinMax<double> mm;
  LaneMemory<uint64_t> memory;
  VisitCounted(col.size(), col.null_map(), &distinct, [&](size_t i) {
    const double d = v[i];
    mm.Add(d);
    const auto bits = std::bit_cast<uint64_t>(d);
    if (memory.Repeat(MemorySlot(bits), bits)) return;
    distinct.Insert(HashKeyLane(DoubleKeyLane(d)));
  });
  mm.Store(Value::Double, cs);
  StoreNdv(&distinct, cs);
}

Value StringValue(std::string_view s) { return Value::String(std::string(s)); }

/// Plain strings: each lane not remembered is hashed once. The memory is
/// keyed by length, first byte and last byte and compares the bytes; a
/// remembered lane equals one already counted, so it moves neither NDV nor
/// min nor max.
void FoldStrings(const ColumnChunk& col, ColumnStats* cs) {
  const std::string* strs = col.str_data().data();
  DistinctHashes distinct;
  MinMax<std::string_view> mm;
  LaneMemory<const std::string*> memory;
  VisitCounted(col.size(), col.null_map(), &distinct, [&](size_t i) {
    const std::string& s = strs[i];
    if (memory.Repeat(MemorySlot(s), &s)) return;
    mm.Add(s);
    distinct.Insert(HashKeyLane(StringKeyLane(s)));
  });
  mm.Store(StringValue, cs);
  StoreNdv(&distinct, cs);
}

/// Dictionary strings: only the entries that a non-NULL lane references
/// count (a gathered dictionary keeps its parent's other entries, and a NULL
/// lane carries code 0); each is hashed once.
void FoldDictionary(const ColumnChunk& col, ColumnStats* cs) {
  const std::vector<std::string>& dict = col.dict();
  const uint32_t* codes = col.codes().data();
  const std::vector<uint8_t>& null_map = col.null_map();
  const uint8_t* nulls = null_map.empty() ? nullptr : null_map.data();
  std::vector<uint8_t> referenced(dict.size(), 0);
  for (size_t i = 0; i < col.size(); ++i) {
    if (nulls == nullptr || nulls[i] == 0) referenced[codes[i]] = 1;
  }
  DistinctHashes distinct;
  MinMax<std::string_view> mm;
  for (size_t e = 0; e < dict.size(); ++e) {
    if (referenced[e] == 0) continue;
    mm.Add(dict[e]);
    distinct.Insert(HashKeyLane(StringKeyLane(dict[e])));
  }
  mm.Store(StringValue, cs);
  StoreNdv(&distinct, cs);
}

/// NDV, min and max of a column that is not a reference.
void FoldColumn(const ColumnChunk& col, ColumnStats* cs) {
  switch (col.encoding()) {
    case ColumnEncoding::kPlain:
      if (col.type() == TypeId::kDouble) return FoldDoubles(col, cs);
      if (col.type() == TypeId::kString) return FoldStrings(col, cs);
      return FoldInts(col, cs);
    case ColumnEncoding::kDictionary:
      return FoldDictionary(col, cs);
    default:
      return FoldLanePath(col, cs);
  }
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
