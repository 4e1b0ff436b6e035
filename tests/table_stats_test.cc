// ComputeTableStats reads each column by a kernel for its storage class
// (int bitmaps, fused double and string passes, referenced dictionary
// entries, key lanes for the other encodings) instead of boxing every lane
// into a Value. These tests hold it to the algorithm it replaced, kept
// below as the reference: for every column encoding, the edges of each
// kernel and the edge values of each type, NDV, min, max (type tag,
// NULL-ness, bit pattern) and avg_width must be the same.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/plan/stats.h"

namespace xdb {
namespace {

/// ComputeTableStats before it read key lanes: every non-NULL lane boxed
/// into a Value, NDV from an unordered_set of Value::Hash, min and max by
/// Value::Compare with strict < and >.
TableStats ReferenceStats(const Table& table) {
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

uint64_t Bits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

void ExpectSameValue(const Value& got, const Value& want, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.is_null(), want.is_null());
  EXPECT_EQ(got.type(), want.type());
  if (got.is_null() || want.is_null() || got.type() != want.type()) return;
  if (want.type() == TypeId::kDouble) {
    EXPECT_EQ(Bits(got.double_value()), Bits(want.double_value()))
        << got.double_value() << " vs " << want.double_value();
  } else if (want.type() == TypeId::kString) {
    EXPECT_EQ(got.string_value(), want.string_value());
  } else {
    EXPECT_EQ(got.int64_value(), want.int64_value());
  }
}

/// Statistics of a one-column table holding `col`, against the reference.
void ExpectSameStats(const ColumnChunk& col) {
  SCOPED_TRACE(std::string("encoding ") +
               ColumnEncodingToString(col.encoding()) + ", type " +
               TypeIdToString(col.type()));
  const Table table(Schema({{"c", col.type()}}), {col}, col.size());
  const TableStats got = ComputeTableStats(table);
  const TableStats want = ReferenceStats(table);
  EXPECT_EQ(got.row_count, want.row_count);
  ASSERT_EQ(got.columns.size(), 1u);
  EXPECT_EQ(got.columns[0].ndv, want.columns[0].ndv);
  ExpectSameValue(got.columns[0].min, want.columns[0].min, "min");
  ExpectSameValue(got.columns[0].max, want.columns[0].max, "max");
  EXPECT_EQ(got.columns[0].avg_width, want.columns[0].avg_width);
}

/// `col` itself, and read through reference chunks: every lane without a
/// position list, and a seeded list that repeats and drops lanes.
void ExpectSameStatsAllViews(const ColumnChunk& col, uint64_t seed) {
  ExpectSameStats(col);
  auto base = std::make_shared<const ColumnChunk>(col);
  ColumnChunk::Compositions composed;
  ExpectSameStats(ColumnChunk::Reference(base, nullptr, &composed));
  if (col.size() == 0) return;
  std::mt19937_64 rng(seed);
  auto pos = std::make_shared<ColumnChunk::Positions>();
  for (size_t k = 0; k < col.size(); ++k) {
    pos->push_back(static_cast<uint32_t>(rng() % col.size()));
  }
  ExpectSameStats(ColumnChunk::Reference(base, pos, &composed));
}

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();
const int64_t kMin64 = std::numeric_limits<int64_t>::min();
const int64_t kMax64 = std::numeric_limits<int64_t>::max();

/// Seeded lanes of one type, drawn from a pool that holds the type's edge
/// values, with `null_pct` percent NULLs. Built by appending Values, so the
/// chunk is plain; Encode() then picks its own encoding.
std::vector<Value> Lanes(TypeId type, size_t n, int null_pct,
                         std::mt19937_64* rng) {
  std::vector<Value> pool;
  switch (type) {
    case TypeId::kBool:
      pool = {Value::Bool(true), Value::Bool(false)};
      break;
    case TypeId::kInt64:
      pool = {Value::Int64(0), Value::Int64(-1), Value::Int64(7),
              Value::Int64(kMin64), Value::Int64(kMax64),
              Value::Int64(1 << 20)};
      break;
    case TypeId::kDouble:
      pool = {Value::Double(0.0),  Value::Double(-0.0), Value::Double(kNaN),
              Value::Double(kInf), Value::Double(-kInf), Value::Double(2.5),
              Value::Double(7.0),  Value::Double(-1e300)};
      break;
    case TypeId::kString:
      pool = {Value::String(""), Value::String("a"), Value::String("ab"),
              Value::String("b"), Value::String("zz top"),
              Value::String(std::string(40, 'q'))};
      break;
    case TypeId::kDate:
      pool = {Value::Date(0), Value::Date(-365), Value::Date(8035),
              Value::Date(10592)};
      break;
  }
  std::vector<Value> lanes;
  for (size_t i = 0; i < n; ++i) {
    if (static_cast<int>((*rng)() % 100) < null_pct) {
      lanes.push_back(Value::Null(type));
    } else {
      lanes.push_back(pool[(*rng)() % pool.size()]);
    }
  }
  return lanes;
}

TEST(TableStatsTest, MatchesTheBoxedAlgorithmOnEveryEncoding) {
  uint64_t seed = 1;
  for (TypeId type : {TypeId::kBool, TypeId::kInt64, TypeId::kDouble,
                      TypeId::kString, TypeId::kDate}) {
    for (int null_pct : {0, 50, 95, 99, 100}) {
      for (size_t n : {size_t{1}, size_t{3}, size_t{700}, size_t{2500}}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + ", nulls " +
                     std::to_string(null_pct) + "%, rows " +
                     std::to_string(n));
        std::mt19937_64 rng(seed++);
        ColumnChunk plain =
            ColumnChunk::FromValues(type, Lanes(type, n, null_pct, &rng));
        ASSERT_EQ(plain.encoding(), ColumnEncoding::kPlain);
        ExpectSameStatsAllViews(plain, seed);
        ColumnChunk encoded = plain;
        encoded.Encode();
        ExpectSameStatsAllViews(encoded, seed);
        // A gather of every other lane keeps a dictionary whole, so some
        // of its entries go unreferenced.
        std::vector<uint32_t> half;
        for (uint32_t i = 0; i < n; i += 2) half.push_back(i);
        ExpectSameStatsAllViews(encoded.Gather(half), seed);
      }
    }
  }
}

TEST(TableStatsTest, EncodingsUnderTestAreThere) {
  std::mt19937_64 rng(3);
  // Dictionary with unreferenced entries.
  std::vector<Value> words;
  for (int i = 0; i < 400; ++i) {
    words.push_back(Value::String("word" + std::to_string(i % 40)));
  }
  ColumnChunk dict = ColumnChunk::FromValues(TypeId::kString, words);
  dict.Encode();
  ASSERT_EQ(dict.encoding(), ColumnEncoding::kDictionary);
  ColumnChunk few = dict.Gather({5, 6, 7, 5});
  ASSERT_EQ(few.encoding(), ColumnEncoding::kDictionary);
  ASSERT_EQ(few.dict().size(), 40u);
  ExpectSameStatsAllViews(few, 4);

  // RLE: long null-free runs, including the int64 bounds.
  std::vector<int64_t> runs;
  for (int64_t v : {kMax64, int64_t{3}, kMin64, int64_t{-2}}) {
    runs.insert(runs.end(), 300, v);
  }
  ColumnChunk rle = ColumnChunk::Int64s(TypeId::kInt64, runs, {});
  rle.Encode();
  ASSERT_EQ(rle.encoding(), ColumnEncoding::kRle);
  ExpectSameStatsAllViews(rle, 5);

  // Frame of reference: a narrow range with NULLs, as int64 and as dates.
  for (TypeId type : {TypeId::kInt64, TypeId::kDate}) {
    std::vector<int64_t> values;
    std::vector<uint8_t> nulls;
    for (int i = 0; i < 1000; ++i) {
      values.push_back(8000 + static_cast<int64_t>(rng() % 200));
      nulls.push_back(rng() % 4 == 0 ? 1 : 0);
      if (nulls.back()) values.back() = 0;
    }
    ColumnChunk for_col = ColumnChunk::Int64s(type, values, nulls);
    for_col.Encode();
    ASSERT_EQ(for_col.encoding(), ColumnEncoding::kFor);
    ExpectSameStatsAllViews(for_col, 6);
  }

  // Boxed: lanes whose tags disagree with the declared type, NULLs of
  // other types, and numerics that compare equal across tags.
  for (int round = 0; round < 20; ++round) {
    std::vector<Value> mixed;
    for (int i = 0; i < 60; ++i) {
      switch (rng() % 7) {
        case 0: mixed.push_back(Value::Int64(static_cast<int64_t>(rng() % 5)));
          break;
        case 1: mixed.push_back(Value::Double(static_cast<double>(rng() % 5)));
          break;
        case 2: mixed.push_back(Value::Double(rng() % 2 ? 0.0 : -0.0));
          break;
        case 3: mixed.push_back(Value::Double(rng() % 2 ? kNaN : -kInf));
          break;
        case 4: mixed.push_back(Value::Null(TypeId::kString));
          break;
        case 5: mixed.push_back(Value::String("s" + std::to_string(rng() % 3)));
          break;
        default: mixed.push_back(Value::Date(static_cast<int64_t>(rng() % 5)));
          break;
      }
    }
    ColumnChunk boxed = ColumnChunk::FromValues(TypeId::kInt64, mixed);
    ASSERT_EQ(boxed.encoding(), ColumnEncoding::kBoxed);
    ExpectSameStatsAllViews(boxed, 7 + static_cast<uint64_t>(round));
  }
}

/// Min and max of a plain double column holding `values`, in order.
std::pair<Value, Value> DoubleRange(const std::vector<double>& values) {
  const ColumnChunk col = ColumnChunk::Doubles(values, {});
  ExpectSameStats(col);
  const Table table(Schema({{"d", TypeId::kDouble}}), {col}, col.size());
  const ColumnStats cs = ComputeTableStats(table).columns[0];
  return {cs.min, cs.max};
}

TEST(TableStatsTest, FirstOfEqualValuesWinsAndNaNBehavesAsInCompare) {
  // -0.0 == 0.0: the first one seen is both min and max.
  auto r = DoubleRange({-0.0, 0.0});
  EXPECT_EQ(Bits(r.first.double_value()), Bits(-0.0));
  EXPECT_EQ(Bits(r.second.double_value()), Bits(-0.0));
  r = DoubleRange({0.0, -0.0});
  EXPECT_EQ(Bits(r.first.double_value()), Bits(0.0));
  EXPECT_EQ(Bits(r.second.double_value()), Bits(0.0));
  // A NaN first stays the min; a NaN max gives way to the next value.
  r = DoubleRange({kNaN, 3.0, -1.0});
  EXPECT_TRUE(std::isnan(r.first.double_value()));
  EXPECT_EQ(r.second.double_value(), 3.0);
  r = DoubleRange({3.0, kNaN, -1.0});
  EXPECT_EQ(r.first.double_value(), -1.0);
  EXPECT_EQ(r.second.double_value(), -1.0);
  r = DoubleRange({3.0, -1.0, kNaN});
  EXPECT_EQ(r.first.double_value(), -1.0);
  EXPECT_TRUE(std::isnan(r.second.double_value()));
  r = DoubleRange({kInf, 2.0, -kInf});
  EXPECT_EQ(r.first.double_value(), -kInf);
  EXPECT_EQ(r.second.double_value(), kInf);
}

TEST(TableStatsTest, NdvCountsDistinctKeyLanes) {
  // 7 and 7.0 share a lane; so do 0.0 and -0.0. Strings count distinct
  // std::hash values.
  const ColumnChunk doubles =
      ColumnChunk::Doubles({7.0, 0.0, -0.0, 7.0, 2.5, kNaN, kNaN}, {});
  const ColumnChunk strings = ColumnChunk::FromValues(
      TypeId::kString, {Value::String("x"), Value::String("y"),
                        Value::String("x"), Value::Null(TypeId::kString)});
  const Table d(Schema({{"d", TypeId::kDouble}}), {doubles}, 7);
  const Table s(Schema({{"s", TypeId::kString}}), {strings}, 4);
  EXPECT_EQ(ComputeTableStats(d).columns[0].ndv, 4.0);
  EXPECT_EQ(ComputeTableStats(s).columns[0].ndv, 2.0);
  ExpectSameStats(doubles);
  ExpectSameStats(strings);
}

TEST(TableStatsTest, EmptyAndAllNullTables) {
  const Table empty(Schema({{"a", TypeId::kInt64}, {"b", TypeId::kString},
                            {"c", TypeId::kDouble}}));
  const TableStats got = ComputeTableStats(empty);
  const TableStats want = ReferenceStats(empty);
  ASSERT_EQ(got.columns.size(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(got.columns[c].ndv, 1.0);
    EXPECT_EQ(got.columns[c].avg_width, 8.0);
    ExpectSameValue(got.columns[c].min, want.columns[c].min, "min");
    ExpectSameValue(got.columns[c].max, want.columns[c].max, "max");
  }
  const ColumnChunk nulls = ColumnChunk::Int64s(TypeId::kDate, {0, 0, 0},
                                                {1, 1, 1});
  ExpectSameStats(nulls);
  for (TypeId type : {TypeId::kBool, TypeId::kInt64, TypeId::kDouble,
                      TypeId::kString, TypeId::kDate}) {
    ExpectSameStatsAllViews(ColumnChunk(type), 71);
  }
}

/// A plain int-class column of declared type `type`: `lo`, `lo + range`
/// and `extra` seeded values in between, with every lane after the second
/// NULL with probability `null_pct` percent.
ColumnChunk IntRange(TypeId type, int64_t lo, uint64_t range, size_t extra,
                     int null_pct, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int64_t> values = {lo, static_cast<int64_t>(
                                         static_cast<uint64_t>(lo) + range)};
  std::vector<uint8_t> nulls = {0, 0};
  for (size_t k = 0; k < extra; ++k) {
    const uint64_t off = range == std::numeric_limits<uint64_t>::max()
                             ? rng()
                             : rng() % (range + 1);
    values.push_back(static_cast<int64_t>(static_cast<uint64_t>(lo) + off));
    nulls.push_back(static_cast<int>(rng() % 100) < null_pct ? 1 : 0);
  }
  return ColumnChunk::Int64s(type, std::move(values), std::move(nulls));
}

TEST(TableStatsTest, IntRangesAroundTheBitmapCutoff) {
  // The distinct-value count of plain int-class lanes switches from a bitmap
  // over [min, max] to a hash set when the range reaches 64 per counted lane
  // or 2^16, whichever is larger; each side of both bounds, at several
  // offsets, and with repeats so that the set's memory has lanes to skip.
  uint64_t seed = 100;
  for (int64_t lo : {int64_t{0}, int64_t{-40000}, int64_t{12345},
                     kMin64, kMax64 - (int64_t{1} << 20)}) {
    for (uint64_t range : {uint64_t{0}, uint64_t{1}, uint64_t{63},
                           uint64_t{64}, uint64_t{65534}, uint64_t{65535},
                           uint64_t{65536}, uint64_t{65537}}) {
      for (size_t extra : {size_t{0}, size_t{10}, size_t{3000}}) {
        SCOPED_TRACE("lo " + std::to_string(lo) + ", range " +
                     std::to_string(range) + ", extra " +
                     std::to_string(extra));
        ExpectSameStats(IntRange(TypeId::kInt64, lo, range, extra, 0, seed++));
      }
    }
  }
  // 64 per counted lane: 2,000 lanes, so the cutoff is at 128,000.
  for (uint64_t range : {uint64_t{127999}, uint64_t{128000},
                         uint64_t{128001}}) {
    for (int null_pct : {0, 50}) {
      SCOPED_TRACE("range " + std::to_string(range) + ", nulls " +
                   std::to_string(null_pct));
      ColumnChunk col =
          IntRange(TypeId::kInt64, -7, range, 1998, null_pct, seed++);
      ExpectSameStatsAllViews(col, seed);
    }
  }
  // The whole int64 range is 2^64 - 1 wide.
  for (size_t extra : {size_t{0}, size_t{5}, size_t{2000}}) {
    ExpectSameStats(IntRange(TypeId::kInt64, kMin64,
                             std::numeric_limits<uint64_t>::max(), extra, 0,
                             seed++));
  }
  ExpectSameStats(ColumnChunk::Int64s(TypeId::kInt64,
                                      {kMax64, kMin64, kMax64, 0, kMin64},
                                      {}));
}

TEST(TableStatsTest, BoolAndDateColumns) {
  for (int null_pct : {0, 30, 90}) {
    for (size_t extra : {size_t{0}, size_t{7}, size_t{1500}}) {
      ExpectSameStatsAllViews(
          IntRange(TypeId::kBool, 0, 1, extra, null_pct, extra + 1), 11);
      ExpectSameStatsAllViews(
          IntRange(TypeId::kBool, 1, 0, extra, null_pct, extra + 2), 12);
      ExpectSameStatsAllViews(
          IntRange(TypeId::kDate, 8035, 2556, extra, null_pct, extra + 3), 13);
      ExpectSameStatsAllViews(
          IntRange(TypeId::kDate, -719162, 3652058, extra, null_pct,
                   extra + 4),
          14);
    }
  }
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

TEST(TableStatsTest, DoubleEdgeValuesInEveryPosition) {
  const double nan2 = FromBits(0xfff8000000000001ULL);
  ASSERT_TRUE(std::isnan(nan2));
  ASSERT_NE(Bits(nan2), Bits(kNaN));
  const std::vector<std::vector<double>> cases = {
      // A NaN repeated at the start, in the middle and at the end: the
      // second one is a lane already counted, yet it still moves the max.
      {kNaN, kNaN, 3.0, -1.0},
      {3.0, kNaN, 2.0, kNaN, 1.0},
      {3.0, kNaN, 2.0, kNaN},
      {3.0, -1.0, kNaN, 5.0, kNaN},
      {kNaN, 1.0, kNaN, 1.0, kNaN},
      // Two NaN bit patterns are two distinct lanes.
      {kNaN, nan2, kNaN, nan2},
      {nan2, 2.0, kNaN, 2.0, nan2},
      // -0.0 and 0.0 in both orders, repeated.
      {-0.0, 0.0, -0.0, 0.0},
      {0.0, -0.0, 0.0, -0.0},
      {1.0, -0.0, 0.0, -0.0, -1.0},
      {-1.0, 0.0, -0.0, 0.0, 1.0},
      {kInf, -kInf, kNaN, kInf, -kInf, kNaN},
      {7.0, 7.5, 7.0, 9007199254740992.0, 9007199254740993.0, 7.5},
  };
  for (const auto& values : cases) {
    ExpectSameStatsAllViews(ColumnChunk::Doubles(values, {}), values.size());
    std::vector<uint8_t> nulls(values.size(), 0);
    nulls[0] = 1;
    ExpectSameStatsAllViews(ColumnChunk::Doubles(values, nulls), 3);
  }
  // More distinct values than the memory has slots, each revisited after
  // others have taken its slot, NaNs and signed zeros among them.
  std::mt19937_64 rng(31);
  std::vector<double> pool;
  for (int k = 0; k < 1500; ++k) pool.push_back(k * 0.37 - 200.0);
  pool.insert(pool.end(), {kNaN, nan2, 0.0, -0.0, kInf});
  for (int round = 0; round < 4; ++round) {
    std::vector<double> values;
    for (int k = 0; k < 6000; ++k) values.push_back(pool[rng() % pool.size()]);
    ExpectSameStats(ColumnChunk::Doubles(values, {}));
    for (int k = 0; k < 6000; ++k) values[k] = pool[(k * 7 + round) % 300];
    ExpectSameStats(ColumnChunk::Doubles(values, {}));
  }
}

TEST(TableStatsTest, StringsThatShareLengthAndEndBytes) {
  std::vector<Value> words;
  for (int round = 0; round < 3; ++round) {
    for (const char* w : {"axxb", "ayyb", "axyb", "axxb", "azzb", "ayyb",
                          "", "a", "ab", "a\x01" "b", "a\xff" "b", ""}) {
      words.push_back(Value::String(w));
    }
  }
  // Pairs that agree in length and both end bytes, interleaved so each
  // displaces the other from a memory slot.
  std::mt19937_64 rng(41);
  for (int k = 0; k < 3000; ++k) {
    const int mid = static_cast<int>(rng() % 700);
    words.push_back(Value::String("k" + std::to_string(1000 + mid) + "z"));
  }
  const ColumnChunk col = ColumnChunk::FromValues(TypeId::kString, words);
  ASSERT_EQ(col.encoding(), ColumnEncoding::kPlain);
  ExpectSameStatsAllViews(col, 42);
}

TEST(TableStatsTest, DictionaryCountsOnlyReferencedCodes) {
  // Code 0 is "zz", the largest entry; the gathered chunk below refers to
  // it only through NULL lanes, which carry code 0.
  std::vector<Value> words = {Value::String("zz")};
  for (int i = 1; i <= 300; ++i) {
    words.push_back(i % 9 == 0 ? Value::Null(TypeId::kString)
                               : Value::String("w" + std::to_string(i % 30)));
  }
  ColumnChunk dict = ColumnChunk::FromValues(TypeId::kString, words);
  dict.Encode();
  ASSERT_EQ(dict.encoding(), ColumnEncoding::kDictionary);
  ExpectSameStatsAllViews(dict, 51);
  std::vector<uint32_t> lanes;
  // Lanes 9, 12, 15, ...: every third of them (9, 18, ...) is NULL.
  for (uint32_t i = 9; i <= 300; i += 3) lanes.push_back(i);
  const ColumnChunk some = dict.Gather(lanes);
  ASSERT_EQ(some.encoding(), ColumnEncoding::kDictionary);
  ASSERT_TRUE(some.IsNull(0));
  ASSERT_EQ(some.codes()[0], 0u);
  ExpectSameStatsAllViews(some, 52);
  const TableStats got =
      ComputeTableStats(Table(Schema({{"s", TypeId::kString}}), {some},
                              some.size()));
  EXPECT_EQ(got.columns[0].max.string_value(), "w9");
  EXPECT_EQ(got.columns[0].ndv, 10.0);
  // Only NULL lanes: no entry is referenced.
  const ColumnChunk nulls = dict.Gather({9, 18, 27});
  ASSERT_EQ(nulls.encoding(), ColumnEncoding::kDictionary);
  ExpectSameStatsAllViews(nulls, 53);
}

TEST(TableStatsTest, ReferenceColumnsWithAndWithoutPositions) {
  std::mt19937_64 rng(61);
  for (TypeId type : {TypeId::kBool, TypeId::kInt64, TypeId::kDouble,
                      TypeId::kString, TypeId::kDate}) {
    ColumnChunk col = ColumnChunk::FromValues(type, Lanes(type, 900, 20, &rng));
    for (bool encode : {false, true}) {
      if (encode) col.Encode();
      auto base = std::make_shared<const ColumnChunk>(col);
      ColumnChunk::Compositions composed;
      ExpectSameStats(ColumnChunk::Reference(base, nullptr, &composed));
      auto pos = std::make_shared<ColumnChunk::Positions>();
      for (uint32_t i = 0; i < 900; i += 3) pos->push_back(899 - i);
      const ColumnChunk ref = ColumnChunk::Reference(base, pos, &composed);
      ExpectSameStats(ref);
      // A reference to a reference reads the base through a composed list.
      auto inner = std::make_shared<const ColumnChunk>(ref);
      auto pos2 = std::make_shared<ColumnChunk::Positions>(
          ColumnChunk::Positions{0, 5, 5, 17, 299});
      ExpectSameStats(ColumnChunk::Reference(inner, pos2, &composed));
      // An empty list.
      ExpectSameStats(ColumnChunk::Reference(
          base, std::make_shared<ColumnChunk::Positions>(), &composed));
    }
  }
}

/// `ndv` distinct seeded values of one type, spread over a narrow or a wide
/// range.
std::vector<Value> DistinctPool(TypeId type, size_t ndv, bool wide,
                                std::mt19937_64* rng) {
  std::vector<Value> pool;
  const int64_t start = static_cast<int64_t>((*rng)() % 2000) - 1000;
  const uint64_t step = wide ? 1 + (*rng)() % 1000000 : 1 + (*rng)() % 3;
  for (size_t k = 0; k < ndv; ++k) {
    const int64_t v = static_cast<int64_t>(static_cast<uint64_t>(start) +
                                           step * k);
    switch (type) {
      case TypeId::kBool:
        pool.push_back(Value::Bool(k % 2 == 1));
        break;
      case TypeId::kInt64:
        pool.push_back(Value::Int64(v));
        break;
      case TypeId::kDate:
        pool.push_back(Value::Date(v % 3000000));
        break;
      case TypeId::kDouble:
        // Integral and fractional doubles: two key classes.
        pool.push_back(Value::Double(k % 3 == 0 ? static_cast<double>(v)
                                                : v * 0.25 + 0.125));
        break;
      case TypeId::kString:
        pool.push_back(Value::String(std::string(k % 5, 'p') +
                                     std::to_string(v)));
        break;
    }
  }
  return pool;
}

TEST(TableStatsTest, SeededSweepOverNdvAndNullDensity) {
  constexpr int kColumnsPerType = 210;
  for (TypeId type : {TypeId::kBool, TypeId::kInt64, TypeId::kDouble,
                      TypeId::kString, TypeId::kDate}) {
    for (int k = 0; k < kColumnsPerType; ++k) {
      const uint64_t seed = 1000 * static_cast<uint64_t>(type) + k;
      std::mt19937_64 rng(seed);
      const size_t n = 1 + rng() % 2500;
      // NDV from 1 to n, weighted towards both ends.
      size_t ndv = 1;
      switch (k % 4) {
        case 0: ndv = 1; break;
        case 1: ndv = n; break;
        case 2: ndv = 1 + rng() % 300; break;
        default: ndv = 1 + rng() % n; break;
      }
      ndv = std::min(ndv, n);
      const int null_pct = (k / 4) % 3 * 50;
      const std::vector<Value> pool = DistinctPool(type, ndv, k % 2 == 0, &rng);
      std::vector<Value> lanes;
      for (size_t i = 0; i < n; ++i) {
        if (static_cast<int>(rng() % 100) < null_pct) {
          lanes.push_back(Value::Null(type));
        } else {
          // Repeats in runs and in random order.
          lanes.push_back(pool[rng() % 4 == 0 ? i % pool.size()
                                              : rng() % pool.size()]);
        }
      }
      SCOPED_TRACE("seed " + std::to_string(seed) + ", rows " +
                   std::to_string(n) + ", ndv " + std::to_string(ndv) +
                   ", nulls " + std::to_string(null_pct) + "%");
      ColumnChunk col = ColumnChunk::FromValues(type, std::move(lanes));
      ASSERT_EQ(col.encoding(), ColumnEncoding::kPlain);
      ExpectSameStats(col);
      col.Encode();
      ExpectSameStats(col);
    }
  }
}

}  // namespace
}  // namespace xdb
