// Property tests for the columnar storage: every encoding (plain /
// dictionary / RLE / frame-of-reference / boxed) must round-trip
// bit-identically to the row it was built from, the code-space kernels must
// match the scalar evaluator bit for bit, a Table's sizes must follow
// AppendRow and agree across concurrent readers, and the columnar wire must
// never change a federated query's result — only shrink its bytes.
//
// Suite names all start with "Columnar" so the ASan/UBSan and TSan CI jobs
// pick them up by regex.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <thread>

#include "src/expr/expr.h"
#include "src/expr/vector_eval.h"
#include "src/obs/metrics.h"
#include "src/tpch/distributions.h"
#include "src/tpch/queries.h"
#include "src/types/table.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

bool BitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  switch (a.type()) {
    case TypeId::kString:
      return a.string_value() == b.string_value();
    case TypeId::kDouble: {
      double x = a.double_value(), y = b.double_value();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    default:
      return a.int64_value() == b.int64_value();
  }
}

// Random single-column tables spanning the encoding space: every TypeId,
// null densities from none to mostly-null, cardinalities from constant to
// unique, sorted and shuffled, plus narrow ranges that trigger
// frame-of-reference and mixed-type columns that force the boxed fallback.
struct ColumnSpec {
  TypeId type;
  double null_density;
  int cardinality;    // distinct non-null values to draw from
  bool sorted;
  int64_t base;       // value offset: drives the FOR range
  int64_t stride;     // distance between distinct values
  bool mixed_types;   // inject foreign-typed lanes (boxed fallback)
};

std::vector<Row> GenerateColumn(const ColumnSpec& spec, size_t n,
                                std::mt19937* rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> pick(0, spec.cardinality - 1);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (unit(*rng) < spec.null_density) {
      rows.push_back(Row{Value::Null(spec.type)});
      continue;
    }
    if (spec.mixed_types && unit(*rng) < 0.05) {
      rows.push_back(Row{Value::String("stray")});
      continue;
    }
    const int64_t k = spec.base + int64_t(pick(*rng)) * spec.stride;
    switch (spec.type) {
      case TypeId::kBool:
        rows.push_back(Row{Value::Bool((k & 1) != 0)});
        break;
      case TypeId::kInt64:
        rows.push_back(Row{Value::Int64(k)});
        break;
      case TypeId::kDate:
        rows.push_back(Row{Value::Date(k)});
        break;
      case TypeId::kDouble:
        rows.push_back(Row{Value::Double(double(k) / 3.0)});
        break;
      case TypeId::kString: {
        std::string s = "v";
        s += std::to_string(k);
        rows.push_back(Row{Value::String(std::move(s))});
        break;
      }
    }
  }
  if (spec.sorted) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      if (a[0].is_null() != b[0].is_null()) return a[0].is_null();
      if (a[0].is_null()) return false;
      if (a[0].type() == TypeId::kString) {
        return a[0].string_value() < b[0].string_value();
      }
      if (a[0].type() == TypeId::kDouble) {
        return a[0].double_value() < b[0].double_value();
      }
      return a[0].int64_value() < b[0].int64_value();
    });
  }
  return rows;
}

// Column 0 of `rows` as an encoded chunk of declared type `t`.
ColumnChunk EncodeColumn(const std::vector<Row>& rows, TypeId t) {
  std::vector<Value> lanes;
  for (const Row& r : rows) lanes.push_back(r[0]);
  ColumnChunk c = ColumnChunk::FromValues(t, std::move(lanes));
  c.Encode();
  return c;
}

TEST(ColumnarRoundTrip, RandomizedBitIdentity) {
  std::mt19937 rng(20230407);
  const TypeId types[] = {TypeId::kBool, TypeId::kInt64, TypeId::kDate,
                          TypeId::kDouble, TypeId::kString};
  const double null_densities[] = {0.0, 0.01, 0.3, 0.9};
  const int cardinalities[] = {1, 3, 40, 5000};
  const int64_t strides[] = {1, 17, 100000, int64_t{1} << 40};
  std::uniform_int_distribution<size_t> len(0, 400);
  for (int trial = 0; trial < 300; ++trial) {
    ColumnSpec spec;
    spec.type = types[trial % 5];
    spec.null_density = null_densities[(trial / 5) % 4];
    spec.cardinality = cardinalities[(trial / 20) % 4];
    spec.sorted = (trial / 80) % 2 == 1;
    spec.base = trial % 3 == 0 ? -123456 : trial;
    spec.stride = strides[trial % 4];
    spec.mixed_types = trial % 29 == 0;
    const size_t n = len(rng);
    std::vector<Row> rows = GenerateColumn(spec, n, &rng);
    ColumnChunk chunk = EncodeColumn(rows, spec.type);
    SCOPED_TRACE("trial " + std::to_string(trial) + " encoding " +
                 ColumnEncodingToString(chunk.encoding()) + " n=" +
                 std::to_string(n));
    ASSERT_EQ(chunk.size(), n);
    // The modelled wire width never exceeds the row-format width.
    EXPECT_LE(chunk.EncodedSize(), chunk.DecodedSize());
    for (size_t i = 0; i < n; ++i) {
      // Value round-trip, bit for bit.
      EXPECT_TRUE(BitEqual(chunk.GetValue(i), rows[i][0]))
          << "lane " << i << ": " << chunk.GetValue(i).ToString() << " vs "
          << rows[i][0].ToString();
      // Normalized-key round-trip: group keys built from the chunk's key
      // lane (and its string bytes) must equal keys built from the row
      // value.
      KeyLane lane;
      chunk.DecodeKeyLanes(i, i + 1, &lane);
      std::string from_chunk, from_row;
      AppendNormalizedKey(lane,
                          lane.cls == KeyClass::kString
                              ? std::string_view(chunk.StringAt(i))
                              : std::string_view(),
                          &from_chunk);
      rows[i][0].AppendNormalizedKey(&from_row);
      EXPECT_EQ(from_chunk, from_row) << "lane " << i;
    }
  }
}

TEST(ColumnarEncodingChoice, PicksTheCheapRepresentation) {
  std::mt19937 rng(99);
  auto encode = [](const std::vector<Row>& rows, TypeId t) {
    return EncodeColumn(rows, t);
  };

  // Low-cardinality strings dictionary-encode.
  {
    std::vector<Row> rows;
    for (int i = 0; i < 1000; ++i) {
      rows.push_back(Row{Value::String(i % 2 ? "EUROPE" : "ASIA")});
    }
    EXPECT_EQ(encode(rows, TypeId::kString).encoding(),
              ColumnEncoding::kDictionary);
  }
  // Unique strings stay plain: a dictionary would only add code bytes.
  {
    std::vector<Row> rows;
    for (int i = 0; i < 1000; ++i) {
      rows.push_back(Row{Value::String("unique-" + std::to_string(i))});
    }
    EXPECT_EQ(encode(rows, TypeId::kString).encoding(),
              ColumnEncoding::kPlain);
  }
  // Sorted low-cardinality int64 run-length-encodes.
  {
    std::vector<Row> rows;
    for (int i = 0; i < 1000; ++i) rows.push_back(Row{Value::Int64(i / 250)});
    EXPECT_EQ(encode(rows, TypeId::kInt64).encoding(), ColumnEncoding::kRle);
  }
  // Scattered narrow-range int64 takes frame-of-reference offsets — even
  // when the range sits far from zero.
  {
    std::vector<Row> rows;
    std::uniform_int_distribution<int64_t> v(1000000000, 1000000255);
    for (int i = 0; i < 1000; ++i) rows.push_back(Row{Value::Int64(v(rng))});
    ColumnChunk c = encode(rows, TypeId::kInt64);
    EXPECT_EQ(c.encoding(), ColumnEncoding::kFor);
    // 1-byte offsets + 8-byte reference.
    EXPECT_EQ(c.EncodedSize(), 8u + 1000u);
  }
  // NULLs disable RLE but not FOR.
  {
    std::vector<Row> rows;
    std::uniform_int_distribution<int64_t> v(0, 60000);
    for (int i = 0; i < 1000; ++i) {
      rows.push_back(i % 10 == 0 ? Row{Value::Null(TypeId::kInt64)}
                                 : Row{Value::Int64(v(rng))});
    }
    EXPECT_EQ(encode(rows, TypeId::kInt64).encoding(), ColumnEncoding::kFor);
  }
  // Full-width random int64 stays plain: no narrow offset covers the range
  // (and the unsigned range arithmetic must not overflow into a bogus FOR).
  {
    std::vector<Row> rows;
    std::uniform_int_distribution<int64_t> v(
        std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max());
    for (int i = 0; i < 1000; ++i) rows.push_back(Row{Value::Int64(v(rng))});
    EXPECT_EQ(encode(rows, TypeId::kInt64).encoding(),
              ColumnEncoding::kPlain);
  }
  // A lane whose type tag disagrees with the declared type forces boxed.
  {
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) rows.push_back(Row{Value::Int64(i)});
    rows.push_back(Row{Value::String("stray")});
    ColumnChunk c = encode(rows, TypeId::kInt64);
    EXPECT_EQ(c.encoding(), ColumnEncoding::kBoxed);
    EXPECT_EQ(c.EncodedSize(), c.DecodedSize());
  }
}

TEST(ColumnarBatchEquivalence, CodeSpaceFiltersMatchScalar) {
  std::mt19937 rng(4242);
  const char* regions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                           "MIDDLE EAST"};
  Schema schema({{"k", TypeId::kInt64},
                 {"region", TypeId::kString},
                 {"d", TypeId::kDate},
                 {"x", TypeId::kDouble}});
  std::uniform_int_distribution<int64_t> key(100000, 100000 + 500);
  std::uniform_int_distribution<int> reg(0, 4);
  std::uniform_int_distribution<int64_t> day(8000, 9000);
  std::uniform_real_distribution<double> x(-5.0, 5.0);
  std::uniform_int_distribution<int> pct(0, 99);
  std::vector<Row> rows;
  for (int i = 0; i < 5000; ++i) {
    rows.push_back(Row{
        pct(rng) < 5 ? Value::Null(TypeId::kInt64) : Value::Int64(key(rng)),
        pct(rng) < 5 ? Value::Null(TypeId::kString)
                     : Value::String(regions[reg(rng)]),
        Value::Date(day(rng)),
        Value::Double(x(rng)),
    });
  }
  Table table(schema, rows);
  table.Encode();
  // The string column dictionary-encoded and the key column took FOR, so
  // the batch kernels below run in code space, not on decoded values.
  EXPECT_EQ(table.column(1).encoding(), ColumnEncoding::kDictionary);
  EXPECT_EQ(table.column(0).encoding(), ColumnEncoding::kFor);

  std::vector<ExprPtr> predicates;
  // Dictionary equality, including a literal absent from the dictionary.
  predicates.push_back(Expr::Binary(
      BinaryOp::kEq, Expr::BoundColumn(1, TypeId::kString, "region"),
      Expr::Literal(Value::String("EUROPE"))));
  predicates.push_back(Expr::Binary(
      BinaryOp::kEq, Expr::BoundColumn(1, TypeId::kString, "region"),
      Expr::Literal(Value::String("ATLANTIS"))));
  predicates.push_back(Expr::Binary(
      BinaryOp::kNe, Expr::BoundColumn(1, TypeId::kString, "region"),
      Expr::Literal(Value::String("ASIA"))));
  // FOR-encoded key compared against int literals, AND-chained with a date
  // range so selection-vector intersection runs over chunk gathers.
  predicates.push_back(Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGe, Expr::BoundColumn(0, TypeId::kInt64, "k"),
                   Expr::Literal(Value::Int64(100100))),
      Expr::Binary(BinaryOp::kLt, Expr::BoundColumn(2, TypeId::kDate, "d"),
                   Expr::Literal(Value::Date(8500)))));
  for (size_t p = 0; p < predicates.size(); ++p) {
    SCOPED_TRACE("predicate " + std::to_string(p));
    SelVector sel;
    SelRange(0, rows.size(), &sel);
    EvalPredicateBatch(*predicates[p], table.columns(), &sel);
    SelVector expected;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (EvalPredicate(*predicates[p], rows[i])) expected.push_back(i);
    }
    EXPECT_EQ(sel, expected);
  }

  // Projection gathers from every encoding match the scalar evaluator bit
  // for bit (doubles included).
  std::vector<ExprPtr> exprs;
  exprs.push_back(Expr::BoundColumn(1, TypeId::kString, "region"));
  exprs.push_back(Expr::Binary(BinaryOp::kAdd,
                               Expr::BoundColumn(0, TypeId::kInt64, "k"),
                               Expr::Literal(Value::Int64(7))));
  exprs.push_back(Expr::Binary(BinaryOp::kMul,
                               Expr::BoundColumn(3, TypeId::kDouble, "x"),
                               Expr::Literal(Value::Double(-0.5))));
  for (size_t e = 0; e < exprs.size(); ++e) {
    SCOPED_TRACE("expr " + std::to_string(e));
    SelVector sel;
    SelRange(0, rows.size(), &sel);
    const ColumnChunk out = EvalExprBatch(*exprs[e], table.columns(), sel);
    ASSERT_EQ(out.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(BitEqual(out.GetValue(i), EvalExpr(*exprs[e], rows[i])))
          << "lane " << i;
    }
  }
}

TEST(ColumnarTable, SizesFollowAppendRow) {
  Schema schema({{"a", TypeId::kInt64}, {"s", TypeId::kString}});
  Table t(schema);
  EXPECT_EQ(t.SerializedSize(), 0u);
  EXPECT_EQ(t.EncodedSerializedSize(), 0u);
  size_t size = 0;
  for (int i = 0; i < 100; ++i) {
    const Row row{Value::Int64(i % 4), Value::String("tag")};
    size += RowSerializedSize(row);
    t.AppendRow(row);
    ASSERT_EQ(t.SerializedSize(), size);
  }
  EXPECT_EQ(size, 100u * 8 + 100u * (4 + 3));
  const size_t encoded = t.EncodedSerializedSize();
  EXPECT_LT(encoded, size);

  // Encoding changes the representation, never the sizes.
  Table enc = t;
  enc.Encode();
  EXPECT_EQ(enc.column(1).encoding(), ColumnEncoding::kDictionary);
  EXPECT_EQ(enc.SerializedSize(), size);
  EXPECT_EQ(enc.EncodedSerializedSize(), encoded);

  // A row appended to an encoded table shows in both sizes.
  enc.AppendRow(Row{Value::Null(TypeId::kInt64), Value::String("tag")});
  EXPECT_EQ(enc.num_rows(), 101u);
  EXPECT_EQ(enc.SerializedSize(), size + 1 + 7);
  EXPECT_GT(enc.EncodedSerializedSize(), encoded);
  EXPECT_TRUE(BitEqual(enc.row(100)[0], Value::Null(TypeId::kInt64)));

  // A lane with a foreign tag boxes its column, which ships at row width.
  t.AppendRow(Row{Value::Double(2.5), Value::String("tag")});
  EXPECT_EQ(t.column(0).encoding(), ColumnEncoding::kBoxed);
  EXPECT_EQ(t.SerializedSize(), size + 8 + 7);
  EXPECT_EQ(t.column(0).EncodedSize(), t.column(0).DecodedSize());
  EXPECT_TRUE(BitEqual(t.row(100)[0], Value::Double(2.5)));
  EXPECT_TRUE(BitEqual(t.row(99)[0], Value::Int64(3)));
}

TEST(ColumnarConcurrency, SharedTableReadersRace) {
  Schema schema({{"a", TypeId::kInt64}, {"s", TypeId::kString}});
  std::vector<Row> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back(
        Row{Value::Int64(i % 100), Value::String(i % 2 ? "x" : "y")});
  }
  // Concurrent const readers of one shared table — as built and encoded —
  // see the same sizes, lanes and batch results.
  const Table plain(schema, std::move(rows));
  Table encoded = plain;
  encoded.Encode();
  ExprPtr pred = Expr::Binary(
      BinaryOp::kEq, Expr::BoundColumn(1, TypeId::kString, "s"),
      Expr::Literal(Value::String("x")));
  for (const Table* t : {&plain, static_cast<const Table*>(&encoded)}) {
    std::vector<std::thread> threads;
    std::vector<size_t> sums(8, 0);
    for (int w = 0; w < 8; ++w) {
      threads.emplace_back([t, &pred, &sums, w] {
        size_t acc = t->EncodedSerializedSize() + t->SerializedSize();
        for (size_t i = 0; i < t->num_rows(); i += 997) {
          acc += static_cast<size_t>(t->column(0).GetValue(i).int64_value());
        }
        SelVector sel;
        SelRange(0, t->num_rows(), &sel);
        EvalPredicateBatch(*pred, t->columns(), &sel);
        sums[w] = acc + sel.size();
      });
    }
    for (auto& th : threads) th.join();
    for (int w = 1; w < 8; ++w) EXPECT_EQ(sums[w], sums[0]);
  }
}

TEST(ColumnarWire, EncodedTransfersShrinkWithoutChangingResults) {
  const auto* q = tpch::FindQuery("Q3");
  ASSERT_NE(q, nullptr);

  auto run = [&](WireFormat wire, MetricsRegistry* reg) {
    auto fed = tpch::BuildTpchFederation(0.002, tpch::TD1());
    fed->set_wire_format(wire);
    if (reg != nullptr) fed->SetMetricsRegistry(reg);
    XdbSystem xdb(fed.get());
    return xdb.Query(q->sql);
  };

  MetricsRegistry raw_reg, col_reg;
  auto raw = run(WireFormat::kRawRows, &raw_reg);
  auto col = run(WireFormat::kColumnar, &col_reg);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_TRUE(col.ok()) << col.status().ToString();

  // Same answer, bit for bit (display includes every row and value).
  EXPECT_EQ(raw->result->ToDisplayString(1u << 20),
            col->result->ToDisplayString(1u << 20));

  // Raw mode: every transfer ships row format, nothing marked encoded.
  for (const auto& t : raw->trace.transfers) {
    EXPECT_FALSE(t.encoded);
    EXPECT_DOUBLE_EQ(t.raw_bytes, t.bytes);
  }
  EXPECT_DOUBLE_EQ(raw_reg.GetCounter("xdb_network_encoded_bytes_total")
                       ->Value(),
                   0.0);

  // Columnar mode: transfers never exceed their raw width, the total
  // strictly shrinks, and the raw accounting matches the raw-mode run.
  EXPECT_DOUBLE_EQ(col->trace.TotalRawTransferredBytes(),
                   raw->trace.TotalTransferredBytes());
  EXPECT_LT(col->trace.TotalTransferredBytes(),
            raw->trace.TotalTransferredBytes());
  EXPECT_GT(col->trace.CompressionRatio(), 1.0);
  bool any_encoded = false;
  for (const auto& t : col->trace.transfers) {
    EXPECT_LE(t.bytes, t.raw_bytes);
    any_encoded = any_encoded || t.encoded;
  }
  EXPECT_TRUE(any_encoded);
  EXPECT_GT(col_reg.GetCounter("xdb_network_encoded_bytes_total")->Value(),
            0.0);
  // The per-relation compression gauge was published.
  EXPECT_NE(col_reg.ExposeText().find("xdb_transfer_compression_ratio"),
            std::string::npos);
}

}  // namespace
}  // namespace xdb
