#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cctype>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/str_util.h"
#include "src/common/thread_pool.h"
#include "src/types/table.h"
#include "src/xdb/plan_cache.h"

namespace xdb {
namespace {

TEST(StatusTest, OkIsCheapAndEmpty) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.message(), "");
  EXPECT_EQ(ok.ToString(), "OK");
}

TEST(StatusTest, EveryCodeRoundTrips) {
  struct Case {
    Status status;
    StatusCode code;
    const char* name;
  };
  Case cases[] = {
      {Status::InvalidArgument("m"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::ParseError("m"), StatusCode::kParseError, "ParseError"},
      {Status::BindError("m"), StatusCode::kBindError, "BindError"},
      {Status::CatalogError("m"), StatusCode::kCatalogError,
       "CatalogError"},
      {Status::ExecutionError("m"), StatusCode::kExecutionError,
       "ExecutionError"},
      {Status::NetworkError("m"), StatusCode::kNetworkError,
       "NetworkError"},
      {Status::NotImplemented("m"), StatusCode::kNotImplemented,
       "NotImplemented"},
      {Status::Internal("m"), StatusCode::kInternal, "Internal"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(c.status.message(), "m");
    EXPECT_EQ(std::string(StatusCodeToString(c.code)), c.name);
  }
}

TEST(StatusTest, MacroPropagates) {
  auto fail = []() -> Status { return Status::Internal("inner"); };
  auto outer = [&]() -> Status {
    XDB_RETURN_NOT_OK(fail());
    return Status::OK();
  };
  EXPECT_EQ(outer().message(), "inner");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool ok) -> Result<int> {
    if (ok) return 5;
    return Status::Internal("nope");
  };
  auto consume = [&](bool ok) -> Result<int> {
    XDB_ASSIGN_OR_RETURN(int v, produce(ok));
    return v * 2;
  };
  EXPECT_EQ(*consume(true), 10);
  EXPECT_FALSE(consume(false).ok());
}

TEST(StrUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("MiXeD_09"), "mixed_09");
  EXPECT_EQ(ToUpper("MiXeD_09"), "MIXED_09");
  EXPECT_TRUE(EqualsIgnoreCase("Hello", "hELLO"));
  EXPECT_FALSE(EqualsIgnoreCase("Hello", "Hell"));
}

TEST(StrUtilTest, CaseFoldingMatchesTheCLocaleOnEveryByte) {
  // The program never calls setlocale, so std::tolower and std::toupper
  // run in the "C" locale; the inline folds must agree on all 256 bytes.
  for (int b = 0; b < 256; ++b) {
    SCOPED_TRACE("byte " + std::to_string(b));
    const char c = static_cast<char>(b);
    const char lower = static_cast<char>(std::tolower(b));
    const char upper = static_cast<char>(std::toupper(b));
    EXPECT_EQ(AsciiLower(c), lower);
    EXPECT_EQ(AsciiUpper(c), upper);
    EXPECT_EQ(ToLower(std::string(1, c)), std::string(1, lower));
    EXPECT_EQ(ToUpper(std::string(1, c)), std::string(1, upper));
    for (int other = 0; other < 256; ++other) {
      const char d = static_cast<char>(other);
      EXPECT_EQ(EqualsIgnoreCase(std::string(1, c), std::string(1, d)),
                std::tolower(b) == std::tolower(other));
    }
    // NormalizeSql folds each byte outside a string literal the same way.
    if (!std::isspace(b) && c != '\'' && c != ';') {
      EXPECT_EQ(NormalizeSql(std::string("X") + c), std::string("x") + lower);
    }
  }
}

TEST(StrUtilTest, SplitJoinTrim) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_TRUE(StartsWith("SELECT *", "SELECT"));
  EXPECT_FALSE(StartsWith("SEL", "SELECT"));
}

TEST(StrUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(2048), "2.00 KB");
  EXPECT_EQ(HumanBytes(1.5 * 1024 * 1024), "1.50 MB");
}

TEST(TableTest, SerializedSizeSumsValues) {
  Table t(Schema({{"a", TypeId::kInt64}, {"s", TypeId::kString}}));
  t.AppendRow({Value::Int64(1), Value::String("abcd")});
  // 8 (int) + 4 + 4 (string header + bytes).
  EXPECT_EQ(t.SerializedSize(), 16u);
  EXPECT_EQ(RowSerializedSize(t.row(0)), 16u);
}

TEST(TableTest, DisplayTruncatesLongTables) {
  Table t(Schema({{"a", TypeId::kInt64}}));
  for (int i = 0; i < 30; ++i) t.AppendRow({Value::Int64(i)});
  std::string shown = t.ToDisplayString(5);
  EXPECT_NE(shown.find("25 more rows"), std::string::npos);
}

TEST(SchemaTest, LookupAndConcat) {
  Schema a({{"x", TypeId::kInt64}, {"y", TypeId::kString}});
  Schema b({{"z", TypeId::kDouble}});
  EXPECT_EQ(*a.IndexOf("Y"), 1u);
  EXPECT_FALSE(a.IndexOf("nope").has_value());
  Schema c = Schema::Concat(a, b);
  EXPECT_EQ(c.num_fields(), 3u);
  EXPECT_EQ(c.field(2).name, "z");
  EXPECT_EQ(c.ToString(), "(x:int64, y:string, z:double)");
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int workers : {1, 2, 4, 8}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{100},
                     size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h = 0;
      ParallelFor(workers, n, /*morsel_rows=*/17,
                  [&](size_t, size_t begin, size_t end) {
                    for (size_t i = begin; i < end; ++i) hits[i]++;
                  });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "workers=" << workers << " n=" << n
                                     << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, MorselBoundariesIndependentOfWorkers) {
  // The determinism contract: morsel (index, begin, end) triples depend
  // only on (n, morsel_rows), never on the worker count.
  auto layout = [](int workers) {
    std::vector<std::array<size_t, 3>> morsels(8);  // ceil(100/13)
    ParallelFor(workers, 100, 13, [&](size_t m, size_t b, size_t e) {
      morsels[m] = {m, b, e};
    });
    return morsels;
  };
  auto one = layout(1);
  for (int workers : {2, 4}) {
    EXPECT_EQ(layout(workers), one) << workers;
  }
  EXPECT_EQ(one[0], (std::array<size_t, 3>{0, 0, 13}));
  EXPECT_EQ(one[7], (std::array<size_t, 3>{7, 91, 100}));
}

TEST(ParallelForTest, NestedCallsRunInline) {
  // A worker that itself calls ParallelFor must not deadlock waiting for
  // pool threads that are all busy; nested calls degrade to inline loops.
  std::atomic<int> total{0};
  ParallelFor(4, 64, 8, [&](size_t, size_t begin, size_t end) {
    ParallelFor(4, end - begin, 2, [&](size_t, size_t b, size_t e) {
      total += static_cast<int>(e - b);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

std::string Norm(const Value& v) {
  std::string s;
  v.AppendNormalizedKey(&s);
  return s;
}

TEST(NormalizedKeyTest, EqualUnderCompareMeansEqualBytes) {
  // The hash-join/aggregate key encoding must agree with Value::Compare
  // equality across types (1 == 1.0 == true as grouping keys).
  EXPECT_EQ(Norm(Value::Int64(1)), Norm(Value::Double(1.0)));
  EXPECT_EQ(Norm(Value::Int64(1)), Norm(Value::Bool(true)));
  EXPECT_EQ(Norm(Value::Int64(0)), Norm(Value::Double(-0.0)));
  EXPECT_EQ(Norm(Value::Double(0.0)), Norm(Value::Double(-0.0)));
  EXPECT_NE(Norm(Value::Int64(1)), Norm(Value::Int64(2)));
  EXPECT_NE(Norm(Value::Double(1.5)), Norm(Value::Int64(1)));
  EXPECT_NE(Norm(Value::Double(1.5)), Norm(Value::Double(1.25)));
  EXPECT_EQ(Norm(Value::String("ab")), Norm(Value::String("ab")));
  EXPECT_NE(Norm(Value::String("ab")), Norm(Value::String("ac")));
}

TEST(NormalizedKeyTest, NullsAndEmptyStringsAreDistinct) {
  EXPECT_EQ(Norm(Value::Null(TypeId::kInt64)),
            Norm(Value::Null(TypeId::kString)));  // NULL groups merge
  EXPECT_NE(Norm(Value::Null(TypeId::kString)), Norm(Value::String("")));
  EXPECT_NE(Norm(Value::Null(TypeId::kInt64)), Norm(Value::Int64(0)));
}

TEST(NormalizedKeyTest, MultiColumnConcatenationIsUnambiguous) {
  // ("ab","c") must not collide with ("a","bc"): strings are
  // length-prefixed before their bytes.
  std::string k1, k2;
  Value::String("ab").AppendNormalizedKey(&k1);
  Value::String("c").AppendNormalizedKey(&k1);
  Value::String("a").AppendNormalizedKey(&k2);
  Value::String("bc").AppendNormalizedKey(&k2);
  EXPECT_NE(k1, k2);
}

}  // namespace
}  // namespace xdb
