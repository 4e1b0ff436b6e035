// Property sweeps over the Value substrate: ordering laws, hash/equality
// consistency, date round trips — the invariants the hash join, hash
// aggregate and sort operators silently rely on.

#include <gtest/gtest.h>

#include <random>

#include "src/types/value.h"

namespace xdb {
namespace {

std::vector<Value> SampleValues(uint32_t seed) {
  std::mt19937 rng(seed);
  auto ri = [&](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  std::vector<Value> vs;
  for (int i = 0; i < 24; ++i) {
    switch (ri(0, 5)) {
      case 0:
        vs.push_back(Value::Int64(ri(-1000, 1000)));
        break;
      case 1:
        vs.push_back(Value::Double(static_cast<double>(ri(-1000, 1000)) /
                                   7.0));
        break;
      case 2:
        vs.push_back(Value::String(std::string(
            static_cast<size_t>(ri(0, 6)),
            static_cast<char>('a' + ri(0, 25)))));
        break;
      case 3:
        vs.push_back(Value::Date(ri(8000, 10600)));
        break;
      case 4:
        vs.push_back(Value::Bool(ri(0, 1) != 0));
        break;
      default:
        vs.push_back(Value::Null(TypeId::kInt64));
        break;
    }
  }
  return vs;
}

class ValueLaws : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ValueLaws, CompareIsAntisymmetricAndTotal) {
  auto vs = SampleValues(GetParam());
  for (const auto& a : vs) {
    for (const auto& b : vs) {
      int ab = a.Compare(b);
      int ba = b.Compare(a);
      EXPECT_EQ(ab == 0, ba == 0);
      if (ab != 0) {
        EXPECT_EQ(ab > 0, ba < 0);
      }
    }
  }
}

TEST_P(ValueLaws, CompareIsTransitive) {
  auto vs = SampleValues(GetParam());
  for (const auto& a : vs) {
    for (const auto& b : vs) {
      for (const auto& c : vs) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

TEST_P(ValueLaws, EqualValuesHashEqually) {
  auto vs = SampleValues(GetParam());
  for (const auto& a : vs) {
    for (const auto& b : vs) {
      if (a.is_null() || b.is_null()) continue;
      if (a.Compare(b) == 0 &&
          (a.type() != TypeId::kString) == (b.type() != TypeId::kString)) {
        // Equal comparables collide on hash across types too (int 3 and
        // double 3.0 share the int key class).
        EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " " << b.ToString();
      }
    }
  }
}

TEST_P(ValueLaws, SqlLiteralRoundTripsThroughDisplay) {
  auto vs = SampleValues(GetParam());
  for (const auto& v : vs) {
    // ToSqlLiteral is never empty (even '' for the empty string); display
    // text is empty only for the empty string itself.
    EXPECT_FALSE(v.ToSqlLiteral().empty());
    if (v.is_null() || v.type() != TypeId::kString ||
        !v.string_value().empty()) {
      EXPECT_FALSE(v.ToString().empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueLaws, ::testing::Range(1u, 9u));

class DateSweep : public ::testing::TestWithParam<int> {};

TEST_P(DateSweep, CivilRoundTripsAcrossYears) {
  int year = GetParam();
  for (int month : {1, 2, 6, 12}) {
    for (int day : {1, 15, 28}) {
      int64_t days = DaysFromCivil(year, month, day);
      int y, m, d;
      CivilFromDays(days, &y, &m, &d);
      EXPECT_EQ(y, year);
      EXPECT_EQ(m, month);
      EXPECT_EQ(d, day);
      // Parse(Format(x)) == x.
      auto parsed = ParseDate(FormatDate(days));
      ASSERT_TRUE(parsed.ok());
      EXPECT_EQ(*parsed, days);
    }
  }
}

TEST_P(DateSweep, ConsecutiveDaysDifferByOne) {
  int year = GetParam();
  int64_t jan1 = DaysFromCivil(year, 1, 1);
  int64_t dec31_prev = DaysFromCivil(year - 1, 12, 31);
  EXPECT_EQ(jan1 - dec31_prev, 1);
}

INSTANTIATE_TEST_SUITE_P(Years, DateSweep,
                         ::testing::Values(1970, 1992, 1996, 1998, 2000,
                                           2026, 2100));

TEST(DateTest, LeapYearHandling) {
  EXPECT_EQ(DaysFromCivil(1996, 3, 1) - DaysFromCivil(1996, 2, 28), 2);
  EXPECT_EQ(DaysFromCivil(1997, 3, 1) - DaysFromCivil(1997, 2, 28), 1);
  EXPECT_EQ(DaysFromCivil(2000, 3, 1) - DaysFromCivil(2000, 2, 28), 2);
  EXPECT_EQ(DaysFromCivil(2100, 3, 1) - DaysFromCivil(2100, 2, 28), 1);
}

TEST(DateTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseDate("not-a-date").ok());
  EXPECT_FALSE(ParseDate("1995-13-01").ok());
  EXPECT_FALSE(ParseDate("1995-00-10").ok());
  EXPECT_FALSE(ParseDate("1995-01-42").ok());
}

}  // namespace
}  // namespace xdb
