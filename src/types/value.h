#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/result.h"

namespace xdb {

/// \brief Physical type of a Value / column.
enum class TypeId : uint8_t {
  kBool,
  kInt64,
  kDouble,
  kString,
  kDate,  // stored as days since 1970-01-01 in an int64 payload
};

/// \brief Stable lowercase name of a type ("int64", "date", ...).
const char* TypeIdToString(TypeId t);

/// \brief Converts a calendar date to days since the Unix epoch.
///
/// Valid for years 1..9999 (proleptic Gregorian), which covers TPC-H's
/// 1992-1998 date range with room to spare.
int64_t DaysFromCivil(int year, int month, int day);

/// \brief Inverse of DaysFromCivil.
void CivilFromDays(int64_t days, int* year, int* month, int* day);

/// \brief Parses "YYYY-MM-DD" into days since epoch.
Result<int64_t> ParseDate(const std::string& s);

/// \brief Formats days since epoch as "YYYY-MM-DD".
std::string FormatDate(int64_t days);

/// Class of a key lane under the normalized-key rules: bool, int64, date and
/// integral doubles within ±2^53 share kInt; other doubles are kDouble.
enum class KeyClass : uint8_t { kNull, kInt, kDouble, kString };

/// \brief One lane of a key as a class and a 64-bit payload: the int64
/// value (kInt), the double's bit pattern (kDouble), or a hash of the bytes
/// (kString); 0 for kNull.
///
/// Two lanes have equal normalized keys exactly when their classes and
/// payloads are equal and, for kString, their bytes are equal too. A join
/// never matches a kNull lane.
struct KeyLane {
  KeyClass cls = KeyClass::kNull;
  uint64_t payload = 0;

  bool operator==(const KeyLane&) const = default;
};

/// The key lanes of a non-NULL double and string.
KeyLane DoubleKeyLane(double d);
KeyLane StringKeyLane(const std::string& s);

/// Hash of a lane's class and payload; a bijection of the payload within
/// one class, so distinct ints (or doubles) never collide.
inline uint64_t HashKeyLane(const KeyLane& lane) {
  // MurmurHash3's 64-bit finalizer: invertible, so the hash is a bijection
  // of the payload within one class.
  uint64_t k = lane.payload +
               static_cast<uint64_t>(lane.cls) * 0x9e3779b97f4a7c15ULL;
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// Three-way compare of two doubles: -1, 0 or 1. A NaN on either side
/// compares as 1 (it is neither less than nor equal to anything), so the
/// order is not antisymmetric there. Value::Compare and every batch kernel
/// compare doubles through it.
inline int CompareDoubles(double a, double b) {
  return a < b ? -1 : (a == b ? 0 : 1);
}

/// Appends the normalized-key bytes of one lane to `out`: NULL `\1`, the
/// int class `i` + payload, other doubles `d` + bits, strings `s` + length
/// + `str` (the string lane's bytes; unused for other classes). Equal bytes
/// mean equal lanes, and concatenated keys stay unambiguous. Group keys
/// and Value::AppendNormalizedKey both go through it.
void AppendNormalizedKey(const KeyLane& lane, std::string_view str,
                         std::string* out);

/// \brief A single, nullable SQL value.
///
/// Values are small (int64/double inline, string out-of-line) and carry their
/// type tag. NULL values still have a type. Comparison follows SQL semantics
/// except that NULLs order first (used by ORDER BY and group keys; expression
/// evaluation handles three-valued logic separately).
class Value {
 public:
  /// Constructs a typed NULL.
  static Value Null(TypeId t) {
    Value v;
    v.type_ = t;
    v.is_null_ = true;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.i64_ = b ? 1 : 0;
    return v;
  }
  static Value Int64(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.i64_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.f64_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = TypeId::kString;
    v.str_ = std::move(s);
    return v;
  }
  static Value Date(int64_t days) {
    Value v;
    v.type_ = TypeId::kDate;
    v.i64_ = days;
    return v;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return is_null_; }

  bool bool_value() const { return i64_ != 0; }
  int64_t int64_value() const { return i64_; }
  double double_value() const { return f64_; }
  const std::string& string_value() const { return str_; }
  int64_t date_value() const { return i64_; }

  /// Numeric view: int64 and date widen to double; bool to 0/1.
  double AsDouble() const;

  /// Total order: NULL < non-NULL; cross-numeric compares as double.
  /// Comparing string to numeric is an ordering by type id (deterministic).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Approximate serialized width in bytes, used for transfer accounting.
  size_t SerializedSize() const;

  /// HashKeyLane of the value's key lane: values with equal normalized keys
  /// (Int64(7) and Double(7.0), 0.0 and -0.0) hash equally.
  size_t Hash() const;

  /// The value's key lane under the normalized-key class rules.
  KeyLane ToKeyLane() const;

  /// Appends the normalized-key bytes of this value's key lane to `out`:
  /// byte strings that are equal exactly when the values are equal under
  /// Compare() (including NULL == NULL and cross-numeric equality like
  /// 1 == 1.0), and unambiguous under concatenation.
  void AppendNormalizedKey(std::string* out) const;

  /// SQL-literal rendering: strings quoted, dates as DATE '...', NULL as NULL.
  std::string ToSqlLiteral() const;

  /// Display rendering (no quotes), used for result printing.
  std::string ToString() const;

 private:
  TypeId type_ = TypeId::kInt64;
  bool is_null_ = false;
  int64_t i64_ = 0;
  double f64_ = 0.0;
  std::string str_;
};

}  // namespace xdb
