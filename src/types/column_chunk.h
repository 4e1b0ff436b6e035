#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/types/schema.h"
#include "src/types/value.h"

namespace xdb {

using Row = std::vector<Value>;

/// \brief Physical encoding of one column chunk.
enum class ColumnEncoding : uint8_t {
  kPlain,       // typed vector, one slot per lane
  kDictionary,  // string dictionary + per-lane codes
  kRle,         // run-length encoded int64 runs (null-free columns only)
  kFor,         // frame-of-reference: base value + narrow per-lane offsets
  kBoxed,       // vector<Value> fallback (lanes whose type tags disagree)
  kReference,   // lanes of a shared base chunk through a position list
                // (operator outputs); never chosen by Encode(), never shipped
};

const char* ColumnEncodingToString(ColumnEncoding e);

/// \brief One column of a Table: the lanes of a declared type.
///
/// Columns built by appending values (AppendRow, computed operator outputs)
/// are plain typed vectors with a NULL bytemap. A lane whose type tag
/// differs from the declared type — a double in an int64 column, or a NULL
/// carrying another type's tag — turns the column boxed, so GetValue()
/// reconstructs every lane exactly: type tag, NULL-ness and double bit
/// pattern included.
///
/// Encode() picks the cheapest representation: strings get a
/// first-occurrence dictionary with narrow codes when that beats plain,
/// int64-class columns (bool/int64/date) get RLE when the run structure pays
/// for itself or frame-of-reference offsets when the value range fits a
/// narrow width. Base tables are encoded at load time; operators read any
/// encoding, and Gather() keeps a dictionary (code space survives filters
/// and joins) while decoding RLE and FOR lanes to plain.
///
/// Operators do not copy lanes: a filter, join, sort or limit output is a
/// reference chunk, the lanes pos[0], pos[1], ... of an immutable base chunk
/// that is never itself a reference, and it shares ownership of that base.
/// Every accessor reads through the position list, and Materialize() copies
/// the lanes out into exactly the chunk a chain of eager Gather() calls on
/// the base would have built.
///
/// EncodedSize() is the modelled wire width of the encoded chunk (what the
/// columnar wire format charges); DecodedSize() is the row-format width (sum
/// of Value::SerializedSize). EncodedSize() <= DecodedSize() always.
class ColumnChunk {
 public:
  /// The base lanes a reference chunk reads, shared by the reference chunks
  /// an operator emits for one input.
  using Positions = std::vector<uint32_t>;
  using PositionsPtr = std::shared_ptr<const Positions>;
  /// Position lists already composed by one operator, keyed by the input's
  /// list (see Reference()).
  using Compositions = std::vector<std::pair<const Positions*, PositionsPtr>>;

  ColumnChunk() = default;
  /// An empty plain column of declared type `type`.
  explicit ColumnChunk(TypeId type) : type_(type) {}

  /// Plain int64-class / double lanes with a NULL bytemap (sized like the
  /// payload, or empty when no lane is NULL). NULL lanes carry `type`'s tag.
  static ColumnChunk Int64s(TypeId type, std::vector<int64_t> values,
                            std::vector<uint8_t> nulls);
  static ColumnChunk Doubles(std::vector<double> values,
                             std::vector<uint8_t> nulls);
  /// Lanes holding `values`; boxed when any tag differs from `type`.
  static ColumnChunk FromValues(TypeId type, std::vector<Value> values);

  /// Re-encodes the lanes in place into the cheapest of the five encodings.
  void Encode();

  /// Lanes idx[0], idx[1], ... as a new chunk of the same declared type.
  ColumnChunk Gather(const std::vector<uint32_t>& idx) const;

  /// A reference to the lanes idx[0], idx[1], ... of `*col` (every lane when
  /// `idx` is null), holding `col` so the lanes outlive their other owners.
  /// When `*col` is itself a reference, the result reads its base through
  /// col's list composed with `idx`; `composed` (unused when `idx` is null)
  /// caches each composition, so that the columns of one input that share a
  /// list compose it once.
  static ColumnChunk Reference(std::shared_ptr<const ColumnChunk> col,
                               const PositionsPtr& idx,
                               Compositions* composed);
  /// Turns a reference into a chunk that owns its lanes: the chunk that
  /// Gather() on the base would build. Other chunks are left as they are.
  void Materialize();

  void Append(const Value& v);
  /// Appends all of `other`'s lanes (concatenating morsel outputs).
  void Append(ColumnChunk other);
  void Reserve(size_t n);

  ColumnEncoding encoding() const { return encoding_; }
  TypeId type() const { return type_; }
  size_t size() const { return size_; }
  bool IsNull(size_t i) const {
    if (encoding_ == ColumnEncoding::kBoxed) return boxed_[i].is_null();
    if (encoding_ == ColumnEncoding::kReference) {
      return base_->IsNull(BaseLane(i));
    }
    return !nulls_.empty() && nulls_[i] != 0;
  }
  /// A reference's position list; null for every other chunk, and for a
  /// reference that reads every lane of its base.
  const PositionsPtr& positions() const { return pos_; }

  /// Reconstructs lane `i` as the exact original Value.
  Value GetValue(size_t i) const;

  /// Decodes lanes [begin, end) into `out[0, end - begin)` under the
  /// normalized-key class rules — the same KeyLane as Value::ToKeyLane on
  /// the decoded value. RLE runs are walked with a cursor.
  void DecodeKeyLanes(size_t begin, size_t end, KeyLane* out) const;
  /// The bytes of non-NULL string lane `i`.
  const std::string& StringAt(size_t i) const;

  /// Narrows `sel`, lanes of this chunk, to the non-NULL lanes that `test`
  /// keeps, in place and in order. Each lane is read where it is stored:
  /// test(int64_t) sees a bool, int64 or date lane (plain, frame-of-reference
  /// or RLE), test(double) a plain double lane and test(const std::string&)
  /// a plain string lane; a dictionary asks test(dict) once for one keep
  /// byte per entry and then reads each lane's code. Returns false, leaving
  /// `sel` as it is, when the lanes are boxed or `test` takes none of their
  /// type.
  template <typename Test>
  bool SelectLanes(const Test& test, Positions* sel) const;

  /// What Encode() would charge on the wire for these lanes.
  size_t EncodedSize() const;
  /// Row-format width: NULL 1 B, bool 1 B, int64/double/date 8 B, string
  /// 4 B plus its length.
  size_t DecodedSize() const;

  // Typed payload access for the vectorized kernels. Valid per encoding();
  // a reference has none (the kernels read the gathers of their inputs).
  const std::vector<int64_t>& i64_data() const { return i64_; }
  const std::vector<double>& f64_data() const { return f64_; }
  const std::vector<std::string>& str_data() const { return strs_; }
  const std::vector<std::string>& dict() const { return *dict_; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  /// One byte per lane, 1 = NULL; empty when no lane is NULL. Valid for
  /// every encoding but boxed and reference.
  const std::vector<uint8_t>& null_map() const { return nulls_; }

 private:
  /// Decodes dictionary, RLE, FOR and reference lanes back to plain (in
  /// place).
  void Decode();

  /// The run of each lane of an RLE chunk, for lanes visited in any order:
  /// a lane in the current or the next run moves the cursor; any other jump
  /// binary-searches the run starts.
  class RunCursor {
   public:
    explicit RunCursor(const std::vector<uint32_t>& starts)
        : starts_(starts) {}

    /// The run holding `lane`, by binary search of the run starts.
    static size_t Find(const std::vector<uint32_t>& starts, size_t lane) {
      auto it = std::upper_bound(starts.begin(), starts.end(),
                                 static_cast<uint32_t>(lane));
      return static_cast<size_t>(it - starts.begin()) - 1;
    }

    size_t Seek(size_t lane) {
      const auto r = static_cast<uint32_t>(lane);
      if (!InRun(run_, r)) {
        run_ = InRun(run_ + 1, r) ? run_ + 1 : Find(starts_, r);
      }
      return run_;
    }

   private:
    bool InRun(size_t run, uint32_t r) const {
      return run < starts_.size() && starts_[run] <= r &&
             (run + 1 == starts_.size() || r < starts_[run + 1]);
    }

    const std::vector<uint32_t>& starts_;
    size_t run_ = 0;
  };

  size_t BaseLane(size_t i) const { return pos_ ? (*pos_)[i] : i; }
  /// Calls fn(chunk, lane) on the chunk that holds the lanes at(0), at(1),
  /// ... of this one: *this with `at` itself, or a reference's base with
  /// lane(k) = pos[at(k)].
  template <typename At, typename Fn>
  auto ReadLanes(const At& at, const Fn& fn) const {
    if (encoding_ != ColumnEncoding::kReference) return fn(*this, at);
    if (pos_ == nullptr) return fn(*base_, at);
    const Positions& pos = *pos_;
    return fn(*base_, [&](size_t k) -> size_t { return pos[at(k)]; });
  }

  // The lane-reading bodies of Gather, DecodeKeyLanes, DecodedSize and
  // SelectLanes over the lanes at(0), at(1), ... of a chunk that is not a
  // reference.
  template <typename At>
  ColumnChunk GatherAt(size_t n, const At& at) const;
  template <typename At>
  void DecodeKeyLanesAt(size_t n, const At& at, KeyLane* out) const;
  template <typename At>
  size_t DecodedSizeAt(size_t n, const At& at) const;
  template <typename Test, typename At>
  bool SelectLanesAt(const Test& test, const At& at, Positions* sel) const;

  ColumnEncoding encoding_ = ColumnEncoding::kPlain;
  TypeId type_ = TypeId::kInt64;
  size_t size_ = 0;
  std::vector<uint8_t> nulls_;  // 1 = NULL; empty when the column has none
  std::vector<int64_t> i64_;    // kPlain bool/int64/date payload
  std::vector<double> f64_;     // kPlain double payload
  std::vector<std::string> strs_;  // kPlain string payload
  // kDictionary: first-occurrence dictionary, shared by gathered chunks.
  std::shared_ptr<const std::vector<std::string>> dict_;
  std::vector<uint32_t> codes_;  // kDictionary: per-lane dict index;
                                 // kFor: per-lane offset from for_ref_
  int64_t for_ref_ = 0;          // kFor: base (minimum non-null) value
  std::vector<int64_t> run_values_;   // kRle: value of each run
  std::vector<uint32_t> run_starts_;  // kRle: first lane of each run (asc)
  // kBoxed lanes; a column is boxed only while some lane's tag differs.
  std::vector<Value> boxed_;
  // kReference: lanes (*pos_)[i] of base_ (every lane when pos_ is null).
  std::shared_ptr<const ColumnChunk> base_;
  PositionsPtr pos_;
  // Encode() sets both (its chosen wire width); an Append clears encoded_.
  bool encoded_ = false;
  size_t encoded_size_ = 0;
};

template <typename Test>
bool ColumnChunk::SelectLanes(const Test& test, Positions* sel) const {
  return ReadLanes([sel](size_t k) -> size_t { return (*sel)[k]; },
                   [&](const ColumnChunk& c, const auto& at) {
                     return c.SelectLanesAt(test, at, sel);
                   });
}

template <typename Test, typename At>
bool ColumnChunk::SelectLanesAt(const Test& test, const At& at,
                                Positions* sel) const {
  constexpr bool kInts = std::is_invocable_r_v<bool, const Test&, int64_t>;
  constexpr bool kDoubles = std::is_invocable_r_v<bool, const Test&, double>;
  constexpr bool kStrings =
      std::is_invocable_r_v<bool, const Test&, const std::string&>;
  constexpr bool kDict =
      std::is_invocable_r_v<std::vector<uint8_t>, const Test&,
                            const std::vector<std::string>&>;
  const uint8_t* nulls = nulls_.empty() ? nullptr : nulls_.data();
  // Without branches: every lane is tested (a NULL lane's payload is still
  // readable, and its dictionary code is 0 of a non-empty dictionary) and
  // written back at `kept`, which never overtakes k.
  auto narrow = [&](const auto& pass) {
    uint32_t* lanes = sel->data();
    const size_t n = sel->size();
    size_t kept = 0;
    for (size_t k = 0; k < n; ++k) {
      const size_t i = at(k);
      const bool keep = pass(i) & (nulls == nullptr || nulls[i] == 0);
      lanes[kept] = lanes[k];
      kept += keep ? 1 : 0;
    }
    sel->resize(kept);
    return true;
  };
  switch (encoding_) {
    case ColumnEncoding::kPlain:
      if (type_ == TypeId::kDouble) {
        if constexpr (kDoubles) {
          return narrow([&](size_t i) { return test(f64_[i]); });
        }
      } else if (type_ == TypeId::kString) {
        if constexpr (kStrings) {
          return narrow([&](size_t i) { return test(strs_[i]); });
        }
      } else if constexpr (kInts) {
        return narrow([&](size_t i) { return test(i64_[i]); });
      }
      return false;
    case ColumnEncoding::kFor:
      if constexpr (kInts) {
        const uint64_t ref = static_cast<uint64_t>(for_ref_);
        return narrow([&](size_t i) {
          return test(static_cast<int64_t>(ref + codes_[i]));
        });
      }
      return false;
    case ColumnEncoding::kRle:
      if constexpr (kInts) {
        RunCursor cursor(run_starts_);
        return narrow(
            [&](size_t i) { return test(run_values_[cursor.Seek(i)]); });
      }
      return false;
    case ColumnEncoding::kDictionary:
      if constexpr (kDict) {
        const std::vector<uint8_t> verdicts = test(*dict_);
        return narrow([&](size_t i) { return verdicts[codes_[i]] != 0; });
      }
      return false;
    case ColumnEncoding::kBoxed:
    case ColumnEncoding::kReference:
      return false;
  }
  return false;
}

}  // namespace xdb
