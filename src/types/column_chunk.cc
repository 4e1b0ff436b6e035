#include "src/types/column_chunk.h"

#include <algorithm>
#include <unordered_map>

namespace xdb {

const char* ColumnEncodingToString(ColumnEncoding e) {
  switch (e) {
    case ColumnEncoding::kPlain:
      return "plain";
    case ColumnEncoding::kDictionary:
      return "dict";
    case ColumnEncoding::kRle:
      return "rle";
    case ColumnEncoding::kFor:
      return "for";
    case ColumnEncoding::kBoxed:
      return "boxed";
    case ColumnEncoding::kReference:
      return "ref";
  }
  return "unknown";
}

namespace {

// Modelled wire cost of the null marks: a bytemap, but never more than the
// row format's one-byte-per-NULL markers (a sparse null list is cheaper than
// a bitmap when NULLs are very rare), so EncodedSize <= DecodedSize holds.
size_t NullOverhead(size_t n, size_t null_count) {
  if (null_count == 0) return 0;
  return std::min((n + 7) / 8, null_count);
}

size_t PlainLaneWidth(TypeId t) { return t == TypeId::kBool ? 1 : 8; }

size_t DictCodeWidth(size_t dict_size) {
  if (dict_size <= 256) return 1;
  if (dict_size <= 65536) return 2;
  return 4;
}

// Narrowest offset width covering an unsigned range; 0 = range too wide for
// frame-of-reference to pay (an 8-byte offset is just plain again).
size_t ForOffsetWidth(uint64_t range) {
  if (range < (1ull << 8)) return 1;
  if (range < (1ull << 16)) return 2;
  if (range < (1ull << 32)) return 4;
  return 0;
}

bool IsInt64Class(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt64 || t == TypeId::kDate;
}

}  // namespace

ColumnChunk ColumnChunk::Int64s(TypeId type, std::vector<int64_t> values,
                                std::vector<uint8_t> nulls) {
  ColumnChunk c(type);
  c.size_ = values.size();
  c.i64_ = std::move(values);
  c.nulls_ = std::move(nulls);
  return c;
}

ColumnChunk ColumnChunk::Doubles(std::vector<double> values,
                                 std::vector<uint8_t> nulls) {
  ColumnChunk c(TypeId::kDouble);
  c.size_ = values.size();
  c.f64_ = std::move(values);
  c.nulls_ = std::move(nulls);
  return c;
}

ColumnChunk ColumnChunk::FromValues(TypeId type, std::vector<Value> values) {
  ColumnChunk c(type);
  for (const Value& v : values) {
    if (v.type() == type) continue;
    c.encoding_ = ColumnEncoding::kBoxed;
    c.size_ = values.size();
    c.boxed_ = std::move(values);
    return c;
  }
  c.Reserve(values.size());
  for (const Value& v : values) c.Append(v);
  return c;
}

void ColumnChunk::Reserve(size_t n) {
  if (encoding_ == ColumnEncoding::kBoxed) {
    boxed_.reserve(n);
  } else if (type_ == TypeId::kDouble) {
    f64_.reserve(n);
  } else if (type_ == TypeId::kString) {
    strs_.reserve(n);
  } else {
    i64_.reserve(n);
  }
}

void ColumnChunk::Decode() {
  Materialize();
  if (encoding_ == ColumnEncoding::kPlain ||
      encoding_ == ColumnEncoding::kBoxed) {
    return;
  }
  if (encoding_ == ColumnEncoding::kDictionary) {
    strs_.resize(size_);
    for (size_t i = 0; i < size_; ++i) {
      if (!IsNull(i)) strs_[i] = (*dict_)[codes_[i]];
    }
    dict_.reset();
    codes_.clear();
  } else {
    std::vector<uint32_t> all(size_);
    for (size_t i = 0; i < size_; ++i) all[i] = static_cast<uint32_t>(i);
    *this = Gather(all);
  }
  encoding_ = ColumnEncoding::kPlain;
}

void ColumnChunk::Append(const Value& v) {
  Decode();
  encoded_ = false;
  if (encoding_ == ColumnEncoding::kPlain && v.type() != type_) {
    // A foreign type tag: every lane becomes a boxed Value.
    std::vector<Value> lanes;
    lanes.reserve(size_ + 1);
    for (size_t i = 0; i < size_; ++i) lanes.push_back(GetValue(i));
    lanes.push_back(v);
    *this = FromValues(type_, std::move(lanes));
    return;
  }
  ++size_;
  if (encoding_ == ColumnEncoding::kBoxed) {
    boxed_.push_back(v);
    return;
  }
  if (v.is_null() || !nulls_.empty()) {
    nulls_.resize(size_ - 1, 0);  // the bytemap starts at the first NULL
    nulls_.push_back(v.is_null() ? 1 : 0);
  }
  // NULL Values carry zero payloads.
  if (type_ == TypeId::kDouble) {
    f64_.push_back(v.double_value());
  } else if (type_ == TypeId::kString) {
    strs_.push_back(v.string_value());
  } else {
    i64_.push_back(v.int64_value());
  }
}

void ColumnChunk::Append(ColumnChunk other) {
  if (other.size_ == 0) return;
  const bool same_type = other.type_ == type_;
  if (size_ == 0 && same_type) {
    *this = std::move(other);
    return;
  }
  const bool plain = encoding_ == ColumnEncoding::kPlain &&
                     other.encoding_ == ColumnEncoding::kPlain;
  const bool shared_dict = encoding_ == ColumnEncoding::kDictionary &&
                           other.encoding_ == ColumnEncoding::kDictionary &&
                           dict_ == other.dict_;
  if (!same_type || !(plain || shared_dict)) {
    for (size_t i = 0; i < other.size_; ++i) Append(other.GetValue(i));
    return;
  }
  encoded_ = false;
  if (!other.nulls_.empty() || !nulls_.empty()) {
    nulls_.resize(size_, 0);
    if (other.nulls_.empty()) {
      nulls_.resize(size_ + other.size_, 0);
    } else {
      nulls_.insert(nulls_.end(), other.nulls_.begin(), other.nulls_.end());
    }
  }
  size_ += other.size_;
  if (shared_dict) {
    codes_.insert(codes_.end(), other.codes_.begin(), other.codes_.end());
  } else if (type_ == TypeId::kDouble) {
    f64_.insert(f64_.end(), other.f64_.begin(), other.f64_.end());
  } else if (type_ == TypeId::kString) {
    strs_.insert(strs_.end(), other.strs_.begin(), other.strs_.end());
  } else {
    i64_.insert(i64_.end(), other.i64_.begin(), other.i64_.end());
  }
}

template <typename At>
ColumnChunk ColumnChunk::GatherAt(size_t n, const At& at) const {
  if (encoding_ == ColumnEncoding::kBoxed) {
    std::vector<Value> lanes;
    lanes.reserve(n);
    for (size_t k = 0; k < n; ++k) lanes.push_back(boxed_[at(k)]);
    return FromValues(type_, std::move(lanes));
  }
  ColumnChunk out(type_);
  out.size_ = n;
  if (!nulls_.empty()) {
    out.nulls_.resize(n);
    for (size_t k = 0; k < n; ++k) out.nulls_[k] = nulls_[at(k)];
  }
  switch (encoding_) {
    case ColumnEncoding::kPlain:
      if (type_ == TypeId::kDouble) {
        out.f64_.resize(n);
        for (size_t k = 0; k < n; ++k) out.f64_[k] = f64_[at(k)];
      } else if (type_ == TypeId::kString) {
        out.strs_.resize(n);
        for (size_t k = 0; k < n; ++k) out.strs_[k] = strs_[at(k)];
      } else {
        out.i64_.resize(n);
        for (size_t k = 0; k < n; ++k) out.i64_[k] = i64_[at(k)];
      }
      break;
    case ColumnEncoding::kDictionary:
      out.encoding_ = ColumnEncoding::kDictionary;
      out.dict_ = dict_;
      out.codes_.resize(n);
      for (size_t k = 0; k < n; ++k) out.codes_[k] = codes_[at(k)];
      break;
    case ColumnEncoding::kFor: {
      out.i64_.resize(n);
      const uint64_t ref = static_cast<uint64_t>(for_ref_);
      for (size_t k = 0; k < n; ++k) {
        out.i64_[k] = static_cast<int64_t>(ref + codes_[at(k)]);
      }
      break;
    }
    case ColumnEncoding::kRle: {
      out.i64_.resize(n);
      RunCursor cursor(run_starts_);
      for (size_t k = 0; k < n; ++k) {
        out.i64_[k] = run_values_[cursor.Seek(at(k))];
      }
      break;
    }
    case ColumnEncoding::kBoxed:
    case ColumnEncoding::kReference:
      break;
  }
  return out;
}

ColumnChunk ColumnChunk::Gather(const std::vector<uint32_t>& idx) const {
  return ReadLanes([&idx](size_t k) -> size_t { return idx[k]; },
                   [&](const ColumnChunk& c, const auto& at) {
                     return c.GatherAt(idx.size(), at);
                   });
}

ColumnChunk ColumnChunk::Reference(std::shared_ptr<const ColumnChunk> col,
                                   const PositionsPtr& idx,
                                   Compositions* composed) {
  ColumnChunk out(col->type_);
  out.encoding_ = ColumnEncoding::kReference;
  if (col->encoding_ != ColumnEncoding::kReference) {
    out.base_ = std::move(col);
    out.pos_ = idx;
  } else if (idx == nullptr || col->pos_ == nullptr) {
    out.base_ = col->base_;
    out.pos_ = idx != nullptr ? idx : col->pos_;
  } else {
    out.base_ = col->base_;
    const Positions* key = col->pos_.get();
    auto it = std::find_if(composed->begin(), composed->end(),
                           [key](const auto& c) { return c.first == key; });
    if (it == composed->end()) {
      auto pos = std::make_shared<Positions>(idx->size());
      for (size_t k = 0; k < idx->size(); ++k) (*pos)[k] = (*key)[(*idx)[k]];
      composed->emplace_back(key, std::move(pos));
      it = composed->end() - 1;
    }
    out.pos_ = it->second;
  }
  out.size_ = out.pos_ != nullptr ? out.pos_->size() : out.base_->size_;
  return out;
}

void ColumnChunk::Materialize() {
  if (encoding_ != ColumnEncoding::kReference) return;
  *this = ReadLanes([](size_t k) { return k; },
                    [&](const ColumnChunk& c, const auto& at) {
                      return c.GatherAt(size_, at);
                    });
}

void ColumnChunk::Encode() {
  if (encoded_) return;
  Decode();
  encoded_ = true;
  if (encoding_ == ColumnEncoding::kBoxed) {
    encoded_size_ = DecodedSize();  // boxed ships as rows
    return;
  }
  const size_t n = size_;
  size_t null_count = 0;
  for (uint8_t b : nulls_) null_count += b;
  if (null_count == 0) nulls_.clear();
  const size_t non_null = n - null_count;
  const size_t null_bytes = NullOverhead(n, null_count);

  if (IsInt64Class(type_)) {
    const size_t plain_bytes = PlainLaneWidth(type_) * non_null;
    size_t rle_bytes = plain_bytes;
    if (null_count == 0 && n > 0) {
      size_t runs = 1;
      for (size_t i = 1; i < n; ++i) runs += i64_[i] != i64_[i - 1];
      rle_bytes = runs * 12;  // 8B value + 4B length per run
    }
    // Frame of reference: keys, dates, and years span tiny ranges, so
    // narrow offsets from the column minimum beat full 8-byte lanes.
    // Bools are excluded (plain is already 1 byte per lane).
    size_t for_bytes = plain_bytes;
    size_t for_width = 0;
    int64_t for_min = 0;
    if (type_ != TypeId::kBool && non_null > 0) {
      int64_t mn = 0;
      int64_t mx = 0;
      bool first = true;
      for (size_t i = 0; i < n; ++i) {
        if (IsNull(i)) continue;
        if (first || i64_[i] < mn) mn = i64_[i];
        if (first || i64_[i] > mx) mx = i64_[i];
        first = false;
      }
      const uint64_t range =
          static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn);
      for_width = ForOffsetWidth(range);
      if (for_width > 0) {
        for_min = mn;
        for_bytes = 8 + for_width * non_null + null_bytes;
      }
    }
    if (rle_bytes < plain_bytes && rle_bytes <= for_bytes) {
      encoding_ = ColumnEncoding::kRle;
      for (size_t i = 0; i < n; ++i) {
        if (i == 0 || i64_[i] != i64_[i - 1]) {
          run_values_.push_back(i64_[i]);
          run_starts_.push_back(static_cast<uint32_t>(i));
        }
      }
      i64_ = {};
      encoded_size_ = rle_bytes;
      return;
    }
    if (for_width > 0 && for_bytes < plain_bytes + null_bytes) {
      encoding_ = ColumnEncoding::kFor;
      for_ref_ = for_min;
      codes_.resize(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (IsNull(i)) continue;
        codes_[i] = static_cast<uint32_t>(static_cast<uint64_t>(i64_[i]) -
                                          static_cast<uint64_t>(for_min));
      }
      i64_ = {};
      encoded_size_ = for_bytes;
      return;
    }
    encoded_size_ = plain_bytes + null_bytes;
    return;
  }
  if (type_ == TypeId::kDouble) {
    encoded_size_ = 8 * non_null + null_bytes;
    return;
  }
  size_t plain_bytes = 0;
  std::unordered_map<std::string, uint32_t> index;
  std::vector<std::string> dict;
  std::vector<uint32_t> codes(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (IsNull(i)) continue;
    plain_bytes += 4 + strs_[i].size();
    auto [it, inserted] =
        index.emplace(strs_[i], static_cast<uint32_t>(dict.size()));
    if (inserted) dict.push_back(strs_[i]);
    codes[i] = it->second;
  }
  size_t dict_bytes = DictCodeWidth(dict.size()) * non_null;
  for (const std::string& s : dict) dict_bytes += 4 + s.size();
  if (dict_bytes < plain_bytes) {
    encoding_ = ColumnEncoding::kDictionary;
    dict_ = std::make_shared<const std::vector<std::string>>(std::move(dict));
    codes_ = std::move(codes);
    strs_ = {};
    encoded_size_ = dict_bytes + null_bytes;
    return;
  }
  encoded_size_ = plain_bytes + null_bytes;
}

size_t ColumnChunk::EncodedSize() const {
  if (encoded_) return encoded_size_;
  ColumnChunk copy = *this;
  copy.Encode();
  return copy.encoded_size_;
}

template <typename At>
size_t ColumnChunk::DecodedSizeAt(size_t n, const At& at) const {
  size_t bytes = 0;
  if (encoding_ == ColumnEncoding::kBoxed) {
    for (size_t k = 0; k < n; ++k) bytes += boxed_[at(k)].SerializedSize();
    return bytes;
  }
  if (type_ == TypeId::kBool) return n;
  size_t null_count = 0;
  if (!nulls_.empty()) {
    for (size_t k = 0; k < n; ++k) null_count += nulls_[at(k)];
  }
  const size_t non_null = n - null_count;
  if (type_ != TypeId::kString) return 8 * non_null + null_count;
  bytes = null_count + 4 * non_null;
  for (size_t k = 0; k < n; ++k) {
    const size_t i = at(k);
    if (!IsNull(i)) bytes += StringAt(i).size();
  }
  return bytes;
}

size_t ColumnChunk::DecodedSize() const {
  return ReadLanes([](size_t k) { return k; },
                   [&](const ColumnChunk& c, const auto& at) {
                     return c.DecodedSizeAt(size_, at);
                   });
}

Value ColumnChunk::GetValue(size_t i) const {
  if (encoding_ == ColumnEncoding::kReference) {
    return base_->GetValue(BaseLane(i));
  }
  if (encoding_ == ColumnEncoding::kBoxed) return boxed_[i];
  if (IsNull(i)) return Value::Null(type_);
  int64_t v = 0;
  switch (encoding_) {
    case ColumnEncoding::kPlain:
      if (type_ == TypeId::kDouble) return Value::Double(f64_[i]);
      if (type_ == TypeId::kString) return Value::String(strs_[i]);
      v = i64_[i];
      break;
    case ColumnEncoding::kDictionary:
      return Value::String((*dict_)[codes_[i]]);
    case ColumnEncoding::kRle:
      v = run_values_[RunCursor::Find(run_starts_, i)];
      break;
    case ColumnEncoding::kFor:
      v = static_cast<int64_t>(static_cast<uint64_t>(for_ref_) + codes_[i]);
      break;
    case ColumnEncoding::kBoxed:
    case ColumnEncoding::kReference:
      break;
  }
  switch (type_) {
    case TypeId::kBool:
      return Value::Bool(v != 0);
    case TypeId::kDate:
      return Value::Date(v);
    default:
      return Value::Int64(v);
  }
}

template <typename At>
void ColumnChunk::DecodeKeyLanesAt(size_t n, const At& at,
                                   KeyLane* out) const {
  switch (encoding_) {
    case ColumnEncoding::kBoxed:
      for (size_t k = 0; k < n; ++k) out[k] = boxed_[at(k)].ToKeyLane();
      return;
    case ColumnEncoding::kDictionary:
      for (size_t k = 0; k < n; ++k) {
        const size_t i = at(k);
        out[k] = IsNull(i) ? KeyLane{} : StringKeyLane((*dict_)[codes_[i]]);
      }
      return;
    case ColumnEncoding::kPlain:
      if (type_ == TypeId::kDouble) {
        for (size_t k = 0; k < n; ++k) out[k] = DoubleKeyLane(f64_[at(k)]);
      } else if (type_ == TypeId::kString) {
        for (size_t k = 0; k < n; ++k) out[k] = StringKeyLane(strs_[at(k)]);
      } else {
        for (size_t k = 0; k < n; ++k) {
          out[k] = {KeyClass::kInt, static_cast<uint64_t>(i64_[at(k)])};
        }
      }
      break;
    case ColumnEncoding::kRle: {
      RunCursor cursor(run_starts_);
      for (size_t k = 0; k < n; ++k) {
        out[k] = {KeyClass::kInt,
                  static_cast<uint64_t>(run_values_[cursor.Seek(at(k))])};
      }
      return;  // RLE columns are null-free
    }
    case ColumnEncoding::kFor:
      for (size_t k = 0; k < n; ++k) {
        out[k] = {KeyClass::kInt,
                  static_cast<uint64_t>(for_ref_) + codes_[at(k)]};
      }
      break;
    case ColumnEncoding::kReference:
      return;
  }
  if (nulls_.empty()) return;
  for (size_t k = 0; k < n; ++k) {
    if (nulls_[at(k)] != 0) out[k] = KeyLane{};
  }
}

void ColumnChunk::DecodeKeyLanes(size_t begin, size_t end,
                                 KeyLane* out) const {
  ReadLanes([begin](size_t k) { return begin + k; },
            [&](const ColumnChunk& c, const auto& at) {
              c.DecodeKeyLanesAt(end - begin, at, out);
            });
}

const std::string& ColumnChunk::StringAt(size_t i) const {
  if (encoding_ == ColumnEncoding::kReference) {
    return base_->StringAt(BaseLane(i));
  }
  if (encoding_ == ColumnEncoding::kBoxed) return boxed_[i].string_value();
  return encoding_ == ColumnEncoding::kDictionary ? (*dict_)[codes_[i]]
                                                  : strs_[i];
}

}  // namespace xdb
