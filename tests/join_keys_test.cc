// Join-key equivalence: the hash join must emit exactly the (left, right)
// row pairs — in order — of a nested loop that matches rows whose
// normalized key bytes are equal (rows with a NULL key lane never match),
// for every pairing of column encodings on the build and probe sides, at
// exec_threads 1 and 4.
//
// Suite names start with "Executor" so the ASan+UBSan and TSan CI jobs pick
// them up by regex.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <random>

#include "src/exec/executor.h"
#include "src/plan/stats.h"

namespace xdb {
namespace {

class TablesContext : public ExecContext {
 public:
  explicit TablesContext(int threads) : threads_(threads) {}
  void Add(const std::string& name, TablePtr t) { tables_[name] = t; }

  Result<TablePtr> GetLocalTable(const std::string& name) override {
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::CatalogError("no " + name);
    return it->second;
  }
  Result<TablePtr> ForeignFetch(const std::string& /*server*/,
                                const std::string& relation,
                                double /*est_rows*/,
                                double /*est_bytes*/) override {
    return GetLocalTable(relation);
  }
  ComputeTrace* trace() override { return &trace_; }
  int exec_threads() const override { return threads_; }

 private:
  int threads_;
  ComputeTrace trace_;
  std::map<std::string, TablePtr> tables_;
};

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

/// One key column to generate: its declared type and the encoding the
/// generated chunk must end up in.
struct KeySpec {
  TypeId type;
  ColumnEncoding encoding;
};

std::string SpecName(const KeySpec& s) {
  return std::string(TypeIdToString(s.type)) + "/" +
         ColumnEncodingToString(s.encoding);
}

/// Doubles that exercise every key class rule: every int of the int-class
/// domain below as an integral double, non-integral values, ±0.0,
/// magnitudes beyond 2^53, NaN and ±inf.
const std::vector<double>& SpecialDoubles() {
  static const std::vector<double> v = [] {
    std::vector<double> d = {
        0.0,    -0.0,  2.5,  -3.0, 1e17, std::ldexp(1.0, 60), -1e300,
        1e300,  std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), 9007199254740992.0};
    for (int k = 0; k < 12; ++k) d.push_back(3.0 * k - 5.0);
    return d;
  }();
  return v;
}

/// A domain value: small ints from -5 (so frame-of-reference columns have a
/// nonzero base) shared by every int-class type, and the special doubles
/// for double columns.
Value DomainValue(TypeId type, int k) {
  switch (type) {
    case TypeId::kBool:
      return Value::Bool((k & 1) != 0);
    case TypeId::kDate:
      return Value::Date(3 * k - 5);
    case TypeId::kDouble:
      return Value::Double(SpecialDoubles()[static_cast<size_t>(k)]);
    case TypeId::kString:
      return Value::String("s" + std::to_string(k));
    case TypeId::kInt64:
      break;
  }
  return Value::Int64(3 * k - 5);
}

/// A lane whose type tag differs from the column's, forcing it boxed; some
/// are equal under the key rules to domain values of the other side.
Value ForeignValue(TypeId type, int k, std::mt19937* rng) {
  switch (type) {
    case TypeId::kString:
      return Value::Int64(k);
    case TypeId::kDouble:
      return (*rng)() % 2 == 0 ? Value::Int64(k) : Value::Date(k);
    default:
      return (*rng)() % 2 == 0 ? Value::Double(k) : Value::Double(k + 0.5);
  }
}

/// `n` key lanes of `spec` drawn from a domain of 12 values (every special
/// double for doubles), so keys repeat heavily; NULL-bearing unless the
/// encoding is RLE (which is null-free).
ColumnChunk MakeKeys(const KeySpec& spec, size_t n, std::mt19937* rng) {
  const int domain = spec.type == TypeId::kDouble
                         ? static_cast<int>(SpecialDoubles().size())
                         : 12;
  std::uniform_int_distribution<int> pick(0, domain - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Value> lanes;
  if (spec.encoding == ColumnEncoding::kRle) {
    while (lanes.size() < n) {
      const Value v = DomainValue(spec.type, pick(*rng));
      for (int r = 0; r < 16 && lanes.size() < n; ++r) lanes.push_back(v);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (unit(*rng) < 0.08) {
        lanes.push_back(Value::Null(spec.type));
      } else if (spec.encoding == ColumnEncoding::kBoxed &&
                 unit(*rng) < 0.2) {
        lanes.push_back(ForeignValue(spec.type, pick(*rng), rng));
      } else {
        lanes.push_back(DomainValue(spec.type, pick(*rng)));
      }
    }
  }
  if (spec.encoding == ColumnEncoding::kDictionary) {
    // Gather from a parent with extra distinct entries, so the dictionary
    // (which a gather keeps whole) holds entries no lane references.
    std::vector<Value> parent = lanes;
    for (int e = 0; e < 40; ++e) {
      parent.push_back(Value::String("extra" + std::to_string(e)));
    }
    ColumnChunk whole = ColumnChunk::FromValues(spec.type, std::move(parent));
    whole.Encode();
    std::vector<uint32_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = static_cast<uint32_t>(n - 1 - i);
    return whole.Gather(idx);
  }
  ColumnChunk c = ColumnChunk::FromValues(spec.type, std::move(lanes));
  if (spec.encoding == ColumnEncoding::kRle ||
      spec.encoding == ColumnEncoding::kFor) {
    c.Encode();
  }
  return c;
}

/// A table of the key columns plus a plain row-id column last.
TablePtr WithIds(std::vector<Field> fields, std::vector<ColumnChunk> cols,
                 size_t n) {
  std::vector<int64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int64_t>(i);
  fields.push_back({"id", TypeId::kInt64});
  cols.push_back(ColumnChunk::Int64s(TypeId::kInt64, std::move(ids), {}));
  return std::make_shared<Table>(Schema(std::move(fields)), std::move(cols),
                                 n);
}

TablePtr MakeSide(const std::vector<KeySpec>& specs, size_t n,
                  std::mt19937* rng) {
  std::vector<Field> fields;
  std::vector<ColumnChunk> cols;
  for (size_t k = 0; k < specs.size(); ++k) {
    fields.push_back({"k" + std::to_string(k), specs[k].type});
    cols.push_back(MakeKeys(specs[k], n, rng));
    EXPECT_EQ(cols.back().encoding(), specs[k].encoding)
        << SpecName(specs[k]);
  }
  return WithIds(std::move(fields), std::move(cols), n);
}

/// Each row's normalized key bytes as an id that is equal exactly when the
/// bytes are (interned in `ids`, shared by both sides), or -1 when a key
/// lane is NULL.
std::vector<int> NormalizedKeyIds(const Table& t, size_t width,
                                  std::map<std::string, int>* ids) {
  std::vector<int> out(t.num_rows());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    std::string key;
    bool null = false;
    for (size_t k = 0; k < width; ++k) {
      null = null || t.column(k).IsNull(i);
      t.column(k).GetValue(i).AppendNormalizedKey(&key);
    }
    out[i] = null ? -1
                  : ids->emplace(key, static_cast<int>(ids->size()))
                        .first->second;
  }
  return out;
}

/// The nested-loop reference: the larger side drives (the hash join builds
/// on the smaller, the right one on a tie), and for each of its rows the
/// other side's rows with equal normalized key bytes follow in ascending
/// order.
Pairs NestedLoopPairs(const Table& left, const Table& right, size_t width) {
  std::map<std::string, int> ids;
  const std::vector<int> lk = NormalizedKeyIds(left, width, &ids);
  const std::vector<int> rk = NormalizedKeyIds(right, width, &ids);
  const bool build_right = right.num_rows() <= left.num_rows();
  const std::vector<int>& outer = build_right ? lk : rk;
  const std::vector<int>& inner = build_right ? rk : lk;
  Pairs pairs;
  for (size_t o = 0; o < outer.size(); ++o) {
    for (size_t i = 0; i < inner.size(); ++i) {
      if (outer[o] < 0 || inner[i] != outer[o]) continue;
      const int64_t a = static_cast<int64_t>(o);
      const int64_t b = static_cast<int64_t>(i);
      pairs.emplace_back(build_right ? a : b, build_right ? b : a);
    }
  }
  return pairs;
}

PlanPtr ScanOf(const std::string& name, const TablePtr& t) {
  return PlanNode::MakeScan("db", name, name, t->schema(),
                            ComputeTableStats(*t));
}

/// The (left id, right id) pairs the executor's join emits, in order.
Pairs JoinPairs(const TablePtr& left, const TablePtr& right, size_t width,
                int threads) {
  TablesContext ctx(threads);
  ctx.Add("l", left);
  ctx.Add("r", right);
  std::vector<int> keys;
  for (size_t k = 0; k < width; ++k) keys.push_back(static_cast<int>(k));
  auto out = ExecutePlan(
      *PlanNode::MakeJoin(ScanOf("l", left), ScanOf("r", right), keys, keys,
                          nullptr),
      &ctx);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return {};
  const ColumnChunk& lid = (*out)->column(width);
  const ColumnChunk& rid = (*out)->column(2 * width + 1);
  Pairs pairs;
  for (size_t i = 0; i < (*out)->num_rows(); ++i) {
    pairs.emplace_back(lid.GetValue(i).int64_value(),
                       rid.GetValue(i).int64_value());
  }
  return pairs;
}

/// Joins tables of `left` and `right` key specs in both size orientations —
/// the larger side crossing a 4096-row morsel boundary, so both sides take
/// each role — and checks the pairs against the nested loop.
void CheckPairing(const std::vector<KeySpec>& left,
                  const std::vector<KeySpec>& right, uint32_t seed,
                  size_t big = 4100, size_t small = 60) {
  std::string name;
  for (size_t k = 0; k < left.size(); ++k) {
    name += SpecName(left[k]) + "=" + SpecName(right[k]) + " ";
  }
  for (const auto& [nl, nr] : {std::pair{big, small}, std::pair{small, big}}) {
    SCOPED_TRACE(name + std::to_string(nl) + "x" + std::to_string(nr));
    std::mt19937 rng(seed);
    const TablePtr l = MakeSide(left, nl, &rng);
    const TablePtr r = MakeSide(right, nr, &rng);
    const Pairs expected = NestedLoopPairs(*l, *r, left.size());
    EXPECT_FALSE(expected.empty());
    for (int threads : {1, 4}) {
      EXPECT_EQ(JoinPairs(l, r, left.size(), threads), expected)
          << "exec_threads=" << threads;
    }
  }
}

TEST(ExecutorJoinKeys, IntClassEncodingPairs) {
  const ColumnEncoding all[] = {ColumnEncoding::kPlain, ColumnEncoding::kRle,
                                ColumnEncoding::kFor, ColumnEncoding::kBoxed};
  uint32_t seed = 1;
  for (TypeId type : {TypeId::kInt64, TypeId::kDate, TypeId::kBool}) {
    for (ColumnEncoding a : all) {
      for (ColumnEncoding b : all) {
        // Frame-of-reference never applies to bools (plain is one byte).
        if (type == TypeId::kBool &&
            (a == ColumnEncoding::kFor || b == ColumnEncoding::kFor)) {
          continue;
        }
        CheckPairing({{type, a}}, {{type, b}}, seed++);
      }
    }
  }
}

TEST(ExecutorJoinKeys, DoubleKeysAgainstDoublesAndInts) {
  const ColumnEncoding doubles[] = {ColumnEncoding::kPlain,
                                    ColumnEncoding::kBoxed};
  uint32_t seed = 100;
  for (ColumnEncoding a : doubles) {
    for (ColumnEncoding b : doubles) {
      CheckPairing({{TypeId::kDouble, a}}, {{TypeId::kDouble, b}}, seed++);
    }
    // 1.0 == 1 and -0.0 == 0 across column types.
    for (ColumnEncoding b : {ColumnEncoding::kPlain, ColumnEncoding::kRle,
                             ColumnEncoding::kFor, ColumnEncoding::kBoxed}) {
      CheckPairing({{TypeId::kDouble, a}}, {{TypeId::kInt64, b}}, seed++);
      CheckPairing({{TypeId::kInt64, b}}, {{TypeId::kDouble, a}}, seed++);
    }
  }
}

TEST(ExecutorJoinKeys, StringEncodingPairs) {
  // Each side's dictionary is built separately, so equal strings carry
  // different codes on the two sides.
  const ColumnEncoding all[] = {ColumnEncoding::kPlain,
                                ColumnEncoding::kDictionary,
                                ColumnEncoding::kBoxed};
  uint32_t seed = 200;
  for (ColumnEncoding a : all) {
    for (ColumnEncoding b : all) {
      CheckPairing({{TypeId::kString, a}}, {{TypeId::kString, b}}, seed++);
    }
  }
}

TEST(ExecutorJoinKeys, TwoColumnKeys) {
  uint32_t seed = 300;
  CheckPairing({{TypeId::kInt64, ColumnEncoding::kFor},
                {TypeId::kString, ColumnEncoding::kDictionary}},
               {{TypeId::kInt64, ColumnEncoding::kPlain},
                {TypeId::kString, ColumnEncoding::kDictionary}},
               seed++);
  CheckPairing({{TypeId::kInt64, ColumnEncoding::kRle},
                {TypeId::kString, ColumnEncoding::kPlain}},
               {{TypeId::kInt64, ColumnEncoding::kBoxed},
                {TypeId::kString, ColumnEncoding::kBoxed}},
               seed++);
  CheckPairing({{TypeId::kDate, ColumnEncoding::kFor},
                {TypeId::kDouble, ColumnEncoding::kPlain}},
               {{TypeId::kDate, ColumnEncoding::kRle},
                {TypeId::kInt64, ColumnEncoding::kFor}},
               seed++);
}

TEST(ExecutorJoinKeys, BothSidesCrossMorselBoundaries) {
  // Build and probe both span several morsels: the build decodes per morsel
  // and the probe's bucket walks must still see every build row in order.
  CheckPairing({{TypeId::kInt64, ColumnEncoding::kFor}},
               {{TypeId::kInt64, ColumnEncoding::kRle}}, 400, 4400, 4200);
  CheckPairing({{TypeId::kString, ColumnEncoding::kDictionary}},
               {{TypeId::kString, ColumnEncoding::kPlain}}, 401, 4300, 4100);
}

/// The join hash of a one-column int key: the first column's hash enters
/// the row hash unchanged.
uint64_t IntKeyHash(int64_t v) {
  return HashKeyLane({KeyClass::kInt, static_cast<uint64_t>(v)});
}

TEST(ExecutorJoinKeys, BucketTagsRejectOnlyNonMatches) {
  // A build of 64 non-NULL rows has 64 buckets, and a row's bucket is the
  // low six bits of its hash. Bucket 0 gets 16 keys with 16 different tag
  // bits, so its tag has every bit set; this is possible only because the
  // tag bit comes from hash bits that the bucket index does not use.
  constexpr size_t kBuild = 64;
  constexpr uint64_t kMask = kBuild - 1;
  std::vector<int64_t> build;
  uint16_t full = 0;
  for (int64_t v = 0; v < 1000000 && full != 0xffff; ++v) {
    const uint64_t h = IntKeyHash(v);
    if ((h & kMask) == 0 && (full & JoinTagBit(h)) == 0) {
      full |= JoinTagBit(h);
      build.push_back(v);
    }
  }
  ASSERT_EQ(full, 0xffff) << "no bucket holds every tag bit";
  for (int64_t v = -1; build.size() < kBuild; --v) {
    if ((IntKeyHash(v) & kMask) != 0) build.push_back(v);
  }
  std::vector<uint16_t> tags(kBuild, 0);
  for (int64_t v : build) {
    tags[IntKeyHash(v) & kMask] |= JoinTagBit(IntKeyHash(v));
  }

  // Keys no build row holds: `rejected` land in non-empty buckets whose tag
  // lacks their bit; `unmatched` land in the full bucket and get walked.
  std::vector<int64_t> rejected, unmatched;
  for (int64_t v = 1000000;
       v < 3000000 && (rejected.size() < 40 || unmatched.size() < 40); ++v) {
    const uint64_t h = IntKeyHash(v);
    const uint16_t tag = tags[h & kMask];
    if (tag != 0 && (tag & JoinTagBit(h)) == 0 && rejected.size() < 40) {
      rejected.push_back(v);
    } else if ((h & kMask) == 0 && unmatched.size() < 40) {
      unmatched.push_back(v);
    }
  }
  ASSERT_EQ(rejected.size(), 40u) << "no probe key is rejected by a tag";
  ASSERT_EQ(unmatched.size(), 40u);

  // The probe side spans two morsels: build keys (some twice), both kinds
  // of key that matches nothing, and NULLs.
  std::mt19937 rng(500);
  std::vector<Value> probe;
  for (size_t i = 0; i < 4200; ++i) {
    switch (rng() % 5) {
      case 0: probe.push_back(Value::Int64(rejected[rng() % 40])); break;
      case 1: probe.push_back(Value::Int64(unmatched[rng() % 40])); break;
      case 2: probe.push_back(Value::Null(TypeId::kInt64)); break;
      default: probe.push_back(Value::Int64(build[rng() % kBuild])); break;
    }
  }
  std::vector<Value> build_lanes;
  for (int64_t v : build) build_lanes.push_back(Value::Int64(v));
  const auto side = [](std::vector<Value> lanes) {
    const size_t n = lanes.size();
    std::vector<ColumnChunk> cols;
    cols.push_back(ColumnChunk::FromValues(TypeId::kInt64, std::move(lanes)));
    return WithIds({{"k", TypeId::kInt64}}, std::move(cols), n);
  };
  const TablePtr big = side(std::move(probe));
  const TablePtr small = side(std::move(build_lanes));
  for (const auto& [l, r] : {std::pair{big, small}, std::pair{small, big}}) {
    const Pairs expected = NestedLoopPairs(*l, *r, 1);
    EXPECT_FALSE(expected.empty());
    for (int threads : {1, 4}) {
      EXPECT_EQ(JoinPairs(l, r, 1, threads), expected)
          << "exec_threads=" << threads;
    }
  }
}

TEST(ExecutorJoinKeys, NonFiniteDoubleKeysGroupAndJoin) {
  // NaN, ±inf and ±1e300 lanes reach the key encoders through group keys
  // and join keys; converting them to int64 would be undefined behaviour
  // (the sanitizer build checks float-cast-overflow).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs = {nan, inf, -inf, 1e300, -1e300, 1e300,
                                  nan, 1.0, inf, 0.5};
  std::vector<ColumnChunk> cols;
  cols.push_back(ColumnChunk::Doubles(xs, {}));
  const TablePtr t =
      WithIds({{"x", TypeId::kDouble}}, std::move(cols), xs.size());
  TablesContext ctx(1);
  ctx.Add("t", t);
  auto agg = ExecutePlan(
      *PlanNode::MakeAggregate(ScanOf("t", t),
                               {Expr::BoundColumn(0, TypeId::kDouble, "x")},
                               {Expr::Aggregate(AggKind::kCountStar, nullptr)}),
      &ctx);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  // NaN (one bit pattern), inf, -inf, 1e300, -1e300, 1.0, 0.5.
  EXPECT_EQ((*agg)->num_rows(), 7u);
  int64_t total = 0;
  for (size_t i = 0; i < (*agg)->num_rows(); ++i) {
    total += (*agg)->column(1).GetValue(i).int64_value();
  }
  EXPECT_EQ(total, static_cast<int64_t>(xs.size()));

  // A self-join matches equal bit patterns, NaN included, as the
  // normalized key bytes do.
  const Pairs expected = NestedLoopPairs(*t, *t, 1);
  EXPECT_EQ(expected.size(), 4u + 4u + 1u + 4u + 1u + 1u + 1u);
  for (int threads : {1, 4}) EXPECT_EQ(JoinPairs(t, t, 1, threads), expected);
}

}  // namespace
}  // namespace xdb
