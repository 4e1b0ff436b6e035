// Reference columns: filter, join, sort and limit outputs read the lanes of
// shared base columns through position lists instead of copying them. A
// chain of operators must read exactly the lanes that copying every
// operator's output (the eager gathers) gives — type tag, NULL-ness and
// double bits — and materializing its output must give the same encoding
// and wire widths, at exec_threads 1 and 4.
//
// Suite names start with "Executor" so the sanitizer CI jobs pick them up
// by regex.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <random>

#include "src/dbms/federation.h"
#include "src/dbms/server.h"
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

bool BitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type() || a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  switch (a.type()) {
    case TypeId::kString:
      return a.string_value() == b.string_value();
    case TypeId::kDouble: {
      const double x = a.double_value(), y = b.double_value();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    default:
      return a.int64_value() == b.int64_value();
  }
}

/// A column of `n` lanes `lane(i)`, re-encoded when `encode` is set, which
/// must end up in `want`.
ColumnChunk MakeColumn(TypeId type, size_t n,
                       const std::function<Value(size_t)>& lane, bool encode,
                       ColumnEncoding want) {
  std::vector<Value> lanes;
  for (size_t i = 0; i < n; ++i) lanes.push_back(lane(i));
  ColumnChunk c = ColumnChunk::FromValues(type, std::move(lanes));
  if (encode) c.Encode();
  EXPECT_EQ(c.encoding(), want) << ColumnEncodingToString(want);
  return c;
}

TablePtr MakeTable(std::vector<Field> fields, std::vector<ColumnChunk> cols) {
  const size_t n = cols.empty() ? 0 : cols[0].size();
  return std::make_shared<Table>(Schema(std::move(fields)), std::move(cols),
                                 n);
}

/// `n` rows with a column of every encoding: plain int64, double, string
/// and bool with and without a NULL bytemap, dictionary, RLE, FOR and boxed.
/// `id` is the row number and `k` a small key for filters and joins.
TablePtr BaseTable(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint32_t> r(n);
  for (uint32_t& x : r) x = rng();
  auto null_at = [&](size_t i) { return r[i] % 10 == 0; };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {0.0, -0.0, 2.5, -7.25, 1e300, 3.0};
  std::vector<Field> f;
  std::vector<ColumnChunk> c;
  auto add = [&](const char* name, TypeId type,
                 const std::function<Value(size_t)>& lane, bool encode,
                 ColumnEncoding want) {
    f.push_back({name, type});
    c.push_back(MakeColumn(type, n, lane, encode, want));
  };
  const ColumnEncoding plain = ColumnEncoding::kPlain;
  add("id", TypeId::kInt64,
      [](size_t i) { return Value::Int64(static_cast<int64_t>(i)); }, false,
      plain);
  add("k", TypeId::kInt64,
      [&](size_t i) { return Value::Int64(r[i] % 10); }, false, plain);
  add("i64n", TypeId::kInt64,
      [&](size_t i) {
        return null_at(i) ? Value::Null(TypeId::kInt64)
                          : Value::Int64(static_cast<int64_t>(r[i]) << 20);
      },
      false, plain);
  add("f64", TypeId::kDouble,
      [&](size_t i) { return Value::Double(doubles[r[i] % 6] + (i % 7)); },
      false, plain);
  add("f64n", TypeId::kDouble,
      [&](size_t i) {
        return null_at(i)      ? Value::Null(TypeId::kDouble)
               : r[i] % 9 == 0 ? Value::Double(nan)
                               : Value::Double(doubles[r[i] % 6]);
      },
      false, plain);
  add("str", TypeId::kString,
      [&](size_t i) { return Value::String("s" + std::to_string(r[i])); },
      false, plain);
  add("strn", TypeId::kString,
      [&](size_t i) {
        return null_at(i) ? Value::Null(TypeId::kString)
                          : Value::String(std::to_string(i));
      },
      false, plain);
  add("b", TypeId::kBool,
      [&](size_t i) { return Value::Bool(r[i] % 3 == 0); }, false, plain);
  add("bn", TypeId::kBool,
      [&](size_t i) {
        return null_at(i) ? Value::Null(TypeId::kBool)
                          : Value::Bool(r[i] % 2 == 0);
      },
      false, plain);
  add("dict", TypeId::kString,
      [&](size_t i) {
        return null_at(i) ? Value::Null(TypeId::kString)
                          : Value::String("tag" + std::to_string(r[i] % 5));
      },
      true, ColumnEncoding::kDictionary);
  add("rle", TypeId::kInt64,
      [](size_t i) {
        return Value::Int64(static_cast<int64_t>(i / 16) * 1000003 << 20);
      },
      true, ColumnEncoding::kRle);
  add("for", TypeId::kInt64,
      [&](size_t i) {
        return null_at(i) ? Value::Null(TypeId::kInt64)
                          : Value::Int64(-40 + r[i] % 200);
      },
      true, ColumnEncoding::kFor);
  add("boxed", TypeId::kInt64,
      [&](size_t i) {
        // Some stretches hold declared-type lanes only, so their gathers
        // unbox.
        if ((i / 500) % 3 == 0) return Value::Int64(r[i] % 50);
        return r[i] % 5 == 0   ? Value::Double(r[i] % 7 + 0.5)
               : null_at(i)    ? Value::Null(TypeId::kDouble)
               : r[i] % 4 == 0 ? Value::Null(TypeId::kInt64)
                               : Value::Int64(r[i] % 50);
      },
      false, ColumnEncoding::kBoxed);
  return MakeTable(std::move(f), std::move(c));
}

/// Join partner on `id`: each id of [0, n) appears 0 to 2 times, shuffled,
/// next to a row number and dictionary, FOR and boxed columns of its own.
TablePtr PartnerTable(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<int64_t> ids;
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t copies = rng() % 3; copies > 0; --copies) {
      ids.push_back(static_cast<int64_t>(i));
    }
  }
  std::shuffle(ids.begin(), ids.end(), rng);
  const size_t m = ids.size();
  std::vector<uint32_t> r(m);
  for (uint32_t& x : r) x = rng();
  std::vector<Field> f = {{"u_id", TypeId::kInt64},
                          {"u_row", TypeId::kInt64},
                          {"u_dict", TypeId::kString},
                          {"u_for", TypeId::kDate},
                          {"u_boxed", TypeId::kString}};
  std::vector<ColumnChunk> c;
  c.push_back(MakeColumn(
      TypeId::kInt64, m, [&](size_t i) { return Value::Int64(ids[i]); },
      false, ColumnEncoding::kPlain));
  c.push_back(MakeColumn(
      TypeId::kInt64, m,
      [](size_t i) { return Value::Int64(static_cast<int64_t>(i)); }, false,
      ColumnEncoding::kPlain));
  c.push_back(MakeColumn(
      TypeId::kString, m,
      [&](size_t i) { return Value::String("u" + std::to_string(r[i] % 7)); },
      true, ColumnEncoding::kDictionary));
  c.push_back(MakeColumn(
      TypeId::kDate, m,
      [&](size_t i) { return Value::Date(10000 + r[i] % 3000); }, true,
      ColumnEncoding::kFor));
  c.push_back(MakeColumn(
      TypeId::kString, m,
      [&](size_t i) {
        return r[i] % 6 == 0 ? Value::Int64(r[i] % 9)
                             : Value::String("x" + std::to_string(r[i] % 9));
      },
      false, ColumnEncoding::kBoxed));
  return MakeTable(std::move(f), std::move(c));
}

/// Second join partner on `k`: k values 0 to 11, some twice.
TablePtr KeyTable() {
  std::vector<Field> f = {{"v_k", TypeId::kInt64},
                          {"v_row", TypeId::kInt64},
                          {"v_name", TypeId::kString}};
  const int64_t keys[] = {0, 1, 2, 2, 3, 4, 5, 6, 6, 7, 8, 9, 10, 11};
  const size_t m = std::size(keys);
  std::vector<ColumnChunk> c;
  c.push_back(MakeColumn(
      TypeId::kInt64, m, [&](size_t i) { return Value::Int64(keys[i]); },
      false, ColumnEncoding::kPlain));
  c.push_back(MakeColumn(
      TypeId::kInt64, m,
      [](size_t i) { return Value::Int64(static_cast<int64_t>(i)); }, false,
      ColumnEncoding::kPlain));
  c.push_back(MakeColumn(
      TypeId::kString, m,
      [](size_t i) { return Value::String("v" + std::to_string(i)); }, false,
      ColumnEncoding::kPlain));
  return MakeTable(std::move(f), std::move(c));
}

PlanPtr ScanOf(const std::string& name, const TablePtr& t) {
  return PlanNode::MakeScan("db", name, name, t->schema(),
                            ComputeTableStats(*t));
}

int IndexOf(const PlanNode& input, const std::string& name) {
  const std::optional<size_t> idx = input.output_schema.IndexOf(name);
  EXPECT_TRUE(idx.has_value()) << name;
  return idx ? static_cast<int>(*idx) : 0;
}

ExprPtr Col(const PlanNode& input, const std::string& name) {
  const int idx = IndexOf(input, name);
  return Expr::BoundColumn(
      idx, input.output_schema.field(static_cast<size_t>(idx)).type, name);
}

ExprPtr Lit(int64_t v) { return Expr::Literal(Value::Int64(v)); }

/// Turns a join's right input plan into the plan the join reads: itself, or
/// in the eager chain a scan of its copied-out output.
using RightInput = std::function<PlanPtr(PlanPtr)>;
/// One operator of a chain, built over its input plan.
using Step = std::function<PlanPtr(PlanPtr, const RightInput&)>;

Step FilterStep(const std::string& column, BinaryOp op, int64_t v) {
  return [=](PlanPtr in, const RightInput&) {
    ExprPtr pred = Expr::Binary(op, Col(*in, column), Lit(v));
    return PlanNode::MakeFilter(std::move(in), std::move(pred));
  };
}

/// Every input column as a bare reference, plus one computed column.
Step ProjectStep() {
  return [](PlanPtr in, const RightInput&) {
    std::vector<ExprPtr> exprs;
    for (const Field& f : in->output_schema.fields()) {
      exprs.push_back(Col(*in, f.name));
    }
    ExprPtr plus = Expr::Binary(BinaryOp::kAdd, Col(*in, "id"), Lit(1));
    plus->alias = "id_plus";
    exprs.push_back(std::move(plus));
    return PlanNode::MakeProject(std::move(in), std::move(exprs));
  };
}

/// Joins the input to `right_plan()` on input.`lkey` = right.`rkey`.
Step JoinStep(std::function<PlanPtr()> right_plan, const std::string& lkey,
              const std::string& rkey) {
  return [=](PlanPtr in, const RightInput& right) {
    PlanPtr r = right(right_plan());
    const int l = IndexOf(*in, lkey);
    const int k = IndexOf(*r, rkey);
    return PlanNode::MakeJoin(std::move(in), std::move(r), {l}, {k}, nullptr);
  };
}

/// A total order: f64 descending, then the row numbers of every input.
std::vector<std::pair<int, bool>> SortKeys(const PlanNode& in) {
  return {{IndexOf(in, "f64"), true},
          {IndexOf(in, "id"), false},
          {IndexOf(in, "u_row"), false},
          {IndexOf(in, "v_row"), false}};
}

Step SortStep() {
  return [](PlanPtr in, const RightInput&) {
    auto keys = SortKeys(*in);
    return PlanNode::MakeSort(std::move(in), std::move(keys));
  };
}

/// LIMIT over a sort of the input: the executor's top-N path, a partial
/// sort, which the total order of SortKeys makes deterministic.
Step TopNStep(int64_t n) {
  return [n](PlanPtr in, const RightInput&) {
    auto keys = SortKeys(*in);
    return PlanNode::MakeLimit(PlanNode::MakeSort(std::move(in), keys), n);
  };
}

Step LimitStep(int64_t n) {
  return [n](PlanPtr in, const RightInput&) {
    return PlanNode::MakeLimit(std::move(in), n);
  };
}

/// Asserts that `got` reads the lanes of `want` and that both materialize
/// to the same encoding and wire widths.
void ExpectSameColumn(const ColumnChunk& got, const ColumnChunk& want,
                      const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.type(), want.type());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.IsNull(i), want.IsNull(i)) << "lane " << i;
    ASSERT_TRUE(BitEqual(got.GetValue(i), want.GetValue(i)))
        << "lane " << i << ": " << got.GetValue(i).ToString() << " vs "
        << want.GetValue(i).ToString();
  }
  EXPECT_EQ(got.DecodedSize(), want.DecodedSize());
  ColumnChunk a = got, b = want;
  a.Materialize();
  b.Materialize();
  EXPECT_EQ(a.encoding(), b.encoding());
  EXPECT_EQ(a.EncodedSize(), b.EncodedSize());
  EXPECT_EQ(got.EncodedSize(), a.EncodedSize());
}

/// Runs every prefix of `steps` over `base` as one plan, at 1 and 4
/// threads, against the eager chain: each operator run on its own over
/// copied-out inputs, which makes its output the Gather() of their lanes.
void CheckChain(const TablePtr& base, const std::vector<Step>& steps,
                const std::map<std::string, TablePtr>& others) {
  TablesContext eager(1);
  for (const auto& [name, t] : others) eager.Add(name, t);
  eager.Add("base", base);
  int copies = 0;
  // Runs `plan` on the eager context and registers a copy of its output.
  auto copy_out = [&](const PlanPtr& plan) -> TablePtr {
    auto out = ExecutePlan(*plan, &eager);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    if (!out.ok()) return nullptr;
    auto copied = std::make_shared<Table>(**out);
    copied->Materialize();
    eager.Add("copy" + std::to_string(copies++), copied);
    return copied;
  };
  const RightInput eager_right = [&](PlanPtr plan) {
    const TablePtr t = copy_out(plan);
    return ScanOf("copy" + std::to_string(copies - 1), t);
  };
  const RightInput same = [](PlanPtr plan) { return plan; };
  TablePtr prev = base;
  std::string prev_name = "base";
  for (size_t s = 0; s < steps.size(); ++s) {
    SCOPED_TRACE("step " + std::to_string(s));
    prev = copy_out(steps[s](ScanOf(prev_name, prev), eager_right));
    ASSERT_NE(prev, nullptr);
    prev_name = "copy" + std::to_string(copies - 1);

    PlanPtr plan = ScanOf("base", base);
    for (size_t k = 0; k <= s; ++k) plan = steps[k](std::move(plan), same);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("exec_threads=" + std::to_string(threads));
      TablesContext ctx(threads);
      for (const auto& [name, t] : others) ctx.Add(name, t);
      ctx.Add("base", base);
      auto out = ExecutePlan(*plan, &ctx);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      const Table& got = **out;
      ASSERT_EQ(got.num_rows(), prev->num_rows());
      ASSERT_EQ(got.columns().size(), prev->columns().size());
      for (size_t c = 0; c < got.columns().size(); ++c) {
        ExpectSameColumn(got.column(c), prev->column(c),
                         got.schema().field(c).name);
      }
      Table copy = got;
      copy.Materialize();
      EXPECT_EQ(got.SerializedSize(), copy.SerializedSize());
      EXPECT_EQ(got.EncodedSerializedSize(), copy.EncodedSerializedSize());
      EXPECT_EQ(got.SerializedSize(), prev->SerializedSize());
      EXPECT_EQ(got.EncodedSerializedSize(), prev->EncodedSerializedSize());
    }
  }
}

class ExecutorRefColumns : public ::testing::Test {
 protected:
  // 9,000 rows: every morsel-parallel operator crosses two 4,096-row
  // morsel boundaries.
  const TablePtr base_ = BaseTable(9000, 7);
  const std::map<std::string, TablePtr> others_ = {
      {"u", PartnerTable(9000, 8)}, {"v", KeyTable()}};

  Step JoinU() const {
    const TablePtr u = others_.at("u");
    return JoinStep([u] { return ScanOf("u", u); }, "id", "u_id");
  }
  /// The second join's right side is itself a filter output, so both join
  /// inputs carry position lists.
  Step JoinV() const {
    const TablePtr v = others_.at("v");
    return JoinStep(
        [v] {
          return FilterStep("v_k", BinaryOp::kLt, 9)(
              ScanOf("v", v), [](PlanPtr p) { return p; });
        },
        "k", "v_k");
  }
};

TEST_F(ExecutorRefColumns, FilterProjectJoinJoinSortLimit) {
  CheckChain(base_,
             {FilterStep("k", BinaryOp::kLt, 7), ProjectStep(), JoinU(),
              JoinV(), SortStep(), TopNStep(700)},
             others_);
}

TEST_F(ExecutorRefColumns, PrefixLimitOverPassThroughProject) {
  CheckChain(base_,
             {FilterStep("k", BinaryOp::kNe, 3), JoinU(), JoinV(), SortStep(),
              ProjectStep(), LimitStep(5000),
              FilterStep("k", BinaryOp::kGt, 1)},
             others_);
}

TEST_F(ExecutorRefColumns, EmptyAndFullSelections) {
  CheckChain(base_,
             {FilterStep("k", BinaryOp::kGe, 0), ProjectStep(),
              FilterStep("k", BinaryOp::kGt, 100), JoinU(), JoinV(),
              SortStep()},
             others_);
  CheckChain(base_, {LimitStep(20000), JoinV(), LimitStep(0)}, others_);
}

TEST_F(ExecutorRefColumns, PassThroughBuildsNoPositionList) {
  TablesContext ctx(4);
  ctx.Add("base", base_);
  const RightInput same = [](PlanPtr p) { return p; };
  auto run = [&](const PlanPtr& plan) {
    auto out = ExecutePlan(*plan, &ctx);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : nullptr;
  };
  // A filter that keeps every row, and a project of bare columns over a
  // base table, reference every lane of their base: no list.
  for (const PlanPtr& plan :
       {FilterStep("k", BinaryOp::kGe, 0)(ScanOf("base", base_), same),
        ProjectStep()(ScanOf("base", base_), same)}) {
    const TablePtr out = run(plan);
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(out->num_rows(), base_->num_rows());
    for (size_t c = 0; c < base_->columns().size(); ++c) {
      EXPECT_EQ(out->column(c).encoding(), ColumnEncoding::kReference);
      EXPECT_EQ(out->column(c).positions(), nullptr);
    }
  }
  // Over a filter that drops rows, a bare-column project passes the
  // filter's one list through, shared by every column.
  const PlanPtr filter =
      FilterStep("k", BinaryOp::kLt, 4)(ScanOf("base", base_), same);
  const TablePtr filtered = run(filter);
  ASSERT_NE(filtered, nullptr);
  ctx.Add("filtered", filtered);
  const TablePtr projected =
      run(ProjectStep()(ScanOf("filtered", filtered), same));
  ASSERT_NE(projected, nullptr);
  const ColumnChunk::Positions* list = filtered->column(0).positions().get();
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->size(), filtered->num_rows());
  for (size_t c = 0; c < base_->columns().size(); ++c) {
    EXPECT_EQ(filtered->column(c).positions().get(), list);
    EXPECT_EQ(projected->column(c).positions().get(), list);
  }
  // A join composes each distinct input list once: the base's columns
  // share one composed list, the partner's columns another.
  const TablePtr u = others_.at("u");
  ctx.Add("u", u);
  const TablePtr joined = run(JoinU()(filter, same));
  ASSERT_NE(joined, nullptr);
  const size_t nb = base_->columns().size();
  const ColumnChunk::Positions* left = joined->column(0).positions().get();
  const ColumnChunk::Positions* right = joined->column(nb).positions().get();
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  EXPECT_NE(left, list);
  for (size_t c = 0; c < joined->columns().size(); ++c) {
    EXPECT_EQ(joined->column(c).positions().get(), c < nb ? left : right);
  }
}

/// A producer "p" holding BaseTable(6000) as "t", and a consumer "c".
struct Servers {
  Servers() {
    fed.SetNetwork(Network::Lan({"p", "c"}));
    p = fed.AddServer("p", EngineProfile::Postgres());
    c = fed.AddServer("c", EngineProfile::Postgres());
    EXPECT_TRUE(p->CreateBaseTable("t", BaseTable(6000, 11)).ok());
  }

  Federation fed;
  DatabaseServer* p = nullptr;
  DatabaseServer* c = nullptr;
};

TEST_F(ExecutorRefColumns, ResultOutlivesInputsAndDroppedRelations) {
  Servers servers;
  DatabaseServer* p = servers.p;
  DatabaseServer* c = servers.c;
  // The consumer fetches the producer's view, whose filter output
  // references the producer's base table; the consumer's sort references
  // the fetched columns in turn.
  ASSERT_TRUE(p->ExecuteDdl("CREATE VIEW tv AS SELECT id, dict, rle, "
                            "boxed, f64n FROM t WHERE k < 5")
                  .ok());
  ASSERT_TRUE(
      c->ExecuteDdl("CREATE FOREIGN TABLE tv(id, dict, rle, boxed, f64n) "
                    "SERVER p")
          .ok());
  for (int threads : {1, 4}) {
    SCOPED_TRACE("exec_threads=" + std::to_string(threads));
    p->set_exec_threads(threads);
    c->set_exec_threads(threads);
    auto r = c->ExecuteQuery(
        "SELECT id, dict, rle, boxed, f64n FROM tv WHERE id > 100 "
        "ORDER BY id DESC");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const TablePtr result = *r;
    ASSERT_GT(result->num_rows(), 0u);
    EXPECT_EQ(result->column(0).encoding(), ColumnEncoding::kReference);
    auto copy = std::make_shared<Table>(*result);
    copy->Materialize();
    if (threads == 4) {
      ASSERT_TRUE(c->ExecuteDdl("DROP FOREIGN TABLE tv").ok());
      ASSERT_TRUE(p->ExecuteDdl("DROP VIEW tv").ok());
      ASSERT_TRUE(p->ExecuteDdl("DROP TABLE t").ok());
      EXPECT_FALSE(p->HasRelation("t"));
    }
    for (size_t col = 0; col < result->columns().size(); ++col) {
      ExpectSameColumn(result->column(col), copy->column(col),
                       result->schema().field(col).name);
    }
  }
}

TEST_F(ExecutorRefColumns, CreateTableAsOwnsItsLanes) {
  Servers servers;
  DatabaseServer* p = servers.p;
  ASSERT_TRUE(p->ExecuteDdl("CREATE TABLE m AS SELECT id, dict, rle, boxed "
                            "FROM t WHERE k < 5 ORDER BY id DESC")
                  .ok());
  auto stored = p->ServeRemote("m");
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  ASSERT_GT((*stored)->num_rows(), 0u);
  for (const ColumnChunk& c : (*stored)->columns()) {
    EXPECT_NE(c.encoding(), ColumnEncoding::kReference);
  }
  // The stored lanes do not depend on the relation they were read from.
  auto before = p->ExecuteQuery("SELECT id, dict, rle, boxed FROM m");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(p->ExecuteDdl("DROP TABLE t").ok());
  auto after = p->ExecuteQuery("SELECT id, dict, rle, boxed FROM m");
  ASSERT_TRUE(after.ok());
  ASSERT_EQ((*after)->num_rows(), (*before)->num_rows());
  for (size_t c = 0; c < (*after)->columns().size(); ++c) {
    ExpectSameColumn((*after)->column(c), (*before)->column(c), "m");
  }
}

}  // namespace
}  // namespace xdb
