#include <gtest/gtest.h>

#include "src/dbms/federation.h"
#include "src/dbms/server.h"
#include "src/exec/executor.h"
#include "src/tpch/dbgen.h"

namespace xdb {
namespace {

/// Minimal ExecContext over a fixed set of named tables; foreign fetches
/// are served from the same map (as if the remote produced them).
class FakeContext : public ExecContext {
 public:
  void Add(const std::string& name, TablePtr t) { tables_[name] = t; }

  Result<TablePtr> GetLocalTable(const std::string& name) override {
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::CatalogError("no " + name);
    return it->second;
  }
  Result<TablePtr> ForeignFetch(const std::string& server,
                                const std::string& relation,
                                double /*est_rows*/,
                                double /*est_bytes*/) override {
    fetches_.emplace_back(server, relation);
    return GetLocalTable(relation);
  }
  ComputeTrace* trace() override { return &trace_; }

  ComputeTrace trace_;
  std::vector<std::pair<std::string, std::string>> fetches_;

 private:
  std::map<std::string, TablePtr> tables_;
};

TablePtr MakeTable(Schema schema, std::vector<Row> rows) {
  return std::make_shared<Table>(std::move(schema), std::move(rows));
}

Schema Ab() { return Schema({{"a", TypeId::kInt64}, {"b", TypeId::kInt64}}); }

PlanPtr ScanOf(const std::string& name, TablePtr t) {
  return PlanNode::MakeScan("db", name, name, t->schema(),
                            ComputeTableStats(*t));
}

TEST(ExecutorTest, ScanProducesAllRows) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(2)},
                            {Value::Int64(3), Value::Int64(4)}});
  ctx.Add("t", t);
  auto r = ExecutePlan(*ScanOf("t", t), &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(ctx.trace_.scan_rows, 2.0);
}

TEST(ExecutorTest, ForeignScanRoutesThroughFetch) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(2)}});
  ctx.Add("remote_rel", t);
  PlanPtr scan = ScanOf("remote_rel", t);
  scan->is_foreign = true;
  scan->foreign_server = "other";
  scan->remote_relation = "remote_rel";
  auto r = ExecutePlan(*scan, &ctx);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(ctx.fetches_.size(), 1u);
  EXPECT_EQ(ctx.fetches_[0].first, "other");
  EXPECT_DOUBLE_EQ(ctx.trace_.foreign_rows, 1.0);
  EXPECT_DOUBLE_EQ(ctx.trace_.scan_rows, 0.0);
}

TEST(ExecutorTest, FilterKeepsOnlyTrueRows) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(10)},
                            {Value::Int64(2), Value::Int64(20)},
                            {Value::Null(TypeId::kInt64), Value::Int64(30)}});
  ctx.Add("t", t);
  // a > 1 — NULL predicate result must NOT pass (three-valued logic).
  ExprPtr pred = Expr::Binary(BinaryOp::kGt,
                              Expr::BoundColumn(0, TypeId::kInt64, "a"),
                              Expr::Literal(Value::Int64(1)));
  auto plan = PlanNode::MakeFilter(ScanOf("t", t), pred);
  auto r = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ((*r)->row(0)[1].int64_value(), 20);
}

TEST(ExecutorTest, ProjectComputesExpressions) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {{Value::Int64(3), Value::Int64(4)}});
  ctx.Add("t", t);
  ExprPtr sum = Expr::Binary(BinaryOp::kAdd,
                             Expr::BoundColumn(0, TypeId::kInt64, "a"),
                             Expr::BoundColumn(1, TypeId::kInt64, "b"));
  auto plan = PlanNode::MakeProject(ScanOf("t", t), {sum});
  auto r = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->row(0)[0].int64_value(), 7);
}

PlanPtr JoinPlans(PlanPtr l, PlanPtr r, int lk, int rk) {
  return PlanNode::MakeJoin(std::move(l), std::move(r), {lk}, {rk}, nullptr);
}

TEST(ExecutorTest, HashJoinBasic) {
  FakeContext ctx;
  auto l = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(10)},
                            {Value::Int64(2), Value::Int64(20)},
                            {Value::Int64(3), Value::Int64(30)}});
  auto r = MakeTable(Schema({{"k", TypeId::kInt64}, {"v", TypeId::kString}}),
                     {{Value::Int64(2), Value::String("two")},
                      {Value::Int64(3), Value::String("three")},
                      {Value::Int64(4), Value::String("four")}});
  ctx.Add("l", l);
  ctx.Add("r", r);
  auto plan = JoinPlans(ScanOf("l", l), ScanOf("r", r), 0, 0);
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 2u);
  // Output schema order is always (left || right) regardless of build side.
  EXPECT_EQ((*out)->schema().field(0).name, "a");
  EXPECT_EQ((*out)->schema().field(3).name, "v");
}

TEST(ExecutorTest, HashJoinDuplicatesMultiply) {
  FakeContext ctx;
  auto l = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(1)},
                            {Value::Int64(1), Value::Int64(2)}});
  auto r = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(3)},
                            {Value::Int64(1), Value::Int64(4)},
                            {Value::Int64(1), Value::Int64(5)}});
  ctx.Add("l", l);
  ctx.Add("r", r);
  auto out = ExecutePlan(*JoinPlans(ScanOf("l", l), ScanOf("r", r), 0, 0),
                         &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 6u);  // 2 x 3
}

TEST(ExecutorTest, HashJoinNullKeysNeverMatch) {
  FakeContext ctx;
  auto l = MakeTable(Ab(), {{Value::Null(TypeId::kInt64), Value::Int64(1)}});
  auto r = MakeTable(Ab(), {{Value::Null(TypeId::kInt64), Value::Int64(2)}});
  ctx.Add("l", l);
  ctx.Add("r", r);
  auto out = ExecutePlan(*JoinPlans(ScanOf("l", l), ScanOf("r", r), 0, 0),
                         &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 0u);
}

TEST(ExecutorTest, HashJoinEmptyInputs) {
  FakeContext ctx;
  auto l = MakeTable(Ab(), {});
  auto r = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(2)}});
  ctx.Add("l", l);
  ctx.Add("r", r);
  auto out = ExecutePlan(*JoinPlans(ScanOf("l", l), ScanOf("r", r), 0, 0),
                         &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 0u);
}

TEST(ExecutorTest, MultiKeyJoin) {
  FakeContext ctx;
  auto l = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(1)},
                            {Value::Int64(1), Value::Int64(2)}});
  auto r = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(2)},
                            {Value::Int64(2), Value::Int64(2)}});
  ctx.Add("l", l);
  ctx.Add("r", r);
  auto plan = PlanNode::MakeJoin(ScanOf("l", l), ScanOf("r", r), {0, 1},
                                 {0, 1}, nullptr);
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 1u);  // only (1,2) matches on both keys
}

TEST(ExecutorTest, JoinResidualPredicate) {
  FakeContext ctx;
  auto l = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(10)},
                            {Value::Int64(2), Value::Int64(5)}});
  auto r = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(7)},
                            {Value::Int64(2), Value::Int64(9)}});
  ctx.Add("l", l);
  ctx.Add("r", r);
  // join on a=a AND residual l.b > r.b (columns 1 and 3 of the concat).
  ExprPtr residual = Expr::Binary(BinaryOp::kGt,
                                  Expr::BoundColumn(1, TypeId::kInt64, "b"),
                                  Expr::BoundColumn(3, TypeId::kInt64, "b"));
  auto plan = PlanNode::MakeJoin(ScanOf("l", l), ScanOf("r", r), {0}, {0},
                                 residual);
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 1u);
  EXPECT_EQ((*out)->row(0)[1].int64_value(), 10);
}

TEST(ExecutorTest, CrossProductWhenNoKeys) {
  FakeContext ctx;
  auto l = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(1)},
                            {Value::Int64(2), Value::Int64(2)}});
  auto r = MakeTable(Ab(), {{Value::Int64(3), Value::Int64(3)},
                            {Value::Int64(4), Value::Int64(4)},
                            {Value::Int64(5), Value::Int64(5)}});
  ctx.Add("l", l);
  ctx.Add("r", r);
  auto plan = PlanNode::MakeJoin(ScanOf("l", l), ScanOf("r", r), {}, {},
                                 nullptr);
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 6u);
}

PlanPtr AggPlan(PlanPtr child, std::vector<ExprPtr> keys,
                std::vector<ExprPtr> aggs) {
  return PlanNode::MakeAggregate(std::move(child), std::move(keys),
                                 std::move(aggs));
}

TEST(ExecutorTest, GlobalAggregateOnEmptyInputYieldsOneRow) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {});
  ctx.Add("t", t);
  auto plan = AggPlan(
      ScanOf("t", t), {},
      {Expr::Aggregate(AggKind::kCountStar, nullptr),
       Expr::Aggregate(AggKind::kSum, Expr::BoundColumn(0, TypeId::kInt64,
                                                        "a"))});
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 1u);
  EXPECT_EQ((*out)->row(0)[0].int64_value(), 0);
  EXPECT_TRUE((*out)->row(0)[1].is_null());  // SUM over nothing is NULL
}

TEST(ExecutorTest, GroupedAggregateOnEmptyInputYieldsNoRows) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {});
  ctx.Add("t", t);
  auto plan = AggPlan(ScanOf("t", t),
                      {Expr::BoundColumn(0, TypeId::kInt64, "a")},
                      {Expr::Aggregate(AggKind::kCountStar, nullptr)});
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)->num_rows(), 0u);
}

TEST(ExecutorTest, AggregatesSkipNulls) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(10)},
                            {Value::Int64(1), Value::Null(TypeId::kInt64)},
                            {Value::Int64(1), Value::Int64(30)}});
  ctx.Add("t", t);
  ExprPtr b = Expr::BoundColumn(1, TypeId::kInt64, "b");
  auto plan = AggPlan(ScanOf("t", t),
                      {Expr::BoundColumn(0, TypeId::kInt64, "a")},
                      {Expr::Aggregate(AggKind::kCount, b->Clone()),
                       Expr::Aggregate(AggKind::kCountStar, nullptr),
                       Expr::Aggregate(AggKind::kAvg, b->Clone()),
                       Expr::Aggregate(AggKind::kMin, b->Clone()),
                       Expr::Aggregate(AggKind::kMax, b->Clone())});
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 1u);
  const Row& row = (*out)->row(0);
  EXPECT_EQ(row[1].int64_value(), 2);  // COUNT(b) skips the NULL
  EXPECT_EQ(row[2].int64_value(), 3);  // COUNT(*) does not
  EXPECT_DOUBLE_EQ(row[3].double_value(), 20.0);
  EXPECT_EQ(row[4].int64_value(), 10);
  EXPECT_EQ(row[5].int64_value(), 30);
}

TEST(ExecutorTest, MinMaxOverAllNullGroupReturnsTypedNull) {
  // Regression: MIN/MAX over a group whose inputs are all NULL used to
  // return a kInt64-typed NULL regardless of the column type, so a
  // downstream comparison against a string/double column misbehaved.
  FakeContext ctx;
  auto t = MakeTable(Schema({{"g", TypeId::kInt64},
                             {"s", TypeId::kString},
                             {"d", TypeId::kDouble}}),
                     {{Value::Int64(1), Value::Null(TypeId::kString),
                       Value::Null(TypeId::kDouble)},
                      {Value::Int64(1), Value::Null(TypeId::kString),
                       Value::Null(TypeId::kDouble)}});
  ctx.Add("t", t);
  auto plan = AggPlan(
      ScanOf("t", t), {Expr::BoundColumn(0, TypeId::kInt64, "g")},
      {Expr::Aggregate(AggKind::kMin,
                       Expr::BoundColumn(1, TypeId::kString, "s")),
       Expr::Aggregate(AggKind::kMax,
                       Expr::BoundColumn(1, TypeId::kString, "s")),
       Expr::Aggregate(AggKind::kMin,
                       Expr::BoundColumn(2, TypeId::kDouble, "d")),
       Expr::Aggregate(AggKind::kMax,
                       Expr::BoundColumn(2, TypeId::kDouble, "d"))});
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 1u);
  const Row& row = (*out)->row(0);
  for (int c = 1; c <= 4; ++c) EXPECT_TRUE(row[c].is_null()) << c;
  EXPECT_EQ(row[1].type(), TypeId::kString);
  EXPECT_EQ(row[2].type(), TypeId::kString);
  EXPECT_EQ(row[3].type(), TypeId::kDouble);
  EXPECT_EQ(row[4].type(), TypeId::kDouble);
}

TEST(ExecutorTest, GroupByNullIsItsOwnGroup) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {{Value::Null(TypeId::kInt64), Value::Int64(1)},
                            {Value::Null(TypeId::kInt64), Value::Int64(2)},
                            {Value::Int64(7), Value::Int64(3)}});
  ctx.Add("t", t);
  auto plan = AggPlan(ScanOf("t", t),
                      {Expr::BoundColumn(0, TypeId::kInt64, "a")},
                      {Expr::Aggregate(AggKind::kCountStar, nullptr)});
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)->num_rows(), 2u);  // NULL group + 7 group
}

TEST(ExecutorTest, SumPromotesToDoubleWhenMixed) {
  FakeContext ctx;
  auto t = MakeTable(Schema({{"x", TypeId::kDouble}}),
                     {{Value::Int64(1)}, {Value::Double(2.5)}});
  ctx.Add("t", t);
  auto plan = AggPlan(ScanOf("t", t), {},
                      {Expr::Aggregate(AggKind::kSum,
                                       Expr::BoundColumn(0, TypeId::kDouble,
                                                         "x"))});
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ((*out)->row(0)[0].AsDouble(), 3.5);
}

TEST(ExecutorTest, SortAscDescAndStability) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {{Value::Int64(2), Value::Int64(1)},
                            {Value::Int64(1), Value::Int64(2)},
                            {Value::Int64(2), Value::Int64(3)},
                            {Value::Int64(1), Value::Int64(4)}});
  ctx.Add("t", t);
  auto plan = PlanNode::MakeSort(ScanOf("t", t), {{0, true}});
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  // Descending by a; equal keys keep input order (stable sort).
  EXPECT_EQ((*out)->row(0)[1].int64_value(), 1);
  EXPECT_EQ((*out)->row(1)[1].int64_value(), 3);
  EXPECT_EQ((*out)->row(2)[1].int64_value(), 2);
  EXPECT_EQ((*out)->row(3)[1].int64_value(), 4);
}

TEST(ExecutorTest, SortNullsFirst) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {{Value::Int64(5), Value::Int64(1)},
                            {Value::Null(TypeId::kInt64), Value::Int64(2)}});
  ctx.Add("t", t);
  auto plan = PlanNode::MakeSort(ScanOf("t", t), {{0, false}});
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE((*out)->row(0)[0].is_null());
}

TEST(ExecutorTest, LimitTruncatesAndHandlesOverrun) {
  FakeContext ctx;
  auto t = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(1)},
                            {Value::Int64(2), Value::Int64(2)}});
  ctx.Add("t", t);
  auto limit1 = ExecutePlan(*PlanNode::MakeLimit(ScanOf("t", t), 1), &ctx);
  ASSERT_TRUE(limit1.ok());
  EXPECT_EQ((*limit1)->num_rows(), 1u);
  auto limit9 = ExecutePlan(*PlanNode::MakeLimit(ScanOf("t", t), 9), &ctx);
  ASSERT_TRUE(limit9.ok());
  EXPECT_EQ((*limit9)->num_rows(), 2u);
  auto limit0 = ExecutePlan(*PlanNode::MakeLimit(ScanOf("t", t), 0), &ctx);
  ASSERT_TRUE(limit0.ok());
  EXPECT_EQ((*limit0)->num_rows(), 0u);
}

TEST(ExecutorTest, PlaceholderIsAnExecutionError) {
  FakeContext ctx;
  auto plan = PlanNode::MakePlaceholder("x", Ab(), {}, 10);
  auto out = ExecutePlan(*plan, &ctx);
  ASSERT_FALSE(out.ok());
}

TEST(ExecutorTest, TraceCountersAccumulate) {
  FakeContext ctx;
  auto l = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(1)},
                            {Value::Int64(2), Value::Int64(2)}});
  auto r = MakeTable(Ab(), {{Value::Int64(1), Value::Int64(9)}});
  ctx.Add("l", l);
  ctx.Add("r", r);
  auto plan = JoinPlans(ScanOf("l", l), ScanOf("r", r), 0, 0);
  ASSERT_TRUE(ExecutePlan(*plan, &ctx).ok());
  EXPECT_DOUBLE_EQ(ctx.trace_.scan_rows, 3.0);
  EXPECT_DOUBLE_EQ(ctx.trace_.join_build_rows, 1.0);  // builds smaller side
  EXPECT_DOUBLE_EQ(ctx.trace_.join_probe_rows, 2.0);
  EXPECT_DOUBLE_EQ(ctx.trace_.join_output_rows, 1.0);
}

/// Runs `sql` over the TPC-H nation table at `threads` exec threads and
/// expects the query to fail as an int64 overflow: integer SUM is exact
/// and its total must fit int64, as PostgreSQL's bigint SUM does.
void ExpectSumOutOfRange(const std::string& sql, int threads) {
  SCOPED_TRACE(sql + " at exec_threads=" + std::to_string(threads));
  Federation fed;
  fed.SetNetwork(Network::Lan({"db"}));
  DatabaseServer* db = fed.AddServer("db", EngineProfile::Postgres());
  db->set_exec_threads(threads);
  ASSERT_TRUE(db->CreateBaseTable("nation", tpch::DbGen(0.01).Nation()).ok());
  auto r = db->ExecuteQuery(sql);
  ASSERT_FALSE(r.ok()) << (*r)->ToDisplayString();
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
      << r.status().ToString();
}

TEST(ExecutorTest, IntegerSumOutOfRangeFails) {
  // 25 lanes near 2^63: the true total is about 2.3e20.
  for (int threads : {1, 4}) {
    ExpectSumOutOfRange(
        "SELECT SUM(n_nationkey + 9223372036854775000) AS s FROM nation",
        threads);
  }
}

TEST(ExecutorTest, GroupedIntegerSumOutOfRangeFails) {
  // Every region's five nations overflow on their own.
  for (int threads : {1, 4}) {
    ExpectSumOutOfRange(
        "SELECT n_regionkey, SUM(n_nationkey + 9223372036854775000) AS s "
        "FROM nation GROUP BY n_regionkey",
        threads);
  }
}

}  // namespace
}  // namespace xdb
