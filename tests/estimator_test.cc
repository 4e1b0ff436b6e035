#include <gtest/gtest.h>

#include "src/plan/estimator.h"
#include "src/plan/stats.h"

namespace xdb {
namespace {

/// A scan of a synthetic relation: 1000 rows, column "k" with ndv 100 and
/// range [0, 999], column "v" with ndv 1000.
PlanPtr SyntheticScan(double rows = 1000, double k_ndv = 100) {
  Schema schema({{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
  TableStats stats;
  stats.row_count = rows;
  ColumnStats k;
  k.ndv = k_ndv;
  k.min = Value::Int64(0);
  k.max = Value::Int64(999);
  k.avg_width = 8;
  ColumnStats v;
  v.ndv = rows;
  v.min = Value::Int64(0);
  v.max = Value::Int64(static_cast<int64_t>(rows) - 1);
  v.avg_width = 8;
  stats.columns = {k, v};
  return PlanNode::MakeScan("db", "t", "t", schema, stats);
}

ExprPtr Col(int i) { return Expr::BoundColumn(i, TypeId::kInt64, "c"); }
ExprPtr Lit(int64_t v) { return Expr::Literal(Value::Int64(v)); }

TEST(EstimatorTest, ScanEstimateUsesStats) {
  Estimator est;
  PlanEstimate e = est.Estimate(*SyntheticScan());
  EXPECT_DOUBLE_EQ(e.rows, 1000.0);
  EXPECT_DOUBLE_EQ(e.row_width, 16.0);
}

TEST(EstimatorTest, StatsNdvCountsEqualNumericsOnce) {
  // A boxed column whose lanes compare equal in pairs: 7 == 7.0, 0 == -0.0.
  Table t(Schema({{"x", TypeId::kInt64}}),
          std::vector<Row>{{Value::Int64(7)},
                           {Value::Double(7.0)},
                           {Value::Int64(0)},
                           {Value::Double(-0.0)}});
  EXPECT_DOUBLE_EQ(ComputeTableStats(t).columns[0].ndv, 2.0);
}

TEST(EstimatorTest, EqualitySelectivityIsOneOverNdv) {
  Estimator est;
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(), Expr::Binary(BinaryOp::kEq, Col(0), Lit(5)));
  PlanEstimate e = est.Estimate(*plan);
  EXPECT_NEAR(e.rows, 10.0, 1e-6);  // 1000 / ndv(k)=100
}

TEST(EstimatorTest, RangeSelectivityInterpolates) {
  Estimator est;
  // k < 500 over [0, 999] ~ half.
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(), Expr::Binary(BinaryOp::kLt, Col(0), Lit(500)));
  PlanEstimate e = est.Estimate(*plan);
  EXPECT_NEAR(e.rows, 500.0, 10.0);
  // Flipped operand order: 500 > k is the same predicate.
  auto flipped = PlanNode::MakeFilter(
      SyntheticScan(), Expr::Binary(BinaryOp::kGt, Lit(500), Col(0)));
  EXPECT_NEAR(est.Estimate(*flipped).rows, 500.0, 10.0);
}

TEST(EstimatorTest, BetweenSelectivity) {
  Estimator est;
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(), Expr::Between(Col(0), Lit(100), Lit(299)));
  PlanEstimate e = est.Estimate(*plan);
  EXPECT_NEAR(e.rows, 200.0, 20.0);
}

TEST(EstimatorTest, ConjunctionMultiplies) {
  Estimator est;
  ExprPtr pred = Expr::Binary(
      BinaryOp::kAnd, Expr::Binary(BinaryOp::kLt, Col(0), Lit(500)),
      Expr::Binary(BinaryOp::kEq, Col(1), Lit(3)));
  auto plan = PlanNode::MakeFilter(SyntheticScan(), pred);
  PlanEstimate e = est.Estimate(*plan);
  EXPECT_NEAR(e.rows, 1000.0 * 0.5 / 1000.0, 1.0);
}

TEST(EstimatorTest, DisjunctionAddsWithOverlap) {
  Estimator est;
  PlanEstimate in = est.Estimate(*SyntheticScan());
  ExprPtr lt = Expr::Binary(BinaryOp::kLt, Col(0), Lit(500));
  ExprPtr or_pred = Expr::Binary(BinaryOp::kOr, lt->Clone(), lt->Clone());
  // P(A or A) = 2p - p^2 under independence; must never exceed 1.
  double sel = est.Selectivity(*or_pred, in);
  EXPECT_GT(sel, 0.5);
  EXPECT_LE(sel, 1.0);
}

TEST(EstimatorTest, InListSelectivity) {
  Estimator est;
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(), Expr::InList(Col(0), {Lit(1), Lit(2), Lit(3)}));
  PlanEstimate e = est.Estimate(*plan);
  EXPECT_NEAR(e.rows, 30.0, 1.0);  // 3 / ndv(100) * 1000
}

TEST(EstimatorTest, NotInverts) {
  Estimator est;
  PlanEstimate in = est.Estimate(*SyntheticScan());
  ExprPtr lt = Expr::Binary(BinaryOp::kLt, Col(0), Lit(250));
  double s = est.Selectivity(*lt, in);
  double ns = est.Selectivity(*Expr::Unary(UnaryOp::kNot, lt), in);
  EXPECT_NEAR(s + ns, 1.0, 1e-9);
}

TEST(EstimatorTest, JoinCardinalityUsesMaxNdv) {
  Estimator est;
  // |L| = 1000 (ndv 100), |R| = 1000 (ndv 100): 1000*1000/100 = 10000.
  auto join = PlanNode::MakeJoin(SyntheticScan(), SyntheticScan(), {0}, {0},
                                 nullptr);
  PlanEstimate e = est.Estimate(*join);
  EXPECT_NEAR(e.rows, 10000.0, 1.0);
}

TEST(EstimatorTest, CrossJoinMultiplies) {
  Estimator est;
  auto join = PlanNode::MakeJoin(SyntheticScan(10), SyntheticScan(20), {},
                                 {}, nullptr);
  EXPECT_NEAR(est.Estimate(*join).rows, 200.0, 1e-6);
}

TEST(EstimatorTest, AggregateCappedByGroupNdvAndInput) {
  Estimator est;
  auto agg = PlanNode::MakeAggregate(
      SyntheticScan(), {Col(0)},
      {Expr::Aggregate(AggKind::kCountStar, nullptr)});
  PlanEstimate e = est.Estimate(*agg);
  EXPECT_NEAR(e.rows, 100.0, 1e-6);  // ndv of the key

  // Small input caps below the key ndv.
  auto small = PlanNode::MakeAggregate(
      SyntheticScan(20, 100), {Col(0)},
      {Expr::Aggregate(AggKind::kCountStar, nullptr)});
  EXPECT_LE(est.Estimate(*small).rows, 20.0);
}

TEST(EstimatorTest, LimitCapsRows) {
  Estimator est;
  auto plan = PlanNode::MakeLimit(SyntheticScan(), 7);
  EXPECT_DOUBLE_EQ(est.Estimate(*plan).rows, 7.0);
}

TEST(EstimatorTest, PlaceholderCarriesProducerEstimate) {
  Estimator est;
  auto ph = PlanNode::MakePlaceholder("x",
                                      Schema({{"a", TypeId::kInt64}}), {},
                                      1234.0);
  EXPECT_DOUBLE_EQ(est.Estimate(*ph).rows, 1234.0);
}

TEST(EstimatorTest, ProjectionKeepsRowCountChangesWidth) {
  Estimator est;
  auto proj = PlanNode::MakeProject(SyntheticScan(), {Col(0)});
  PlanEstimate e = est.Estimate(*proj);
  EXPECT_DOUBLE_EQ(e.rows, 1000.0);
  EXPECT_LT(e.row_width, 16.0);
}

TEST(EstimatorTest, FilterNeverEstimatesBelowOneRow) {
  Estimator est;
  // Impossible-looking equality still estimates >= 1 row.
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(1.0, 1.0),
      Expr::Binary(BinaryOp::kEq, Col(0), Lit(42)));
  EXPECT_GE(est.Estimate(*plan).rows, 1.0);
}

}  // namespace
}  // namespace xdb
