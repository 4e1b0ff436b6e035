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
  PlanEstimate e = *SyntheticScan()->estimate;
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
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(), Expr::Binary(BinaryOp::kEq, Col(0), Lit(5)));
  const PlanEstimate& e = *plan->estimate;
  EXPECT_NEAR(e.rows, 10.0, 1e-6);  // 1000 / ndv(k)=100
}

TEST(EstimatorTest, RangeSelectivityInterpolates) {
  // k < 500 over [0, 999] ~ half.
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(), Expr::Binary(BinaryOp::kLt, Col(0), Lit(500)));
  const PlanEstimate& e = *plan->estimate;
  EXPECT_NEAR(e.rows, 500.0, 10.0);
  // Flipped operand order: 500 > k is the same predicate.
  auto flipped = PlanNode::MakeFilter(
      SyntheticScan(), Expr::Binary(BinaryOp::kGt, Lit(500), Col(0)));
  EXPECT_NEAR(flipped->estimate->rows, 500.0, 10.0);
}

TEST(EstimatorTest, BetweenSelectivity) {
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(), Expr::Between(Col(0), Lit(100), Lit(299)));
  const PlanEstimate& e = *plan->estimate;
  EXPECT_NEAR(e.rows, 200.0, 20.0);
}

TEST(EstimatorTest, ConjunctionMultiplies) {
  ExprPtr pred = Expr::Binary(
      BinaryOp::kAnd, Expr::Binary(BinaryOp::kLt, Col(0), Lit(500)),
      Expr::Binary(BinaryOp::kEq, Col(1), Lit(3)));
  auto plan = PlanNode::MakeFilter(SyntheticScan(), pred);
  const PlanEstimate& e = *plan->estimate;
  EXPECT_NEAR(e.rows, 1000.0 * 0.5 / 1000.0, 1.0);
}

TEST(EstimatorTest, DisjunctionAddsWithOverlap) {
  Estimator est;
  PlanEstimate in = *SyntheticScan()->estimate;
  ExprPtr lt = Expr::Binary(BinaryOp::kLt, Col(0), Lit(500));
  ExprPtr or_pred = Expr::Binary(BinaryOp::kOr, lt->Clone(), lt->Clone());
  // P(A or A) = 2p - p^2 under independence; must never exceed 1.
  double sel = est.Selectivity(*or_pred, in);
  EXPECT_GT(sel, 0.5);
  EXPECT_LE(sel, 1.0);
}

TEST(EstimatorTest, InListSelectivity) {
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(), Expr::InList(Col(0), {Lit(1), Lit(2), Lit(3)}));
  const PlanEstimate& e = *plan->estimate;
  EXPECT_NEAR(e.rows, 30.0, 1.0);  // 3 / ndv(100) * 1000
}

TEST(EstimatorTest, NotInverts) {
  Estimator est;
  PlanEstimate in = *SyntheticScan()->estimate;
  ExprPtr lt = Expr::Binary(BinaryOp::kLt, Col(0), Lit(250));
  double s = est.Selectivity(*lt, in);
  double ns = est.Selectivity(*Expr::Unary(UnaryOp::kNot, lt), in);
  EXPECT_NEAR(s + ns, 1.0, 1e-9);
}

TEST(EstimatorTest, JoinCardinalityUsesMaxNdv) {
  // |L| = 1000 (ndv 100), |R| = 1000 (ndv 100): 1000*1000/100 = 10000.
  auto join = PlanNode::MakeJoin(SyntheticScan(), SyntheticScan(), {0}, {0},
                                 nullptr);
  const PlanEstimate& e = *join->estimate;
  EXPECT_NEAR(e.rows, 10000.0, 1.0);
}

TEST(EstimatorTest, CrossJoinMultiplies) {
  auto join = PlanNode::MakeJoin(SyntheticScan(10), SyntheticScan(20), {},
                                 {}, nullptr);
  EXPECT_NEAR(join->estimate->rows, 200.0, 1e-6);
}

TEST(EstimatorTest, AggregateCappedByGroupNdvAndInput) {
  auto agg = PlanNode::MakeAggregate(
      SyntheticScan(), {Col(0)},
      {Expr::Aggregate(AggKind::kCountStar, nullptr)});
  const PlanEstimate& e = *agg->estimate;
  EXPECT_NEAR(e.rows, 100.0, 1e-6);  // ndv of the key

  // Small input caps below the key ndv.
  auto small = PlanNode::MakeAggregate(
      SyntheticScan(20, 100), {Col(0)},
      {Expr::Aggregate(AggKind::kCountStar, nullptr)});
  EXPECT_LE(small->estimate->rows, 20.0);
}

TEST(EstimatorTest, LimitCapsRows) {
  auto plan = PlanNode::MakeLimit(SyntheticScan(), 7);
  EXPECT_DOUBLE_EQ(plan->estimate->rows, 7.0);
}

TEST(EstimatorTest, PlaceholderCarriesProducerEstimate) {
  auto ph = PlanNode::MakePlaceholder("x",
                                      Schema({{"a", TypeId::kInt64}}), {},
                                      1234.0);
  EXPECT_DOUBLE_EQ(ph->estimate->rows, 1234.0);
}

TEST(EstimatorTest, ProjectionKeepsRowCountChangesWidth) {
  auto proj = PlanNode::MakeProject(SyntheticScan(), {Col(0)});
  const PlanEstimate& e = *proj->estimate;
  EXPECT_DOUBLE_EQ(e.rows, 1000.0);
  EXPECT_LT(e.row_width, 16.0);
}

TEST(EstimatorTest, CloneSharesTheEstimate) {
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(), Expr::Binary(BinaryOp::kLt, Col(0), Lit(500)));
  PlanPtr copy = plan->Clone();
  EXPECT_EQ(copy->estimate, plan->estimate);
  EXPECT_EQ(copy->children[0]->estimate, plan->children[0]->estimate);
}

TEST(EstimatorTest, StampEstimatesRecomputesAboveASwappedChild) {
  // What the finalizer does: swap a subtree for a placeholder, then
  // re-estimate the nodes above it.
  auto join = PlanNode::MakeJoin(SyntheticScan(), SyntheticScan(), {0}, {0},
                                 nullptr);
  auto limit = PlanNode::MakeLimit(join, 1000000);
  PlanPtr cut = limit->Clone();
  cut->children[0]->children[1] = PlanNode::MakePlaceholder(
      "x", cut->children[0]->children[1]->output_schema, {}, 10.0);
  auto before = cut->estimate;
  PlanEstimate root = Estimator().StampEstimates(*cut);
  // ndv(k) = 100 on the left, the placeholder's default ndv 1000 on the
  // right: 1000 * 10 / 1000.
  EXPECT_NEAR(root.rows, 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(cut->estimate->rows, root.rows);
  // The original's (shared) estimate is replaced, not mutated.
  EXPECT_NE(cut->estimate, before);
  EXPECT_NEAR(limit->estimate->rows, 10000.0, 1.0);
}

TEST(EstimatorTest, FilterNeverEstimatesBelowOneRow) {
  // Impossible-looking equality still estimates >= 1 row.
  auto plan = PlanNode::MakeFilter(
      SyntheticScan(1.0, 1.0),
      Expr::Binary(BinaryOp::kEq, Col(0), Lit(42)));
  EXPECT_GE(plan->estimate->rows, 1.0);
}

TEST(PlanComparisonKind, StrongestComparisonWins) {
  auto filter = [](ExprPtr pred) {
    return PlanNode::MakeFilter(SyntheticScan(), std::move(pred))
        ->predicate_class();
  };
  auto and_ = [](ExprPtr a, ExprPtr b) {
    return Expr::Binary(BinaryOp::kAnd, std::move(a), std::move(b));
  };
  EXPECT_EQ(filter(Expr::Binary(BinaryOp::kNe, Col(0), Lit(1))),
            ComparisonKind::kEquality);
  EXPECT_EQ(filter(Expr::InList(Col(0), {Lit(1), Lit(2)})),
            ComparisonKind::kEquality);
  EXPECT_EQ(filter(and_(Expr::InList(Col(0), {Lit(1)}),
                        Expr::Between(Col(1), Lit(1), Lit(2)))),
            ComparisonKind::kRange);
  ExprPtr like = Expr::Like(Col(1), Expr::Literal(Value::String("a%")));
  EXPECT_EQ(filter(and_(Expr::Binary(BinaryOp::kLt, Col(0), Lit(1)), like)),
            ComparisonKind::kLike);
  EXPECT_EQ(filter(Expr::Unary(UnaryOp::kIsNull, Col(0))),
            ComparisonKind::kNone);

  EXPECT_EQ(PlanNode::MakeJoin(SyntheticScan(), SyntheticScan(), {0}, {0},
                               nullptr)
                ->predicate_class(),
            ComparisonKind::kEquality);
  EXPECT_EQ(PlanNode::MakeJoin(SyntheticScan(), SyntheticScan(), {}, {},
                               nullptr)
                ->predicate_class(),
            ComparisonKind::kNone);
  EXPECT_EQ(PlanNode::MakeJoin(SyntheticScan(), SyntheticScan(), {0}, {0},
                               Expr::Binary(BinaryOp::kLt, Col(1), Col(3)))
                ->predicate_class(),
            ComparisonKind::kRange);
  // A projection's comparisons are values, not predicates.
  EXPECT_EQ(PlanNode::MakeProject(
                SyntheticScan(), {Expr::Binary(BinaryOp::kEq, Col(0), Lit(1))})
                ->predicate_class(),
            ComparisonKind::kNone);
}

}  // namespace
}  // namespace xdb
