// Constant-factor win of the vectorized expression kernels. Benchmarks
// TPC-H Q6- and Q1-shaped filter/project work over a >=1M-row synthetic
// lineitem at exec_threads 1 and 4, scalar row-at-a-time over rows() vs
// EvalExprBatch / EvalPredicateBatch over the same data as a Table, then
// cross-checks on a real federated query that the
// *modelled* quantities — timing-model seconds and transferred MB — are
// identical whichever path (and thread count) executes: vectorization buys
// wall-clock only, never different figures.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <random>

#include "bench/bench_common.h"
#include "src/common/thread_pool.h"
#include "src/exec/executor.h"
#include "src/expr/vector_eval.h"

namespace xdb {
namespace bench {
namespace {

constexpr size_t kRows = 1 << 20;  // ~1M rows, ISSUE acceptance floor
constexpr size_t kMorsel = 4096;   // mirrors the executor's morsel size

// lineitem-shaped columns: quantity, extendedprice, discount, tax, shipdate.
constexpr int kQty = 0, kPrice = 1, kDisc = 2, kTax = 3, kShip = 4;

const std::vector<Row>& Rows() {
  static const std::vector<Row>* rows = [] {
    std::mt19937 rng(42);
    std::uniform_int_distribution<int> qty(1, 50);
    std::uniform_real_distribution<double> price(900.0, 105000.0);
    std::uniform_int_distribution<int> disc(0, 10);
    std::uniform_int_distribution<int> tax(0, 8);
    std::uniform_int_distribution<int> ship(0, 2555);  // 7 years
    auto* out = new std::vector<Row>();
    out->reserve(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      out->push_back(Row{
          Value::Double(double(qty(rng))),
          Value::Double(price(rng)),
          Value::Double(disc(rng) / 100.0),
          Value::Double(tax(rng) / 100.0),
          Value::Date(DaysFromCivil(1992, 1, 1) + ship(rng)),
      });
    }
    return out;
  }();
  return *rows;
}

const Table& LineitemTable() {
  static const Table* table = new Table(
      Schema({{"qty", TypeId::kDouble},
              {"price", TypeId::kDouble},
              {"disc", TypeId::kDouble},
              {"tax", TypeId::kDouble},
              {"ship", TypeId::kDate}}),
      Rows());
  return *table;
}

// Q6 predicate: shipdate >= DATE '1994-01-01' AND shipdate < DATE
// '1995-01-01' AND discount BETWEEN 0.05 AND 0.07 AND quantity < 24.
ExprPtr Q6Predicate() {
  auto ship = [] { return Expr::BoundColumn(kShip, TypeId::kDate, "ship"); };
  ExprPtr p = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGe, ship(),
                   Expr::Literal(Value::Date(DaysFromCivil(1994, 1, 1)))),
      Expr::Binary(BinaryOp::kLt, ship(),
                   Expr::Literal(Value::Date(DaysFromCivil(1995, 1, 1)))));
  p = Expr::Binary(
      BinaryOp::kAnd, std::move(p),
      Expr::Between(Expr::BoundColumn(kDisc, TypeId::kDouble, "disc"),
                    Expr::Literal(Value::Double(0.05)),
                    Expr::Literal(Value::Double(0.07))));
  return Expr::Binary(
      BinaryOp::kAnd, std::move(p),
      Expr::Binary(BinaryOp::kLt,
                   Expr::BoundColumn(kQty, TypeId::kDouble, "qty"),
                   Expr::Literal(Value::Double(24.0))));
}

// Q1-shaped projections: disc_price = price * (1 - discount),
// charge = price * (1 - discount) * (1 + tax).
std::vector<ExprPtr> Q1Projections() {
  auto price = [] { return Expr::BoundColumn(kPrice, TypeId::kDouble, "p"); };
  auto disc = [] { return Expr::BoundColumn(kDisc, TypeId::kDouble, "d"); };
  auto tax = [] { return Expr::BoundColumn(kTax, TypeId::kDouble, "t"); };
  auto one_minus_disc = [&] {
    return Expr::Binary(BinaryOp::kSub, Expr::Literal(Value::Double(1.0)),
                        disc());
  };
  std::vector<ExprPtr> out;
  out.push_back(Expr::Binary(BinaryOp::kMul, price(), one_minus_disc()));
  out.push_back(Expr::Binary(
      BinaryOp::kMul,
      Expr::Binary(BinaryOp::kMul, price(), one_minus_disc()),
      Expr::Binary(BinaryOp::kAdd, Expr::Literal(Value::Double(1.0)),
                   tax())));
  return out;
}

void BM_Q6FilterScalar(benchmark::State& state) {
  const auto& rows = Rows();
  ExprPtr pred = Q6Predicate();
  size_t selected = 0;
  for (auto _ : state) {
    selected = 0;
    for (const Row& r : rows) {
      if (EvalPredicate(*pred, r)) ++selected;
    }
    benchmark::DoNotOptimize(selected);
  }
  state.counters["rows/s"] = benchmark::Counter(
      double(kRows), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["selected"] = double(selected);
}

void BM_Q6FilterBatch(benchmark::State& state) {
  const int threads = int(state.range(0));
  const Table& table = LineitemTable();
  ExprPtr pred = Q6Predicate();
  std::atomic<size_t> selected{0};
  for (auto _ : state) {
    selected = 0;
    ParallelFor(threads, table.num_rows(), kMorsel,
                [&](size_t, size_t begin, size_t end) {
                  SelVector sel;
                  SelRange(begin, end, &sel);
                  EvalPredicateBatch(*pred, table.columns(), &sel);
                  selected.fetch_add(sel.size(), std::memory_order_relaxed);
                });
    benchmark::DoNotOptimize(selected.load());
  }
  state.counters["rows/s"] = benchmark::Counter(
      double(kRows), benchmark::Counter::kIsIterationInvariantRate);
  state.counters["selected"] = double(selected.load());
}

void BM_Q1ProjectScalar(benchmark::State& state) {
  const auto& rows = Rows();
  auto exprs = Q1Projections();
  for (auto _ : state) {
    double acc = 0;
    for (const Row& r : rows) {
      for (const auto& e : exprs) acc += EvalExpr(*e, r).double_value();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.counters["rows/s"] = benchmark::Counter(
      double(kRows), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Q1ProjectBatch(benchmark::State& state) {
  const int threads = int(state.range(0));
  const Table& table = LineitemTable();
  auto exprs = Q1Projections();
  for (auto _ : state) {
    std::atomic<uint64_t> sink{0};
    ParallelFor(threads, table.num_rows(), kMorsel,
                [&](size_t, size_t begin, size_t end) {
                  SelVector sel;
                  SelRange(begin, end, &sel);
                  double acc = 0;
                  for (const auto& e : exprs) {
                    const ColumnChunk col =
                        EvalExprBatch(*e, table.columns(), sel);
                    for (double v : col.f64_data()) acc += v;
                  }
                  sink.fetch_add(uint64_t(acc), std::memory_order_relaxed);
                });
    benchmark::DoNotOptimize(sink.load());
  }
  state.counters["rows/s"] = benchmark::Counter(
      double(kRows), benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_Q6FilterScalar)->Unit(benchmark::kMillisecond)->MinTime(1.0);
BENCHMARK(BM_Q6FilterBatch)
    ->Arg(1)  // constant-factor win, no parallelism
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);
BENCHMARK(BM_Q1ProjectScalar)->Unit(benchmark::kMillisecond)->MinTime(1.0);
BENCHMARK(BM_Q1ProjectBatch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

// The batch path executes inside every federated run; re-check here (like
// micro_parallel) that modelled seconds and transfer MB are bit-identical
// across exec_threads — i.e. vectorization never leaked into the figures.
void CheckModelInvariance() {
  for (const char* qid : {"Q3", "Q10"}) {
    const auto* q = tpch::FindQuery(qid);
    TestbedOptions o1, o4;
    o1.exec_threads = 1;
    o4.exec_threads = 4;
    auto b1 = MakeTestbed(o1), b4 = MakeTestbed(o4);
    auto r1 = b1->Run(SystemKind::kXdb, q->sql);
    auto r4 = b4->Run(SystemKind::kXdb, q->sql);
    if (!r1.ok() || !r4.ok()) {
      std::printf("%s failed: %s / %s\n", qid,
                  r1.status().ToString().c_str(),
                  r4.status().ToString().c_str());
      continue;
    }
    bool same = r1->exec_timing.total == r4->exec_timing.total &&
                r1->transferred_bytes() == r4->transferred_bytes();
    std::printf(
        "%s modelled: t1=%.4fs t4=%.4fs  transfer: %.2fMB / %.2fMB -> %s\n",
        qid, r1->exec_timing.total, r4->exec_timing.total, TransferMb(*r1),
        TransferMb(*r4), same ? "IDENTICAL (as required)" : "MISMATCH (bug!)");
  }
}

}  // namespace
}  // namespace bench
}  // namespace xdb

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  xdb::bench::CheckModelInvariance();
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
