// Token-level mutations of the six evaluation queries: each mutated
// statement is parsed and, when it parses as a SELECT, explained on a
// one-server TPC-H catalog. Nothing is executed: a mutation can turn a join
// into a cross product of every table. Every call must return a Status, and
// every Filter predicate and join residual of a planned statement must be a
// truth value. A failure prints its seed and SQL on one line.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/dbms/server.h"
#include "src/sql/lexer.h"
#include "src/sql/parser.h"
#include "src/tpch/dbgen.h"
#include "src/tpch/queries.h"

namespace xdb {
namespace {

constexpr int kMutations = 30000;
constexpr uint64_t kFirstSeed = 1;

/// SQL text of one token; the lexer reads it back as the same token.
std::string Render(const sql::Token& t) {
  if (t.type != sql::TokenType::kString) return t.text;
  std::string out = "'";
  for (char c : t.text) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out + "'";
}

std::string Join(const std::vector<std::string>& tokens) {
  std::string sql;
  for (const std::string& t : tokens) {
    if (!sql.empty()) sql += ' ';
    sql += t;
  }
  return sql;
}

/// Empty when every Filter predicate and join residual under `plan` infers
/// bool or is a NULL literal; otherwise the first one that does not.
std::string NonBooleanPredicate(const PlanNode& plan) {
  const ExprPtr* pred = nullptr;
  if (plan.kind == PlanKind::kFilter) pred = &plan.predicate;
  if (plan.kind == PlanKind::kJoin && plan.residual) pred = &plan.residual;
  if (pred != nullptr) {
    const Expr& e = **pred;
    const bool null_literal =
        e.kind == ExprKind::kLiteral && e.literal.is_null();
    if (!null_literal && InferType(*pred) != TypeId::kBool) {
      return plan.Label() + " infers " + TypeIdToString(InferType(*pred));
    }
  }
  for (const PlanPtr& c : plan.children) {
    std::string bad = NonBooleanPredicate(*c);
    if (!bad.empty()) return bad;
  }
  return "";
}

class MutationRobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fed_ = new Federation();
    server_ = fed_->AddServer("mono", EngineProfile::Postgres());
    for (auto& [name, table] : tpch::DbGen(0.001).GenerateAll()) {
      ASSERT_TRUE(server_->CreateBaseTable(name, table).ok());
    }
  }
  static void TearDownTestSuite() {
    delete fed_;
    fed_ = nullptr;
  }

  static Federation* fed_;
  static DatabaseServer* server_;
};

Federation* MutationRobustnessTest::fed_ = nullptr;
DatabaseServer* MutationRobustnessTest::server_ = nullptr;

TEST_F(MutationRobustnessTest, MutatedQueriesReturnAStatusAndBooleanFilters) {
  std::vector<std::vector<std::string>> queries;
  std::vector<std::string> pool = {
      "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "HAVING", "LIMIT",
      "AS", "AND", "OR", "NOT", "BETWEEN", "LIKE", "IN", "IS", "NULL",
      "TRUE", "FALSE", "CASE", "WHEN", "THEN", "ELSE", "END", "EXPLAIN",
      "ANALYZE", "DATE", "EXTRACT", "YEAR", "ASC", "DESC", "DISTINCT", "SUM",
      "AVG", "COUNT", "MIN", "MAX", "(", ")", ",", "*", "-", "/", "=", "<",
      "<>", ";", "0", "'x'"};
  for (const tpch::TpchQuery& q : tpch::EvaluationQueries()) {
    auto tokens = sql::Tokenize(q.sql);
    ASSERT_TRUE(tokens.ok()) << q.id << ": " << tokens.status().ToString();
    std::vector<std::string> texts;
    for (const sql::Token& t : *tokens) {
      if (t.type != sql::TokenType::kEnd) texts.push_back(Render(t));
    }
    // Rendered back unmutated, every query parses and plans.
    auto stmt = sql::ParseSelect(Join(texts));
    ASSERT_TRUE(stmt.ok()) << q.id << ": " << stmt.status().ToString();
    ASSERT_TRUE(server_->PlanQuery(**stmt).ok()) << q.id;
    pool.insert(pool.end(), texts.begin(), texts.end());
    queries.push_back(std::move(texts));
  }

  int parsed = 0;
  int planned = 0;
  for (int k = 0; k < kMutations; ++k) {
    const uint64_t seed = kFirstSeed + static_cast<uint64_t>(k);
    std::mt19937_64 rng(seed);
    std::vector<std::string> tokens = queries[rng() % queries.size()];
    // One edit in most cases, so that many mutations still parse.
    const int edits = std::max(1, static_cast<int>(rng() % 6) - 2);
    for (int e = 0; e < edits && !tokens.empty(); ++e) {
      const size_t i = rng() % tokens.size();
      switch (rng() % 4) {
        case 0:  // delete
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1:  // duplicate
          tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(i),
                        tokens[i]);
          break;
        case 2:  // swap with the next token
          if (i + 1 < tokens.size()) std::swap(tokens[i], tokens[i + 1]);
          break;
        default:  // replace from the pool
          tokens[i] = pool[rng() % pool.size()];
          break;
      }
    }
    const std::string sql = Join(tokens);
    auto stmt = sql::ParseStatement(sql);
    if (!stmt.ok()) continue;
    ++parsed;
    const sql::Statement& s = **stmt;
    if (s.kind != sql::StatementKind::kSelect &&
        s.kind != sql::StatementKind::kExplain) {
      continue;  // DDL is never run
    }
    if (s.kind == sql::StatementKind::kSelect) {
      // EXPLAIN plans and prices the statement without running it.
      // Any Status will do.
      (void)server_->ExecuteSql("EXPLAIN " + sql);
    }
    const Result<PlanPtr> plan = server_->PlanQuery(*s.select);
    if (!plan.ok()) continue;
    ++planned;
    const std::string bad = NonBooleanPredicate(**plan);
    if (!bad.empty()) {
      ADD_FAILURE() << "seed " << seed << ": " << bad << ": " << sql;
    }
  }
  // The mutations reach the planner, not only the parser.
  EXPECT_GT(parsed, kMutations / 10);
  EXPECT_GT(planned, kMutations / 60);
  RecordProperty("parsed", parsed);
  RecordProperty("planned", planned);
}

}  // namespace
}  // namespace xdb
