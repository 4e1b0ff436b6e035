// WHERE and HAVING predicates, the operands of AND, OR and NOT, and CASE
// WHEN conditions must be truth values: a bool expression or a NULL
// literal. Anything else is a BindError naming the clause and the type, as
// PostgreSQL rejects "argument of WHERE must be type boolean". A single
// server, XDB and a mediator share the planner, so all three reject the
// same statements and answer the same boolean ones.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/dbms/server.h"
#include "src/mediator/mediator.h"
#include "src/tpch/dbgen.h"
#include "src/tpch/distributions.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

constexpr double kSf = 0.001;

struct Rejected {
  std::string sql;
  std::string clause;  // named in the error
  std::string type;    // the operand's type, named in the error
};

const std::vector<Rejected>& RejectedStatements() {
  static const std::vector<Rejected> kCases = {
      {"SELECT COUNT(*) AS c FROM nation WHERE n_nationkey", "WHERE",
       "int64"},
      {"SELECT COUNT(*) AS c FROM nation WHERE 1.0", "WHERE", "double"},
      {"SELECT COUNT(*) AS c FROM nation WHERE n_name", "WHERE", "string"},
      {"SELECT COUNT(*) AS c FROM nation WHERE NOT n_nationkey", "NOT",
       "int64"},
      {"SELECT n_regionkey, COUNT(*) AS c FROM nation GROUP BY n_regionkey "
       "HAVING COUNT(*)",
       "HAVING", "int64"},
      {"SELECT SUM(CASE WHEN n_nationkey THEN 1 ELSE 0 END) AS c "
       "FROM nation",
       "CASE/WHEN", "int64"},
      {"SELECT COUNT(*) AS c FROM nation WHERE n_nationkey > 3 AND "
       "n_regionkey",
       "AND", "int64"},
      {"SELECT COUNT(*) AS c FROM nation WHERE n_name OR n_nationkey = 1",
       "OR", "string"},
      {"SELECT COUNT(*) AS c FROM nation WHERE n_nationkey + 1", "WHERE",
       "int64"},
      {"SELECT c FROM (SELECT COUNT(*) AS c FROM nation WHERE n_regionkey) "
       "AS t",
       "WHERE", "int64"},
  };
  return kCases;
}

/// Boolean predicates, with the COUNT(*) each one gives on nation.
const std::vector<std::pair<std::string, int64_t>>& AcceptedStatements() {
  static const std::vector<std::pair<std::string, int64_t>> kCases = {
      {"SELECT COUNT(*) AS c FROM nation WHERE NULL", 0},
      {"SELECT COUNT(*) AS c FROM nation WHERE NOT NULL", 0},
      {"SELECT COUNT(*) AS c FROM nation WHERE NULL AND n_nationkey > 3", 0},
      {"SELECT COUNT(*) AS c FROM nation WHERE NULL OR n_nationkey > 3", 21},
      {"SELECT COUNT(*) AS c FROM nation WHERE TRUE", 25},
      {"SELECT COUNT(*) AS c FROM nation WHERE NOT (n_nationkey > 3)", 4},
      {"SELECT SUM(CASE WHEN n_nationkey > 3 THEN 1 ELSE 0 END) AS c "
       "FROM nation",
       21},
      {"SELECT COUNT(*) AS c FROM nation WHERE CASE WHEN n_nationkey > 3 "
       "THEN TRUE ELSE FALSE END",
       21},
  };
  return kCases;
}

void ExpectRejected(const Status& st, const Rejected& r) {
  SCOPED_TRACE(r.sql);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsBindError()) << st.ToString();
  EXPECT_NE(st.message().find("argument of " + r.clause +
                              " must be type bool, not type " + r.type),
            std::string::npos)
      << st.ToString();
}

int64_t CountOf(const Table& t) {
  return static_cast<int64_t>(t.row(0)[0].AsDouble());
}

TEST(BooleanPredicateTest, SingleServerRejectsNonBooleanPredicates) {
  Federation fed;
  DatabaseServer* mono = fed.AddServer("mono", EngineProfile::Postgres());
  ASSERT_TRUE(mono->CreateBaseTable("nation", tpch::DbGen(kSf).Nation()).ok());
  for (const Rejected& r : RejectedStatements()) {
    ExpectRejected(mono->ExecuteQuery(r.sql).status(), r);
  }
  for (const auto& [sql, count] : AcceptedStatements()) {
    auto got = mono->ExecuteQuery(sql);
    ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
    EXPECT_EQ(CountOf(**got), count) << sql;
  }
  // HAVING over a boolean still filters groups.
  auto groups = mono->ExecuteQuery(
      "SELECT n_regionkey, COUNT(*) AS c FROM nation GROUP BY n_regionkey "
      "HAVING COUNT(*) > 4 AND n_regionkey < 2");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  EXPECT_EQ((*groups)->num_rows(), 2u);
}

TEST(BooleanPredicateTest, XdbAndMediatorRejectTheSameStatements) {
  auto fed = tpch::BuildTpchFederation(kSf, tpch::TD1());
  XdbSystem xdb(fed.get());
  MediatorSystem garlic(fed.get(), MediatorKind::kGarlic);
  const std::vector<std::pair<std::string,
                              std::function<Result<XdbReport>(
                                  const std::string&)>>>
      systems = {
          {"xdb", [&](const std::string& sql) { return xdb.Query(sql); }},
          {"garlic",
           [&](const std::string& sql) { return garlic.Query(sql); }},
      };
  for (const auto& [name, query] : systems) {
    SCOPED_TRACE(name);
    for (const Rejected& r : RejectedStatements()) {
      ExpectRejected(query(r.sql).status(), r);
    }
    for (const auto& [sql, count] : AcceptedStatements()) {
      auto got = query(sql);
      ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
      EXPECT_EQ(CountOf(*got->result), count) << sql;
    }
    // A cross-database join whose residual mixes in a non-boolean operand.
    ExpectRejected(query("SELECT COUNT(*) AS c FROM nation, supplier, "
                         "customer WHERE s_nationkey = n_nationkey AND "
                         "c_nationkey = n_nationkey AND (c_acctbal OR "
                         "s_acctbal > 0)")
                       .status(),
                   {"cross-database residual", "OR", "double"});
  }
}

}  // namespace
}  // namespace xdb
