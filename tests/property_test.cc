// Property-based tests: randomly generated schemas, data and cross-database
// queries, executed by XDB and the three mediator baselines, checked
// against a single-database oracle. Invariants per random case:
//   (1) result equality (all four systems vs the oracle);
//   (2) no intermediate data touches the middleware node under XDB;
//   (3) Rule-4 pruning: every task is placed on a DBMS that stores one of
//       its inputs (or its producers');
//   (4) byte-accounting conservation: the network's counters equal the sum
//       of recorded transfers plus control traffic and the final result;
//   (5) all short-lived relations are dropped afterwards.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "src/dbms/server.h"
#include "src/mediator/mediator.h"
#include "src/xdb/xdb.h"
#include "tests/bind_check.h"

namespace xdb {
namespace {

struct GeneratedTable {
  std::string name;
  std::string server;
  TablePtr data;
  std::string join_col;   // every table has one joinable int column
  std::string value_col;  // and one numeric payload column
};

/// Deterministic scenario generated from a seed: 2-4 servers, 2-5 tables,
/// shared join-key domain so joins produce rows.
struct Scenario {
  std::vector<std::string> servers;
  std::vector<GeneratedTable> tables;
  std::string query;
};

Scenario Generate(uint32_t seed) {
  std::mt19937 rng(seed);
  auto rand_int = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };

  Scenario s;
  int num_servers = rand_int(2, 4);
  for (int i = 0; i < num_servers; ++i) {
    s.servers.push_back("srv" + std::to_string(i));
  }
  int num_tables = rand_int(2, 4);
  const int key_domain = rand_int(12, 40);
  for (int t = 0; t < num_tables; ++t) {
    GeneratedTable gt;
    gt.name = "t" + std::to_string(t);
    gt.server = s.servers[static_cast<size_t>(
        rand_int(0, num_servers - 1))];
    gt.join_col = "k" + std::to_string(t);
    gt.value_col = "v" + std::to_string(t);
    Schema schema({{gt.join_col, TypeId::kInt64},
                   {gt.value_col, TypeId::kInt64},
                   {"s" + std::to_string(t), TypeId::kString}});
    auto table = std::make_shared<Table>(schema);
    int rows = rand_int(20, 150);
    for (int r = 0; r < rows; ++r) {
      Row row = {Value::Int64(rand_int(0, key_domain)),
                 Value::Int64(rand_int(-50, 200)),
                 Value::String(rand_int(0, 1) ? "red" : "blue")};
      // Sprinkle some NULLs into the payload column.
      if (rand_int(0, 19) == 0) row[1] = Value::Null(TypeId::kInt64);
      table->AppendRow(std::move(row));
    }
    gt.data = table;
    s.tables.push_back(std::move(gt));
  }

  // Build a chain query joining consecutive tables on their key columns,
  // with random filters, random aggregation, ordering and limit.
  std::string sql = "SELECT ";
  bool aggregate = rand_int(0, 1) == 1;
  const auto& t0 = s.tables[0];
  if (aggregate) {
    sql += "a0." + t0.join_col + " AS g, COUNT(*) AS n, SUM(a0." +
           t0.value_col + ") AS total";
  } else {
    sql += "a0." + t0.join_col + ", a0." + t0.value_col;
    if (s.tables.size() > 1) {
      sql += ", a1." + s.tables[1].value_col;
    }
  }
  sql += " FROM ";
  for (size_t i = 0; i < s.tables.size(); ++i) {
    if (i) sql += ", ";
    sql += s.tables[i].name + " a" + std::to_string(i);
  }
  std::vector<std::string> preds;
  for (size_t i = 1; i < s.tables.size(); ++i) {
    preds.push_back("a" + std::to_string(i - 1) + "." +
                    s.tables[i - 1].join_col + " = a" + std::to_string(i) +
                    "." + s.tables[i].join_col);
  }
  if (rand_int(0, 1)) {
    preds.push_back("a0." + t0.value_col + " > " +
                    std::to_string(rand_int(-40, 100)));
  }
  if (rand_int(0, 2) == 0) {
    preds.push_back("a0.s0 = 'red'");
  }
  if (!preds.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < preds.size(); ++i) {
      if (i) sql += " AND ";
      sql += preds[i];
    }
  }
  if (aggregate) {
    sql += " GROUP BY g ORDER BY g";
  } else if (rand_int(0, 1)) {
    sql += " ORDER BY a0." + t0.join_col;
    if (rand_int(0, 1)) sql += " DESC";
    sql += " LIMIT " + std::to_string(rand_int(1, 50));
  }
  s.query = std::move(sql);
  return s;
}

std::vector<Row> Sorted(const Table& t) {
  std::vector<Row> rows = t.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
}

void ExpectSameRows(const Table& got, const Table& want,
                    const std::string& label) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << label;
  auto g = Sorted(got), w = Sorted(want);
  for (size_t i = 0; i < g.size(); ++i) {
    ASSERT_EQ(g[i].size(), w[i].size()) << label;
    for (size_t c = 0; c < g[i].size(); ++c) {
      EXPECT_EQ(g[i][c].Compare(w[i][c]), 0)
          << label << " row " << i << " col " << c << ": "
          << g[i][c].ToString() << " vs " << w[i][c].ToString();
    }
  }
}

class RandomFederatedQuery : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomFederatedQuery, AllSystemsMatchOracle) {
  Scenario s = Generate(GetParam());
  SCOPED_TRACE("query: " + s.query);

  // Oracle: everything on one server.
  Federation oracle_fed;
  auto* mono = oracle_fed.AddServer("mono", EngineProfile::Postgres());
  for (const auto& t : s.tables) {
    ASSERT_TRUE(mono->CreateBaseTable(t.name, t.data).ok());
  }
  auto want = mono->ExecuteQuery(s.query);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // ORDER BY ... LIMIT results are only set-comparable if the sort key is
  // total; our generated LIMIT queries sort by a possibly-duplicated key,
  // so compare only cardinality-stable queries row-wise.
  bool has_limit = s.query.find("LIMIT") != std::string::npos;

  // Federated: tables distributed per the scenario.
  Federation fed;
  fed.SetNetwork(Network::Lan(s.servers));
  for (const auto& srv : s.servers) {
    fed.AddServer(srv, EngineProfile::Postgres());
  }
  for (const auto& t : s.tables) {
    ASSERT_TRUE(
        fed.GetServer(t.server)->CreateBaseTable(t.name, t.data).ok());
  }

  XdbSystem xdb(&fed);
  MediatorSystem garlic(&fed, MediatorKind::kGarlic);
  MediatorSystem presto(&fed, MediatorKind::kPresto);
  MediatorSystem sclera(&fed, MediatorKind::kSclera);

  // --- XDB + its invariants. ---
  fed.network().ResetStats();
  auto xr = xdb.Query(s.query);
  ASSERT_TRUE(xr.ok()) << xr.status().ToString();
  if (has_limit) {
    EXPECT_EQ(xr->result->num_rows(), (*want)->num_rows());
  } else {
    ExpectSameRows(*xr->result, **want, "xdb");
  }

  // (2) the middleware never carries intermediate data.
  for (const auto& tr : xr->trace.transfers) {
    EXPECT_NE(tr.src, "xdb");
    EXPECT_NE(tr.dst, "xdb");
  }

  // (3) Rule-4 pruning property.
  for (const auto& task : xr->plan.tasks) {
    auto dbs = task.expr->ReferencedDatabases();
    bool ok_placement =
        std::find(dbs.begin(), dbs.end(), task.server) != dbs.end();
    if (!ok_placement) {
      for (const auto* e : xr->plan.InEdges(task.id)) {
        if (xr->plan.FindTask(e->producer)->server == task.server) {
          ok_placement = true;
        }
      }
    }
    EXPECT_TRUE(ok_placement) << "task@" << task.server;
  }

  // (4) byte conservation: data transfers + control + result account for
  // everything the network saw.
  double network_total = fed.network().TotalBytes();
  double data_bytes = xr->trace.TotalTransferredBytes();
  double result_bytes = static_cast<double>(xr->result->SerializedSize());
  EXPECT_GE(network_total + 1e-6, data_bytes + result_bytes);
  // Control messages are small: the non-data remainder is bounded by
  // 512 bytes per recorded round trip (+ the per-fetch request lines).
  double remainder = network_total - data_bytes - result_bytes;
  double roundtrips = static_cast<double>(xr->metadata_roundtrips +
                                          xr->consultations +
                                          xr->ddl_statements + 16) +
                      static_cast<double>(xr->trace.transfers.size());
  EXPECT_LE(remainder, 512.0 * roundtrips);

  // (5) cleanup left nothing behind.
  for (const auto& srv : s.servers) {
    EXPECT_TRUE(fed.GetServer(srv)->TransientRelations().empty()) << srv;
  }

  // --- the mediators agree with the oracle too. ---
  for (auto* mediator : {&garlic, &presto, &sclera}) {
    auto mr = mediator->Query(s.query);
    ASSERT_TRUE(mr.ok()) << MediatorKindToString(mediator->kind()) << ": "
                         << mr.status().ToString();
    if (has_limit) {
      EXPECT_EQ(mr->result->num_rows(), (*want)->num_rows());
    } else {
      ExpectSameRows(*mr->result, **want,
                     MediatorKindToString(mediator->kind()));
    }
    // MW property: every transfer lands in the mediator.
    for (const auto& tr : mr->trace.transfers) {
      EXPECT_EQ(tr.dst, mediator->mediator_name());
    }
  }

  // XDB must never move more bytes between DBMSes than the MW systems pull
  // into the mediator... not guaranteed row-by-row in theory, but holds for
  // chain joins with pushdown: check the weaker invariant that XDB's data
  // volume is bounded by Sclera's (which materialises every input).
  auto sr = sclera.Query(s.query);
  ASSERT_TRUE(sr.ok());
  EXPECT_LE(xr->trace.TotalTransferredRows(),
            sr->trace.TotalTransferredRows() + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFederatedQuery,
                         ::testing::Range(1u, 41u));

// CREATE VIEW binds instead of planning: every generated query binds to
// the output schema its plan has, on one server and on XDB's catalog.
TEST(RandomFederatedBind, BindYieldsThePlannedSchema) {
  for (uint32_t seed = 1; seed < 41; ++seed) {
    Scenario s = Generate(seed);
    Federation mono_fed;
    auto* mono = mono_fed.AddServer("mono", EngineProfile::Postgres());
    Federation fed;
    fed.SetNetwork(Network::Lan(s.servers));
    for (const auto& srv : s.servers) {
      fed.AddServer(srv, EngineProfile::Postgres());
    }
    for (const auto& t : s.tables) {
      ASSERT_TRUE(mono->CreateBaseTable(t.name, t.data).ok());
      ASSERT_TRUE(
          fed.GetServer(t.server)->CreateBaseTable(t.name, t.data).ok());
    }
    XdbSystem xdb(&fed);
    ExpectBindMatchesPlan(mono, s.query);
    ExpectBindMatchesPlan(&xdb.catalog(), s.query);
  }
}

}  // namespace
}  // namespace xdb
