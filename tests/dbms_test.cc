#include <gtest/gtest.h>

#include <cstdio>

#include "src/dbms/federation.h"
#include "src/dbms/server.h"

namespace xdb {
namespace {

/// Builds the paper's motivating-scenario federation (Table I): CDB holds
/// citizens, VDB holds vaccines + vaccinations, HDB holds measurements.
class VaccinationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fed_.SetNetwork(Network::Lan({"cdb", "vdb", "hdb"}));
    cdb_ = fed_.AddServer("cdb", EngineProfile::Postgres());
    vdb_ = fed_.AddServer("vdb", EngineProfile::MariaDb());
    hdb_ = fed_.AddServer("hdb", EngineProfile::Postgres());

    auto citizen = std::make_shared<Table>(Schema({{"id", TypeId::kInt64},
                                                   {"name", TypeId::kString},
                                                   {"age", TypeId::kInt64},
                                                   {"address",
                                                    TypeId::kString}}));
    for (int i = 0; i < 100; ++i) {
      citizen->AppendRow({Value::Int64(i),
                          Value::String("citizen" + std::to_string(i)),
                          Value::Int64(18 + (i % 60)),
                          Value::String("addr" + std::to_string(i))});
    }
    ASSERT_TRUE(cdb_->CreateBaseTable("citizen", citizen).ok());

    auto vaccines = std::make_shared<Table>(
        Schema({{"id", TypeId::kInt64},
                {"name", TypeId::kString},
                {"type", TypeId::kString},
                {"manufacturer", TypeId::kString}}));
    const char* types[] = {"mrna", "vector", "protein"};
    for (int i = 0; i < 3; ++i) {
      vaccines->AppendRow({Value::Int64(i),
                           Value::String("vax" + std::to_string(i)),
                           Value::String(types[i]),
                           Value::String("maker" + std::to_string(i))});
    }
    ASSERT_TRUE(vdb_->CreateBaseTable("vaccines", vaccines).ok());

    auto vaccination = std::make_shared<Table>(
        Schema({{"c_id", TypeId::kInt64},
                {"v_id", TypeId::kInt64},
                {"vdate", TypeId::kDate}}));
    for (int i = 0; i < 100; ++i) {
      vaccination->AppendRow({Value::Int64(i), Value::Int64(i % 3),
                              Value::Date(DaysFromCivil(2021, 3, 1) + i)});
    }
    ASSERT_TRUE(vdb_->CreateBaseTable("vaccination", vaccination).ok());

    auto measurements = std::make_shared<Table>(
        Schema({{"id", TypeId::kInt64},
                {"c_id", TypeId::kInt64},
                {"mdate", TypeId::kDate},
                {"u_ml", TypeId::kDouble}}));
    for (int i = 0; i < 100; ++i) {
      measurements->AppendRow({Value::Int64(1000 + i), Value::Int64(i),
                               Value::Date(DaysFromCivil(2021, 6, 1) + i),
                               Value::Double(50.0 + i)});
    }
    ASSERT_TRUE(hdb_->CreateBaseTable("measurements", measurements).ok());
  }

  Federation fed_;
  DatabaseServer* cdb_ = nullptr;
  DatabaseServer* vdb_ = nullptr;
  DatabaseServer* hdb_ = nullptr;
};

TEST_F(VaccinationFixture, LocalSelect) {
  auto r = cdb_->ExecuteQuery("SELECT id, age FROM citizen WHERE age > 70");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const auto& row : (*r)->rows()) {
    EXPECT_GT(row[1].int64_value(), 70);
  }
}

TEST_F(VaccinationFixture, LocalJoinAndAggregate) {
  auto r = vdb_->ExecuteQuery(
      "SELECT v.type, COUNT(*) AS n FROM vaccines v, vaccination vn "
      "WHERE v.id = vn.v_id GROUP BY v.type ORDER BY v.type");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 3u);
  int64_t total = 0;
  for (const auto& row : (*r)->rows()) total += row[1].int64_value();
  EXPECT_EQ(total, 100);
}

TEST_F(VaccinationFixture, CreateAndQueryView) {
  ASSERT_TRUE(vdb_->ExecuteDdl(
                      "CREATE VIEW vvn AS SELECT v.type, vn.c_id "
                      "FROM vaccines v, vaccination vn WHERE v.id = vn.v_id")
                  .ok());
  auto r = vdb_->ExecuteQuery("SELECT * FROM vvn");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 100u);
  EXPECT_EQ((*r)->schema().num_fields(), 2u);
}

TEST_F(VaccinationFixture, ViewNameConflictFails) {
  ASSERT_TRUE(
      vdb_->ExecuteDdl("CREATE VIEW v1 AS SELECT id FROM vaccines").ok());
  auto st = vdb_->ExecuteDdl("CREATE VIEW v1 AS SELECT id FROM vaccines");
  EXPECT_TRUE(st.IsCatalogError());
}

TEST_F(VaccinationFixture, InvalidViewRejectedAtDdlTime) {
  auto st = vdb_->ExecuteDdl("CREATE VIEW bad AS SELECT nosuch FROM vaccines");
  EXPECT_FALSE(st.ok());
}

TEST_F(VaccinationFixture, ForeignTableFetch) {
  // The paper's SQL/MED building block: CDB reads VDB's view remotely.
  ASSERT_TRUE(vdb_->ExecuteDdl(
                      "CREATE VIEW vvn AS SELECT v.type, vn.c_id "
                      "FROM vaccines v, vaccination vn WHERE v.id = vn.v_id")
                  .ok());
  ASSERT_TRUE(
      cdb_->ExecuteDdl("CREATE FOREIGN TABLE vvn(type, c_id) SERVER vdb")
          .ok());
  auto r = cdb_->ExecuteQuery(
      "SELECT c.id, v.type FROM vvn v, citizen c WHERE c.id = v.c_id "
      "AND c.age > 20");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT((*r)->num_rows(), 0u);
  // Bytes must have crossed the vdb -> cdb link.
  EXPECT_GT(fed_.network().BytesInvolving("vdb"), 0.0);
}

TEST_F(VaccinationFixture, PaperExecutionCascade) {
  // Full Section V cascade: VVN on VDB, CVVN on CDB (over a foreign VVN),
  // CVVNM on HDB (over a foreign CVVN, explicitly materialised), then the
  // XDB query SELECT * FROM cvvnm on HDB.
  ASSERT_TRUE(vdb_->ExecuteDdl(
                      "CREATE VIEW vvn AS SELECT v.type, vn.c_id "
                      "FROM vaccines v, vaccination vn WHERE v.id = vn.v_id")
                  .ok());
  ASSERT_TRUE(
      cdb_->ExecuteDdl("CREATE FOREIGN TABLE vvn(type, c_id) SERVER vdb")
          .ok());
  ASSERT_TRUE(cdb_->ExecuteDdl(
                      "CREATE VIEW cvvn AS SELECT c.id, c.age, v.type "
                      "FROM vvn v, citizen c "
                      "WHERE c.id = v.c_id AND c.age > 20")
                  .ok());
  ASSERT_TRUE(hdb_->ExecuteDdl(
                      "CREATE FOREIGN TABLE cvvn(id, age, type) SERVER cdb")
                  .ok());
  ASSERT_TRUE(hdb_->ExecuteDdl("CREATE TABLE cvvn_m AS SELECT * FROM cvvn")
                  .ok());
  ASSERT_TRUE(hdb_->ExecuteDdl(
                      "CREATE VIEW cvvnm AS SELECT t.type, AVG(m.u_ml) AS "
                      "avg_uml FROM cvvn_m t, measurements m "
                      "WHERE t.id = m.c_id GROUP BY t.type")
                  .ok());

  fed_.BeginRun("hdb");
  auto r = hdb_->ExecuteQuery("SELECT * FROM cvvnm");
  RunTrace trace = fed_.FinishRun();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 3u);  // one row per vaccine type

  // The materialisation happened during CTAS (before the run); the run
  // itself only reads local tables on HDB.
  EXPECT_EQ(trace.transfers.size(), 0u);

  // Now run end-to-end in one recorded run, from fresh relations.
  ASSERT_TRUE(hdb_->ExecuteDdl("DROP TABLE cvvn_m").ok());
  ASSERT_TRUE(hdb_->ExecuteDdl("DROP VIEW cvvnm").ok());
  ASSERT_TRUE(hdb_->ExecuteDdl(
                      "CREATE VIEW cvvnm AS SELECT t.type, AVG(m.u_ml) AS "
                      "avg_uml FROM cvvn t, measurements m "
                      "WHERE t.id = m.c_id GROUP BY t.type")
                  .ok());
  fed_.BeginRun("hdb");
  auto r2 = hdb_->ExecuteQuery("SELECT * FROM cvvnm");
  RunTrace t2 = fed_.FinishRun();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ((*r2)->num_rows(), 3u);

  // The cascade has two transfers: vdb -> cdb (nested) and cdb -> hdb.
  ASSERT_EQ(t2.transfers.size(), 2u);
  const TransferRecord* outer = nullptr;
  const TransferRecord* inner = nullptr;
  for (const auto& tr : t2.transfers) {
    if (tr.dst == "hdb") outer = &tr;
    if (tr.dst == "cdb") inner = &tr;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->src, "cdb");
  EXPECT_EQ(inner->src, "vdb");
  // The inner fetch happened while serving the outer one.
  EXPECT_EQ(inner->parent_id, outer->id);
  EXPECT_GT(outer->rows, 0.0);
  EXPECT_GT(inner->bytes, 0.0);
  // Producer compute is attributed to the producing servers.
  EXPECT_GT(t2.per_server["vdb"].scan_rows, 0.0);
  EXPECT_GT(t2.per_server["cdb"].join_probe_rows +
                t2.per_server["cdb"].join_build_rows,
            0.0);
}

TEST_F(VaccinationFixture, ExplainEstimates) {
  auto r = cdb_->ExecuteSql("EXPLAIN SELECT id FROM citizen WHERE age > 40");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // One row per plan line, then "(cost=... s, rows=..., width=...)".
  ASSERT_GE((*r)->num_rows(), 2u);
  const std::string summary =
      (*r)->row((*r)->num_rows() - 1)[0].string_value();
  double cost = 0, rows = 0, width = 0;
  ASSERT_EQ(std::sscanf(summary.c_str(), "(cost=%lf s, rows=%lf, width=%lf)",
                        &cost, &rows, &width),
            3)
      << summary;
  EXPECT_GT(cost, 0.0);
  EXPECT_GT(rows, 0.0);
  EXPECT_LT(rows, 100.0);  // the filter is selective
}

TEST_F(VaccinationFixture, DescribeAndEstimateForeign) {
  ASSERT_TRUE(
      cdb_->ExecuteDdl("CREATE FOREIGN TABLE vax SERVER vdb "
                       "OPTIONS (table 'vaccines')")
          .ok());
  auto schema = cdb_->DescribeRelation("vax");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(schema->num_fields(), 4u);
  auto rows = cdb_->EstimateRelationRows("vax");
  ASSERT_TRUE(rows.ok());
  EXPECT_DOUBLE_EQ(*rows, 3.0);
}

TEST_F(VaccinationFixture, ForeignTableColumnArityMismatch) {
  ASSERT_TRUE(cdb_->ExecuteDdl(
                      "CREATE FOREIGN TABLE vax(a, b) SERVER vdb "
                      "OPTIONS (table 'vaccines')")
                  .ok());
  auto r = cdb_->ExecuteQuery("SELECT * FROM vax");
  EXPECT_FALSE(r.ok());  // 2 declared columns vs 4 remote columns
}

TEST_F(VaccinationFixture, DropSemantics) {
  ASSERT_TRUE(
      vdb_->ExecuteDdl("CREATE VIEW v1 AS SELECT id FROM vaccines").ok());
  EXPECT_TRUE(vdb_->ExecuteDdl("DROP TABLE v1").IsCatalogError());
  EXPECT_TRUE(vdb_->ExecuteDdl("DROP VIEW v1").ok());
  EXPECT_TRUE(vdb_->ExecuteDdl("DROP VIEW v1").IsCatalogError());
  EXPECT_TRUE(vdb_->ExecuteDdl("DROP VIEW IF EXISTS v1").ok());
  // Base tables cannot be dropped as views.
  EXPECT_TRUE(vdb_->ExecuteDdl("DROP VIEW vaccines").IsCatalogError());
}

TEST_F(VaccinationFixture, TransientRelationTracking) {
  ASSERT_TRUE(
      vdb_->ExecuteDdl("CREATE VIEW v1 AS SELECT id FROM vaccines").ok());
  ASSERT_TRUE(cdb_->ExecuteDdl("CREATE FOREIGN TABLE v1 SERVER vdb").ok());
  EXPECT_EQ(vdb_->TransientRelations().size(), 1u);
  EXPECT_EQ(cdb_->TransientRelations().size(), 1u);
  EXPECT_EQ(hdb_->TransientRelations().size(), 0u);
}

TEST(NetworkTest, TopologyPresets) {
  Network lan = Network::Lan({"a", "b"});
  EXPECT_DOUBLE_EQ(lan.GetLink("a", "b").bandwidth, 125e6);

  Network onp = Network::OnPremiseWithCloud({"a", "b"}, "cloud");
  EXPECT_DOUBLE_EQ(onp.GetLink("a", "b").bandwidth, 125e6);
  EXPECT_DOUBLE_EQ(onp.GetLink("a", "cloud").bandwidth, 6.25e6);
  EXPECT_DOUBLE_EQ(onp.GetLink("cloud", "a").bandwidth, 6.25e6);

  Network geo = Network::GeoDistributed({"a", "b"}, "cloud");
  EXPECT_DOUBLE_EQ(geo.GetLink("a", "b").bandwidth, 12.5e6);
}

TEST(NetworkTest, TransferAccounting) {
  Network net = Network::Lan({"a", "b", "c"});
  net.RecordTransfer("a", "b", 1000, 2);
  net.RecordTransfer("b", "a", 500, 1);
  net.RecordTransfer("b", "c", 200, 1);
  EXPECT_DOUBLE_EQ(net.TotalBytes(), 1700.0);
  EXPECT_DOUBLE_EQ(net.BytesInvolving("a"), 1500.0);
  EXPECT_DOUBLE_EQ(net.BytesInvolving("c"), 200.0);
  net.ResetStats();
  EXPECT_DOUBLE_EQ(net.TotalBytes(), 0.0);
}

}  // namespace
}  // namespace xdb
