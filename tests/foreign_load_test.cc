// A foreign table's schema and row estimate are loaded from the remote
// server on first use. Two sessions that read one cold foreign table at the
// same time must load it once: both answer correctly, and the link carries
// exactly the messages of the two queries run one after the other. The TSan
// job runs this suite; an unsynchronised load is a data race there.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/dbms/federation.h"
#include "src/dbms/server.h"

namespace xdb {
namespace {

constexpr int kRows = 200;

/// d1 holds a foreign table `t` over d2's base table `t`, not yet loaded.
std::unique_ptr<Federation> ColdForeignTable() {
  auto fed = std::make_unique<Federation>();
  fed->SetNetwork(Network::Lan({"d1", "d2"}));
  DatabaseServer* d1 = fed->AddServer("d1", EngineProfile::Postgres());
  DatabaseServer* d2 = fed->AddServer("d2", EngineProfile::Postgres());
  d1->set_exec_threads(1);
  d2->set_exec_threads(1);
  auto t = std::make_shared<Table>(Schema({{"x", TypeId::kInt64}}));
  for (int i = 0; i < kRows; ++i) t->AppendRow({Value::Int64(i)});
  EXPECT_TRUE(d2->CreateBaseTable("t", t).ok());
  EXPECT_TRUE(d1->ExecuteDdl("CREATE FOREIGN TABLE t(x) SERVER d2").ok());
  return fed;
}

uint64_t LinkMessages(const Federation& fed) {
  uint64_t messages = 0;
  for (const auto& [link, stats] : fed.network().stats()) {
    messages += stats.messages;
  }
  return messages;
}

void ExpectAnswer(const Result<TablePtr>& r) {
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Table& t = **r;
  ASSERT_EQ(t.num_rows(), static_cast<size_t>(kRows));
  int64_t sum = 0;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    sum += t.column(0).GetValue(i).int64_value();
  }
  EXPECT_EQ(sum, int64_t{kRows} * (kRows - 1) / 2);
}

TEST(ForeignTableLoad, TwoSessionsReadOneColdForeignTable) {
  const std::string sql = "SELECT x FROM t";
  auto serial = ColdForeignTable();
  for (int i = 0; i < 2; ++i) {
    ExpectAnswer(serial->GetServer("d1")->ExecuteQuery(sql));
  }
  const uint64_t serial_messages = LinkMessages(*serial);

  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    auto fed = ColdForeignTable();
    DatabaseServer* d1 = fed->GetServer("d1");
    std::atomic<int> ready{0};
    Result<TablePtr> answers[2] = {Status::Internal("not run"),
                                   Status::Internal("not run")};
    std::thread sessions[2];
    for (int s = 0; s < 2; ++s) {
      sessions[s] = std::thread([&, s] {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        answers[s] = d1->ExecuteQuery(sql);
      });
    }
    for (auto& session : sessions) session.join();
    ExpectAnswer(answers[0]);
    ExpectAnswer(answers[1]);
    EXPECT_EQ(LinkMessages(*fed), serial_messages);
  }
}

}  // namespace
}  // namespace xdb
