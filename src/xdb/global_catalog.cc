#include "src/xdb/global_catalog.h"

#include "src/common/str_util.h"

namespace xdb {

namespace {
thread_local int t_metadata_roundtrips = 0;
}  // namespace

int GlobalCatalog::ThreadRoundtrips() { return t_metadata_roundtrips; }

void GlobalCatalog::ResetThreadRoundtrips() { t_metadata_roundtrips = 0; }

GlobalCatalog::GlobalCatalog(
    std::map<std::string, DbmsConnector*> connectors)
    : connectors_(std::move(connectors)) {
  for (auto& [server, dc] : connectors_) {
    for (const auto& table : dc->ListTables()) {
      TableMeta meta;
      meta.server = server;
      tables_[ToLower(table)] = std::move(meta);
    }
  }
}

std::string GlobalCatalog::LocateTable(const std::string& table) const {
  auto it = tables_.find(ToLower(table));
  return it != tables_.end() ? it->second.server : "";
}

Result<PlanPtr> GlobalCatalog::Resolve(const std::string& db,
                                       const std::string& table) {
  std::string key = ToLower(table);
  auto it = tables_.find(key);
  if (it == tables_.end()) {
    return Status::CatalogError("table '" + key +
                                "' not found in the global schema");
  }
  TableMeta& meta = it->second;
  if (!db.empty() && !EqualsIgnoreCase(db, meta.server)) {
    return Status::CatalogError("table '" + key + "' resides on " +
                                meta.server + ", not on '" + db + "'");
  }
  // The lock spans the lazy load so two sessions racing on a cold table
  // fetch its metadata exactly once (the loser sees loaded == true).
  std::lock_guard<std::mutex> lock(mu_);
  if (!meta.loaded) {
    DbmsConnector* dc = connectors_.at(meta.server);
    XDB_ASSIGN_OR_RETURN(meta.schema, dc->DescribeTable(key));
    ++t_metadata_roundtrips;
    XDB_ASSIGN_OR_RETURN(meta.stats, dc->FetchStats(key));
    ++t_metadata_roundtrips;
    meta.loaded = true;
  }
  return PlanNode::MakeScan(meta.server, key, key, meta.schema, meta.stats);
}

void GlobalCatalog::InvalidateTable(const std::string& table) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(ToLower(table));
    if (it != tables_.end()) it->second.loaded = false;
  }
  catalog_version_.fetch_add(1, std::memory_order_acq_rel);
}

void GlobalCatalog::InvalidateStats(const std::string& table) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(ToLower(table));
    if (it != tables_.end()) it->second.loaded = false;
  }
  stats_version_.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace xdb
