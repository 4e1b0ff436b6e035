// Ablation study (beyond the paper's figures, for the design choices
// DESIGN.md calls out): what do XDB's optimizer decisions buy?
//   - join reordering off (FROM-order left-deep),
//   - projection pushdown (column pruning) off,
//   - movement-type decision forced to always-implicit / always-explicit
//     instead of Eq. 1's cost-based choice.
// Metric: modelled runtime and inter-DBMS transfer volume for the six
// evaluation queries (TD1, SF 10). With --json, each variant's runs are
// recorded under the system name "XDB/<variant>".

#include "bench/bench_common.h"

namespace xdb {
namespace bench {
namespace {

struct Variant {
  const char* name;
  XdbOptions opts;
};

void Run() {
  PrintHeader("Ablation: XDB optimizer decisions (TD1, SF 10)");

  XdbOptions base;
  base.scale_up = kScaleUp;

  std::vector<Variant> variants;
  variants.push_back({"full", base});
  {
    XdbOptions v = base;
    v.planner.reorder_joins = false;
    variants.push_back({"no-join-reorder", v});
  }
  {
    XdbOptions v = base;
    v.planner.prune_columns = false;
    variants.push_back({"no-column-pruning", v});
  }
  {
    XdbOptions v = base;
    v.movement_policy = 1;
    variants.push_back({"always-implicit", v});
  }
  {
    XdbOptions v = base;
    v.movement_policy = 2;
    variants.push_back({"always-explicit", v});
  }
  {
    // The paper's footnote-5 extension: bushy join trees add inter-DBMS
    // pipeline parallelism (independent subtrees overlap in the timing
    // model's max-composition).
    XdbOptions v = base;
    v.planner.bushy_joins = true;
    variants.push_back({"bushy-joins", v});
  }

  std::printf("%-6s", "query");
  for (const auto& v : variants) std::printf(" %22s", v.name);
  std::printf("\n%-6s", "");
  for (size_t i = 0; i < variants.size(); ++i) {
    std::printf(" %22s", "time[s] / xfer[MB]");
  }
  std::printf("\n");

  // One federation per variant (they attach their own middleware state).
  std::vector<std::unique_ptr<Federation>> feds;
  std::vector<std::unique_ptr<XdbSystem>> systems;
  for (const auto& v : variants) {
    feds.push_back(
        tpch::BuildTpchFederation(LocalSf(10.0), tpch::TD1()));
    systems.push_back(std::make_unique<XdbSystem>(feds.back().get(),
                                                  v.opts));
  }

  for (const auto& q : tpch::EvaluationQueries()) {
    std::printf("%-6s", q.id.c_str());
    for (size_t i = 0; i < variants.size(); ++i) {
      feds[i]->network().ResetStats();
      auto r = systems[i]->Query(q.sql);
      if (!r.ok()) {
        std::printf(" %22s", "FAILED");
        continue;
      }
      JsonReport::Instance().Record(std::string("XDB/") + variants[i].name,
                                    q.sql, *r);
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%8.1f / %8.1f",
                    r->total_seconds(), TransferMb(*r));
      std::printf(" %22s", cell);
    }
    std::printf("\n");
  }
  std::printf(
      "\nReading: 'full' should dominate. no-join-reorder inflates "
      "intermediate\nresults; no-column-pruning ships unused columns; "
      "forced movement types lose\nEq. 1's per-edge choice.\n");
}

}  // namespace
}  // namespace bench
}  // namespace xdb

XDB_BENCH_MAIN("ablation_optimizer")
