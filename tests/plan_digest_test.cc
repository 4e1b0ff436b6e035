// Pins the optimizer's output bit for bit: plans, cardinality estimates,
// consultations, deployed DDL, EXPLAIN ANALYZE text and the estimate ledger.
//
// Cases: the six evaluation queries on XDB under TD1-TD3 x bushy joins
// off/on x the three movement policies (108), and on Garlic, Presto and
// ScleraDB under TD1-TD3 (54). Every server runs at exec_threads 1 because
// EXPLAIN ANALYZE prints `threads=`, and every server carries its own
// operator profiler, attached the way XdbSystem::ExplainAnalyze attaches
// them.
//
// Each case's digest is FNV-1a over: the delegation plan's rendering and
// each task's operator tree; the bit patterns of every task's and edge's
// est_rows; the DDL log; the consultation count; each server's rendered
// operator profile; and the bit patterns of every ledger record's est_*
// fields. A mismatch prints the case and the digest it produced; after an
// intended change to plans or estimates, each reported `got=` value
// replaces the case's entry in kExpected.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dbms/server.h"
#include "src/mediator/mediator.h"
#include "src/tpch/distributions.h"
#include "src/tpch/queries.h"
#include "src/xdb/xdb.h"

namespace xdb {
namespace {

constexpr double kSf = 0.002;
constexpr int kXdbCases = 6 * 3 * 2 * 3;
constexpr int kMediatorCases = 6 * 3 * 3;

extern const uint64_t kExpectedXdb[kXdbCases];
extern const uint64_t kExpectedMediators[kMediatorCases];

class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

using RunFn = std::function<Result<XdbReport>(const std::string&)>;

/// One federation with a profiler on every server, all at one thread.
struct Bed {
  std::unique_ptr<Federation> fed;
  std::map<std::string, OperatorProfiler> profilers;

  void AttachProfilers() {
    for (const auto& name : fed->ServerNames()) {
      DatabaseServer* server = fed->GetServer(name);
      server->set_exec_threads(1);
      server->set_profiler(&profilers[name]);
    }
  }
  void DetachProfilers() {
    for (const auto& name : fed->ServerNames()) {
      fed->GetServer(name)->set_profiler(nullptr);
    }
  }
};

Result<uint64_t> DigestQuery(Bed* bed, const RunFn& run,
                             const std::string& sql) {
  for (auto& [name, prof] : bed->profilers) prof.Clear();
  XDB_ASSIGN_OR_RETURN(XdbReport r, run(sql));
  Fnv f;
  f.Str(r.plan.ToString());
  f.U64(r.plan.tasks.size());
  for (const auto& t : r.plan.tasks) {
    f.Str(t.expr->ToString());
    f.F64(t.est_rows);
  }
  f.U64(r.plan.edges.size());
  for (const auto& e : r.plan.edges) f.F64(e.est_rows);
  f.U64(r.ddl_log.size());
  for (const auto& [server, ddl] : r.ddl_log) {
    f.Str(server);
    f.Str(ddl);
  }
  f.U64(static_cast<uint64_t>(r.consultations));
  for (const auto& [name, prof] : bed->profilers) {
    const DatabaseServer* server = bed->fed->GetServer(name);
    const std::vector<std::string> lines = prof.Render(server->profile());
    f.Str(name);
    f.U64(lines.size());
    for (const auto& line : lines) f.Str(line);
  }
  f.U64(r.trace.estimates.size());
  for (const auto& ea : r.trace.estimates) {
    f.F64(ea.est_input_rows);
    f.F64(ea.est_rows);
    f.F64(ea.est_seconds);
    f.F64(ea.est_bytes);
  }
  return f.value();
}

/// Runs the six evaluation queries through `run` and checks each digest
/// against `expected[first_case + i]`.
void CheckQueries(Bed* bed, const RunFn& run, const std::string& config,
                  const uint64_t* expected, int first_case) {
  const auto& queries = tpch::EvaluationQueries();
  for (size_t i = 0; i < queries.size(); ++i) {
    const int index = first_case + static_cast<int>(i);
    Result<uint64_t> d = DigestQuery(bed, run, queries[i].sql);
    if (!d.ok()) {
      ADD_FAILURE() << "PlanDigest error: case=" << index << " " << config
                    << " " << queries[i].id << " -> "
                    << d.status().ToString();
      continue;
    }
    if (*d != expected[index]) {
      char got[32];
      std::snprintf(got, sizeof(got), "0x%016" PRIx64, *d);
      ADD_FAILURE() << "PlanDigest mismatch: case=" << index << " " << config
                    << " " << queries[i].id << " got=" << got;
    }
  }
}

TEST(PlanDigest, Xdb) {
  int index = 0;
  for (int td = 1; td <= 3; ++td) {
    for (bool bushy : {false, true}) {
      for (int policy = 0; policy < 3; ++policy) {
        Bed bed;
        bed.fed = tpch::BuildTpchFederation(kSf,
                                            tpch::DistributionByIndex(td));
        XdbOptions opts;
        opts.exec_threads = 1;
        opts.planner.bushy_joins = bushy;
        opts.movement_policy = policy;
        XdbSystem sys(bed.fed.get(), opts);
        bed.AttachProfilers();
        const std::string config = "xdb/TD" + std::to_string(td) +
                                   " bushy=" + (bushy ? "on" : "off") +
                                   " policy=" + std::to_string(policy);
        CheckQueries(
            &bed, [&](const std::string& sql) { return sys.Query(sql); },
            config, kExpectedXdb, index);
        bed.DetachProfilers();
        index += 6;
      }
    }
  }
}

TEST(PlanDigest, Mediators) {
  int index = 0;
  for (int td = 1; td <= 3; ++td) {
    for (MediatorKind kind : {MediatorKind::kGarlic, MediatorKind::kPresto,
                              MediatorKind::kSclera}) {
      Bed bed;
      bed.fed = tpch::BuildTpchFederation(kSf, tpch::DistributionByIndex(td));
      MediatorOptions opts;
      opts.exec_threads = 1;
      MediatorSystem sys(bed.fed.get(), kind, opts);
      bed.AttachProfilers();
      const std::string config = std::string(MediatorKindToString(kind)) +
                                 "/TD" + std::to_string(td);
      CheckQueries(
          &bed, [&](const std::string& sql) { return sys.Query(sql); },
          config, kExpectedMediators, index);
      bed.DetachProfilers();
      index += 6;
    }
  }
}

// Recorded digests, in case order: XDB by TD, then bushy off/on, then
// movement policy (cost-based, always implicit, always explicit), six
// queries each; the mediators by TD, then Garlic, Presto, ScleraDB. The
// Presto entries were re-recorded when the operator profile started to
// apply the engine's parallelism, as the timing model does: its four
// workers changed the profiled seconds and the ledger's, nothing else.
const uint64_t kExpectedXdb[kXdbCases] = {
    0x3b8c55e18f273902ull, 0x932c917867de2cbdull, 0x8e084481497175e2ull,
    0x6b24405ae7763923ull, 0xdb7b1ca29d81387full, 0x7077c94f81645e88ull,
    0xde89568b1fd73d6cull, 0x4aa8cca43906d0b1ull, 0x351e838f3342adb7ull,
    0x14ff9a2bb2c09455ull, 0x3c06966cda1213b8ull, 0xff5fdd61b9615454ull,
    0xd05535d1bfd87c82ull, 0xa421726faf3bb9bfull, 0x2ba66f38daebf910ull,
    0x71a874dc4e4d1276ull, 0x7fd851882f1efe81ull, 0x9a6271ad73e0d8bbull,
    0x02cdaff2613333d6ull, 0xb9935efca4888753ull, 0x49decbb8013e5c2full,
    0x7498e34811ecb4a4ull, 0x827e80eef66ab2daull, 0x0aeeacf41c9301ceull,
    0xf36a2bfc606df108ull, 0x42b3f0dacece2f0full, 0x93efdcf1ad50c8b5ull,
    0x61986d440bd839c6ull, 0x2df2f7b5ba281dbbull, 0x785a9329e0fafb82ull,
    0x087460d2d4c293b8ull, 0xe7f74a3af53be7e9ull, 0x951dd005a1cb040dull,
    0xa359bc56ad0898a4ull, 0xfa8351e25361ee7bull, 0x8e580f85009da4d1ull,
    0xc67cf9cc61f0152bull, 0x02184762aec94af9ull, 0x688501d3dfbe458dull,
    0xbdcae951419ad377ull, 0x14523c573099a0c3ull, 0x6bfe9e10f973ca27ull,
    0xf3044790ad1a3587ull, 0xdc8cbd2ab5244f71ull, 0xfb80609de77964e0ull,
    0xc02509a25c51913eull, 0x345d20e7ff9399d6ull, 0xe93b965aadb6fcfdull,
    0xdce68d2bda6d0f76ull, 0xe238fd02798704b5ull, 0x7ec5583445652492ull,
    0xfb9ac0cf95e7cf7cull, 0xbb7b827eed8568b8ull, 0xbff7589221af5bb4ull,
    0x7917941bf690b19bull, 0xfd9945440d3cd97full, 0xff3a0ccecf8fdbfaull,
    0xe15b6a34127f57cbull, 0x85bbda901df96415ull, 0x10978be2a346f539ull,
    0xd4e981a95319c38full, 0x0c3e92b1912f39b7ull, 0x3045d27635f5527full,
    0xce26353cfb4e9470ull, 0x30c5dbe3cb156041ull, 0xdd1ea0c22fab4253ull,
    0x4bf10c4ead35dcb0ull, 0xf2044928cd44ee0bull, 0x9d34b88e56713b27ull,
    0x32d13c8d6bf6e043ull, 0xe5a44e41922fd5a8ull, 0x0612831fd70eade6ull,
    0x1d391c2261fa4c55ull, 0xd292dbab43b4f4d8ull, 0xef43da22aee9a829ull,
    0xc24205829670e540ull, 0xcca0524ab6763976ull, 0xaabe7c8aae0b6a93ull,
    0x6b8ab92a8f19a941ull, 0x0e77ec00721027c0ull, 0x93436daf59f50c37ull,
    0x3d3046be2de406cfull, 0x819cb91dd7abdd5full, 0x9b0867bbf9158fa9ull,
    0x8e63f4c996fba90cull, 0xda9f72bf7a04237eull, 0x8887e8b3345a048aull,
    0x6fcf2694df665c49ull, 0x7d62c19e7f9f5c87ull, 0xed307459472aafb6ull,
    0x6ecea458ddcebcfdull, 0xe6d25fa23aca0830ull, 0x0cb228116ef3642dull,
    0x33b16cc788a8fb42ull, 0xda8c0f2e802731a6ull, 0x752ad78e8555b645ull,
    0x42fdfc7ec6ccda51ull, 0xee02755e5ab44118ull, 0xd6c5e6c90a436e95ull,
    0x0b7d019f3874042dull, 0x3eaf280c03aef221ull, 0x61057a597dad3e4full,
    0x67f0df49e7852ce2ull, 0x2a30e601dc73b552ull, 0x6f8c471c311f2310ull,
    0x1e42b5858bd50942ull, 0xf05cbc9a91d34efbull, 0xde29de18875f80e8ull,
};
const uint64_t kExpectedMediators[kMediatorCases] = {
    0x2e67bacab6db1ad1ull, 0x2c0c296f14b2aa9dull, 0x96f8ba8dbec7ae5eull,
    0xaf4387471f025fdaull, 0x0e5555753bdb54c4ull, 0x9a683aa797c43dc4ull,
    0x62405dd11663f1e6ull, 0x8aa11fa232673e18ull, 0x6c6f904930d06db2ull,
    0x25abc0fd5c652122ull, 0x555cead6e8bc1ccfull, 0x64d649ff30c720edull,
    0x879d62f27f8da8e6ull, 0x73a000e596efc177ull, 0x83253a3822f7bef5ull,
    0x59a22a23f19f01b5ull, 0x1797727351ae6f9cull, 0xca746ae8a65d7897ull,
    0xcc9bd99c83407482ull, 0x9363ca1ad72dd476ull, 0x4075cf1e70cddb77ull,
    0xc24789b8ef491132ull, 0x77b1f30724c07c5aull, 0x43126aa72900b6d9ull,
    0x2266b2d34734f1cbull, 0xb03e1b9cfa67f36aull, 0x0398300f77a92e1aull,
    0xc49df28bb9662e3dull, 0xf27d6d172ff9f4edull, 0xd31568a607bf39b5ull,
    0x4ce946f6498e9137ull, 0xc8bf7a404d02572full, 0x0fb9dfb94627e50aull,
    0x14807c9dd2c10d82ull, 0x4ac8a10c50df8b6dull, 0x545508693e262c97ull,
    0xf05626802d1bc454ull, 0x403a9eb48ad5352cull, 0xe9e7b97033f76c91ull,
    0x2c3c88c53b88e059ull, 0xe7fbb244adcc8f94ull, 0x34639d8573b2f5bbull,
    0xab2d805b578708d1ull, 0xf42c6677963122eeull, 0x4857ae2cedbeddd0ull,
    0x4030b211746e9984ull, 0xd7aa0ab8b618c2ffull, 0x99c3300611f8a72full,
    0x80e763de9ac1d175ull, 0x0b3c7b6338b5cbc4ull, 0x174b2f0a3e6f7226ull,
    0x4fce46ea9c3e4caeull, 0x06ca67bf8efd6dc9ull, 0xa45c3eb4e5644f23ull,
};

}  // namespace
}  // namespace xdb
