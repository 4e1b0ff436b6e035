#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "src/common/status.h"
#include "src/net/network.h"

namespace xdb {

/// \brief What an injected fault does.
enum class FaultKind {
  kNodeDown,        // the server refuses every operation (kUnavailable)
  kTransientError,  // the matched operation fails (kUnavailable)
  kLinkDrop,        // a fetch/transfer over the link aborts (kTimeout)
  kSlowLink,        // no error; link bandwidth/latency degrade by a factor
};

/// \brief One programmable fault: *where* it applies (server, or a link
/// endpoint pair for link kinds; empty strings are wildcards), *what* it
/// does (kind), and *when* it fires (a deterministic trigger over the
/// per-spec count of matched calls, optionally gated by a seeded PRNG).
struct FaultSpec {
  std::string server;  // target DBMS ("" = any); link kinds: one endpoint
  std::string peer;    // link kinds: the other endpoint ("" = any)
  FaultOp op = FaultOp::kDdl;  // ignored by kNodeDown (all ops) & kSlowLink
  FaultKind kind = FaultKind::kTransientError;

  // Trigger predicate, evaluated against this spec's 1-based count of
  // matched calls: fires when the count lies in [first_attempt,
  // last_attempt], AND (when every_nth > 0) is a multiple of every_nth,
  // AND (when probability < 1) a seeded coin toss succeeds.
  int first_attempt = 1;
  int last_attempt = std::numeric_limits<int>::max();
  int every_nth = 0;
  double probability = 1.0;

  // Modelled seconds charged to the run when the fault fires (e.g. the
  // time a client waits before noticing a dead connection).
  double delay_seconds = 0.0;

  // kSlowLink: bandwidth is divided and latency multiplied by this factor.
  double slow_factor = 1.0;

  // --- Gilbert–Elliott bursty loss ---------------------------------------
  // When ge_p_enter > 0, a two-state Markov channel replaces the uniform
  // `probability` coin: each matched call first advances the chain (good ->
  // bad with ge_p_enter, bad -> good with ge_p_exit), then the fault fires
  // with the *current state's* loss probability. The defaults give the
  // classic bursty channel — lossless good state, always-lossy bad state —
  // so failures arrive in correlated bursts with geometric burst lengths
  // of mean 1/ge_p_exit, instead of as independent coin flips.
  double ge_p_enter = 0.0;  // P(good -> bad) per matched call; 0 disables
  double ge_p_exit = 0.0;   // P(bad -> good) per matched call
  double ge_loss_good = 0.0;
  double ge_loss_bad = 1.0;
  bool gilbert_elliott() const { return ge_p_enter > 0.0; }

  // --- diurnal slow-link profile (kSlowLink only) ------------------------
  // When diurnal_period > 0, the degradation follows a deterministic square
  // wave over this spec's matched link consultations: the first
  // round(diurnal_duty * diurnal_period) consultations of every period are
  // "peak hours" (degraded by slow_factor); the rest run at full speed.
  // Models a WAN whose effective bandwidth sags during business hours.
  int diurnal_period = 0;
  double diurnal_duty = 0.5;
};

/// \brief Deterministic, seeded fault injector for the simulated
/// federation (wired in through Federation::SetFaultInjector).
///
/// Fully reproducible: triggers are counters over matched calls plus a
/// SplitMix64 stream seeded at construction — no wall clock, no real
/// sleeps. Injected delays and retry backoff are modelled seconds charged
/// to the query's timing breakdown. When no injector is attached (the
/// default), every hook is a null-pointer check: the fault-free path is
/// bit-identical to a build without the framework.
///
/// Thread-safe: counters and the PRNG are mutex-guarded so concurrent
/// sessions may share one injector. Under concurrency the *interleaving* of
/// matched calls (and hence which query a probabilistic fault hits) is
/// scheduling-dependent; single-threaded runs keep the exact deterministic
/// sequence. Everything a fired fault means for its caller — the failure
/// with its FailureSite, and the modelled delay — comes back from the one
/// OnOperation call, so no injector state is shared between queries.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : prng_state_(seed) {}

  /// Registers a fault; returns an id usable with RemoveFault.
  int AddFault(FaultSpec spec);
  void RemoveFault(int id);
  void Clear();

  /// Convenience: the server refuses everything until MarkNodeUp.
  void MarkNodeDown(const std::string& server);
  void MarkNodeUp(const std::string& server);

  /// Interception hook: returns OK or the injected failure for an
  /// operation on `server` (for fetches/transfers, `peer` is the other
  /// link endpoint), stamped with its FailureSite. The modelled delay the
  /// fired fault charges is added to `*delay_seconds` when non-null.
  /// Matched-call counters advance deterministically.
  Status OnOperation(const std::string& server, FaultOp op,
                     const std::string& peer = std::string(),
                     double* delay_seconds = nullptr);

  /// Applies every matching kSlowLink spec to `props` (bandwidth divided,
  /// latency multiplied). Pure — consulted by Network::GetLink so the
  /// degradation feeds both the annotator's move costs and the timing
  /// model.
  void DegradeLink(const std::string& a, const std::string& b,
                   LinkProps* props) const;

  int faults_fired() const {
    std::lock_guard<std::mutex> lock(mu_);
    return faults_fired_;
  }
  double injected_delay_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_delay_seconds_;
  }

  /// Test hook: whether a Gilbert–Elliott fault's channel is currently in
  /// the bad (bursty) state. False for unknown ids or non-GE specs.
  bool InBurstState(int id) const;

 private:
  struct ActiveFault {
    FaultSpec spec;
    int match_count = 0;
    bool ge_bad = false;  // Gilbert–Elliott channel state
    // Per-spec count of matched DegradeLink consultations driving the
    // diurnal square wave; mutable because DegradeLink is const (pure with
    // respect to modelled results — the wave position is part of the
    // deterministic schedule, like match_count is for Fires).
    mutable int degrade_count = 0;
  };

  /// SplitMix64 — cheap, seedable, platform-stable.
  double NextUniform();

  bool Fires(ActiveFault* fault);

  mutable std::mutex mu_;
  std::map<int, ActiveFault> faults_;
  std::set<std::string> down_nodes_;
  int next_id_ = 0;
  uint64_t prng_state_;
  int faults_fired_ = 0;
  double total_delay_seconds_ = 0;
};

}  // namespace xdb
