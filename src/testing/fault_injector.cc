#include "src/testing/fault_injector.h"

namespace xdb {

namespace {

/// Unordered-pair match for link faults: (spec.server, spec.peer) against
/// (server, peer), empty spec fields matching anything.
bool LinkMatches(const FaultSpec& spec, const std::string& a,
                 const std::string& b) {
  auto one_way = [](const std::string& sa, const std::string& sb,
                    const std::string& x, const std::string& y) {
    return (sa.empty() || sa == x) && (sb.empty() || sb == y);
  };
  return one_way(spec.server, spec.peer, a, b) ||
         one_way(spec.server, spec.peer, b, a);
}

}  // namespace

int FaultInjector::AddFault(FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  int id = next_id_++;
  faults_[id] = ActiveFault{std::move(spec), 0};
  return id;
}

void FaultInjector::RemoveFault(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.erase(id);
}

void FaultInjector::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  faults_.clear();
  down_nodes_.clear();
}

void FaultInjector::MarkNodeDown(const std::string& server) {
  std::lock_guard<std::mutex> lock(mu_);
  down_nodes_.insert(server);
}

void FaultInjector::MarkNodeUp(const std::string& server) {
  std::lock_guard<std::mutex> lock(mu_);
  down_nodes_.erase(server);
}

double FaultInjector::NextUniform() {
  // SplitMix64 (public domain, Vigna): one 64-bit state, full period.
  prng_state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = prng_state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);  // 2^53
}

bool FaultInjector::Fires(ActiveFault* fault) {
  const FaultSpec& spec = fault->spec;
  int count = ++fault->match_count;
  if (count < spec.first_attempt || count > spec.last_attempt) return false;
  if (spec.every_nth > 0 && count % spec.every_nth != 0) return false;
  if (spec.gilbert_elliott()) {
    // Advance the two-state Markov channel, then toss the current state's
    // loss coin. Both draws come from the seeded stream, so the burst
    // pattern is exactly reproducible for a given seed and call sequence.
    if (fault->ge_bad) {
      if (NextUniform() < spec.ge_p_exit) fault->ge_bad = false;
    } else {
      if (NextUniform() < spec.ge_p_enter) fault->ge_bad = true;
    }
    const double loss = fault->ge_bad ? spec.ge_loss_bad : spec.ge_loss_good;
    if (loss >= 1.0) return true;
    if (loss <= 0.0) return false;
    return NextUniform() < loss;
  }
  if (spec.probability < 1.0 && NextUniform() >= spec.probability) {
    return false;
  }
  return true;
}

Status FaultInjector::OnOperation(const std::string& server, FaultOp op,
                                  const std::string& peer,
                                  double* delay_seconds) {
  const FailureSite site{server, peer, op, false};
  std::lock_guard<std::mutex> lock(mu_);
  if (down_nodes_.count(server) > 0) {
    ++faults_fired_;
    return Status::Unavailable("DBMS '" + server + "' is down")
        .WithSite(site);
  }
  for (auto& [id, fault] : faults_) {
    const FaultSpec& spec = fault.spec;
    switch (spec.kind) {
      case FaultKind::kSlowLink:
        continue;  // degradation only; never an error
      case FaultKind::kNodeDown:
        // Matches every operation on the server.
        if (!spec.server.empty() && spec.server != server) continue;
        break;
      case FaultKind::kTransientError:
        if (spec.op != op) continue;
        if (!spec.server.empty() && spec.server != server) continue;
        break;
      case FaultKind::kLinkDrop:
        // Only meaningful on the data paths between two endpoints.
        if (op != FaultOp::kFetch && op != FaultOp::kTransfer) continue;
        if (spec.op != op) continue;
        if (peer.empty() || !LinkMatches(spec, server, peer)) continue;
        break;
    }
    if (!Fires(&fault)) continue;

    ++faults_fired_;
    total_delay_seconds_ += spec.delay_seconds;
    if (delay_seconds != nullptr) *delay_seconds += spec.delay_seconds;
    switch (spec.kind) {
      case FaultKind::kNodeDown:
        return Status::Unavailable("DBMS '" + server + "' is down")
            .WithSite(site);
      case FaultKind::kTransientError:
        return Status::Unavailable("injected transient fault on '" + server +
                                   "' during " + FaultOpToString(op))
            .WithSite(site);
      case FaultKind::kLinkDrop:
        return Status::Timeout("link " + server + "<->" + peer +
                               " dropped during " + FaultOpToString(op))
            .WithSite({server, peer, op, true});
      case FaultKind::kSlowLink:
        break;  // unreachable
    }
  }
  return Status::OK();
}

void FaultInjector::DegradeLink(const std::string& a, const std::string& b,
                                LinkProps* props) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, fault] : faults_) {
    const FaultSpec& spec = fault.spec;
    if (spec.kind != FaultKind::kSlowLink || spec.slow_factor <= 1.0) {
      continue;
    }
    if (!LinkMatches(spec, a, b)) continue;
    if (spec.diurnal_period > 0) {
      // Deterministic square wave over this spec's matched consultations:
      // the first round(duty * period) calls of every period are peak
      // hours; off-peak consultations see the undegraded link.
      const int phase = fault.degrade_count++ % spec.diurnal_period;
      const int peak = static_cast<int>(
          spec.diurnal_duty * spec.diurnal_period + 0.5);
      if (phase >= peak) continue;
    }
    props->bandwidth /= spec.slow_factor;
    props->latency *= spec.slow_factor;
  }
}

bool FaultInjector::InBurstState(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = faults_.find(id);
  return it != faults_.end() && it->second.ge_bad;
}

}  // namespace xdb
