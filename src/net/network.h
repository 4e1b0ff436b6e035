#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace xdb {

class FaultInjector;
class MetricsRegistry;
class Counter;

/// \brief Physical properties of a (bidirectional) link.
struct LinkProps {
  double bandwidth = 125e6;  // bytes/second (default: 1 Gbit)
  double latency = 0.0001;   // seconds one-way (default: LAN)
};

/// \brief Accumulated traffic over a directed link.
struct LinkStats {
  double bytes = 0;
  uint64_t messages = 0;
};

/// \brief Simulated network between DBMS nodes (and a cloud/mediator node).
///
/// The network does two things: (1) byte/message accounting per directed
/// (src,dst) pair — this is the ground truth behind the paper's Figure 14
/// data-transfer experiment (the paper reads Docker's network statistics;
/// we read these counters); and (2) it supplies link properties to the
/// timing model. It never sleeps or blocks — time is modelled, not spent.
///
/// Concurrency: topology (nodes/links/blocked pairs) is setup-time only.
/// The *accounting* paths — RecordTransfer and the unknown-node violation
/// set — are mutex-guarded so concurrent queries may record traffic safely.
/// The network is move-only (the mutex travels behind a pointer); reads of
/// stats() must not race RecordTransfer.
class Network {
 public:
  /// Registers a node; links to other nodes use the default props unless
  /// overridden by SetLink.
  void AddNode(const std::string& name);

  bool HasNode(const std::string& name) const;

  void SetDefaultLink(LinkProps props) { default_link_ = props; }

  /// Sets (symmetric) properties for a specific pair.
  void SetLink(const std::string& a, const std::string& b, LinkProps props);

  /// Effective properties of the pair's link: the configured (or default)
  /// props, degraded by any matching slow-link fault when an injector is
  /// attached. Both endpoints must be registered — an unknown name is
  /// recorded as a violation (see unknown_nodes()) so topology typos can't
  /// silently run on default link props and skew transfer accounting.
  LinkProps GetLink(const std::string& a, const std::string& b) const;

  /// Wire batches a transfer of `rows` rows takes: one per 10,000 rows (an
  /// FDW cursor's fetch size at the modelled scale) plus one.
  static double Batches(double rows);

  /// Modelled seconds to ship `bytes` in `rows` rows between `a` and `b`:
  /// the volume over the link's bandwidth plus one latency per batch.
  double TransferSeconds(const std::string& a, const std::string& b,
                         double bytes, double rows) const;

  /// Marks a pair as unreachable (no direct connectivity — e.g. firewalled
  /// departments). XDB's annotator restricts placement candidates to
  /// reachable DBMSes (the paper's "constraining the possible values of
  /// set A depending on the network", Section IV-B).
  void BlockLink(const std::string& a, const std::string& b);
  void UnblockLink(const std::string& a, const std::string& b);

  /// True unless the pair was blocked. Same-node is always reachable.
  bool IsReachable(const std::string& a, const std::string& b) const;

  /// Records a directed transfer. Transfers naming an unregistered node
  /// are rejected (recorded as violations, not counted) so typos cannot
  /// skew Figure-14-style byte accounting. `encoded` marks payloads shipped
  /// as compressed column chunks: the bytes count normally everywhere and
  /// additionally bump xdb_network_encoded_bytes_total (+ its per-link
  /// cell) when a metrics registry is attached.
  void RecordTransfer(const std::string& src, const std::string& dst,
                      double bytes, uint64_t messages = 1,
                      bool encoded = false);

  /// Node names seen by GetLink/RecordTransfer that were never registered
  /// with AddNode. Empty in a correctly wired federation; tests assert on
  /// it to catch topology typos.
  std::set<std::string> unknown_nodes() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return unknown_nodes_;
  }
  void ClearUnknownNodes() {
    std::lock_guard<std::mutex> lock(*mu_);
    unknown_nodes_.clear();
  }

  /// Attaches a fault injector whose slow-link specs degrade GetLink
  /// results (nullptr detaches; the default). Degradation feeds both the
  /// annotator's move-cost estimates and the timing model.
  void set_fault_injector(const FaultInjector* injector) {
    injector_ = injector;
  }

  /// Attaches a metrics registry: every RecordTransfer additionally bumps
  /// the process-wide byte/message counters plus their per-directed-link
  /// `{link="src->dst"}` labeled cells (nullptr detaches; the default).
  /// Purely additive — the per-link stats() accounting is unchanged.
  void set_metrics(MetricsRegistry* registry);

  /// Traffic counters per directed pair (snapshot; safe to call while other
  /// threads record transfers).
  std::map<std::pair<std::string, std::string>, LinkStats> stats() const {
    std::lock_guard<std::mutex> lock(*mu_);
    return stats_;
  }

  double TotalBytes() const;

  /// Bytes on links where `node` is source or destination.
  double BytesInvolving(const std::string& node) const;

  void ResetStats() {
    std::lock_guard<std::mutex> lock(*mu_);
    stats_.clear();
  }

  // --- topology presets (see DESIGN.md §1) ---

  /// Single-cluster LAN: every link 1 Gbit / 0.1 ms (the paper's testbed).
  static Network Lan(const std::vector<std::string>& nodes);

  /// On-premise DBMSes + a managed-cloud node: DBMS-DBMS links are LAN,
  /// links to `cloud_node` are a 50 Mbit / 20 ms WAN uplink.
  static Network OnPremiseWithCloud(const std::vector<std::string>& nodes,
                                    const std::string& cloud_node);

  /// Geo-distributed DBMSes (different data centers): all links
  /// 100 Mbit / 40 ms, including to the cloud node.
  static Network GeoDistributed(const std::vector<std::string>& nodes,
                                const std::string& cloud_node);

 private:
  static std::pair<std::string, std::string> Key(const std::string& a,
                                                 const std::string& b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  /// Records (and returns false for) an unregistered node name.
  /// Caller must hold *mu_.
  bool CheckNodeKnown(const std::string& name) const;

  // Guards the accounting state (stats_, unknown_nodes_).
  // Behind a pointer so Network stays movable (preset factories return by
  // value); a moved-from network must not be used.
  mutable std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  std::vector<std::string> nodes_;
  LinkProps default_link_;
  const FaultInjector* injector_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  Counter* metric_bytes_ = nullptr;     // xdb_network_bytes_total
  Counter* metric_messages_ = nullptr;  // xdb_network_messages_total
  Counter* metric_encoded_ = nullptr;   // xdb_network_encoded_bytes_total
  mutable std::set<std::string> unknown_nodes_;
  std::map<std::pair<std::string, std::string>, LinkProps> links_;
  std::set<std::pair<std::string, std::string>> blocked_;
  std::map<std::pair<std::string, std::string>, LinkStats> stats_;
};

}  // namespace xdb
