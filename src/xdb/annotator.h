#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/connect/connector.h"
#include "src/net/network.h"
#include "src/plan/plan.h"

namespace xdb {

/// \brief Failover constraints on placement (paper Section IV-B's
/// reachability constraint, extended to observed faults): servers excluded
/// from hosting cross-database operators and links observed dead. Filled
/// by XdbSystem's failover loop as deploy/execution failures implicate
/// nodes and links; an empty constraint set leaves annotation untouched.
struct PlacementConstraints {
  std::set<std::string> excluded_servers;
  std::set<std::pair<std::string, std::string>> blocked_links;  // normalized

  static std::pair<std::string, std::string> LinkKey(const std::string& a,
                                                     const std::string& b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }
  bool Excluded(const std::string& server) const {
    return excluded_servers.count(server) > 0;
  }
  bool LinkBlocked(const std::string& a, const std::string& b) const {
    return blocked_links.count(LinkKey(a, b)) > 0;
  }
  bool empty() const {
    return excluded_servers.empty() && blocked_links.empty();
  }
};

/// \brief The Plan Annotator (paper Section IV-B-2).
///
/// Walks the optimized logical plan bottom-up and decides, per operator, the
/// executing DBMS and, per edge, the data-movement type:
///
///  - Rule 1: table scans inherit the DBMS that stores the table;
///  - Rule 2: unary operators inherit their input's annotation (implicit);
///  - Rule 3: binary operators with equal input annotations inherit it;
///  - Rule 4: cross-database binary operators choose the placement and
///    movement minimising Eq. 1, evaluated by *consulting* the candidate
///    DBMSes through their connectors' EXPLAIN-style cost probes.
///
/// The candidate set is pruned to the two input annotations (the paper's
/// |R|+|S| > max(|R|,|S|) argument), which also guarantees that no plan of
/// the Figure 5c shape (a cross-database operator placed on a third DBMS)
/// is ever produced.
/// \brief How Rule 4 chooses between implicit and explicit movement.
/// kCostBased is the paper's Eq. 1; the forced policies exist for the
/// ablation benches (what does the movement-type decision buy?).
enum class MovementPolicy { kCostBased, kAlwaysImplicit, kAlwaysExplicit };

class Annotator {
 public:
  /// `constraints` (optional, caller-owned) restricts Rule 4's candidate
  /// placements — used by failover replanning to route around nodes and
  /// links observed dead.
  Annotator(std::map<std::string, DbmsConnector*> connectors,
            const Network* network,
            MovementPolicy policy = MovementPolicy::kCostBased,
            const PlacementConstraints* constraints = nullptr)
      : connectors_(std::move(connectors)),
        network_(network),
        policy_(policy),
        constraints_(constraints) {}

  /// Annotates `plan` in place. `plan` must be fully bound with Scan leaves
  /// carrying their owning DBMS in `db`.
  Status Annotate(PlanNode* plan);

  /// Number of consultation round trips performed (4 per cross-database
  /// join: two placements x two movement types).
  int consultations() const { return consultations_; }
  void ResetCounters() { consultations_ = 0; }

 private:
  Status AnnotateNode(PlanNode* node);
  Status AnnotateCrossJoin(PlanNode* node);

  /// Modelled seconds to move an intermediate result from `src` to `dst`
  /// (Eq. 2's moveCost): volume over the link plus per-batch latency.
  double MoveCost(const PlanEstimate& producer, const std::string& src,
                  const std::string& dst) const;

  std::map<std::string, DbmsConnector*> connectors_;
  const Network* network_;
  MovementPolicy policy_;
  const PlacementConstraints* constraints_ = nullptr;
  int consultations_ = 0;
};

}  // namespace xdb
