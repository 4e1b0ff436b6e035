#include "src/xdb/annotator.h"

namespace xdb {

Status Annotator::Annotate(PlanNode* plan) {
  return AnnotateNode(plan);
}

double Annotator::MoveCost(const PlanEstimate& producer,
                           const std::string& src,
                           const std::string& dst) const {
  if (src == dst) return 0.0;
  return network_->TransferSeconds(src, dst, producer.bytes(), producer.rows);
}

Status Annotator::AnnotateNode(PlanNode* node) {
  for (auto& child : node->children) {
    XDB_RETURN_NOT_OK(AnnotateNode(child.get()));
  }
  switch (node->kind) {
    case PlanKind::kScan:
      // Rule 1: leaves live where their table lives.
      node->annotation = node->db;
      return Status::OK();
    case PlanKind::kPlaceholder:
      return Status::Internal(
          "placeholder encountered during annotation; finalization must "
          "run after annotation");
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kAggregate:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      // Rule 2.
      node->annotation = node->children[0]->annotation;
      node->children[0]->edge_movement = Movement::kImplicit;
      return Status::OK();
    case PlanKind::kJoin: {
      const std::string& la = node->children[0]->annotation;
      const std::string& ra = node->children[1]->annotation;
      if (la == ra) {
        // Rule 3.
        node->annotation = la;
        node->children[0]->edge_movement = Movement::kImplicit;
        node->children[1]->edge_movement = Movement::kImplicit;
        return Status::OK();
      }
      return AnnotateCrossJoin(node);
    }
  }
  return Status::Internal("unknown plan kind");
}

Status Annotator::AnnotateCrossJoin(PlanNode* node) {
  // Rule 4 with the pruned candidate set {A(o_l), A(o_r)}.
  const PlanEstimate& left_est = *node->children[0]->estimate;
  const PlanEstimate& right_est = *node->children[1]->estimate;

  struct Candidate {
    std::string placement;
    size_t remote_child;  // index of the child that must move
    Movement movement;
    double cost;
  };

  Candidate best;
  best.cost = -1;
  bool excluded_candidate = false;

  for (size_t local = 0; local < 2; ++local) {
    size_t remote = 1 - local;
    const std::string& a = node->children[local]->annotation;
    const std::string& remote_db = node->children[remote]->annotation;
    // Failover constraint: skip placements on servers observed unavailable
    // and links observed dead (replanning routes around them).
    if (constraints_ != nullptr &&
        (constraints_->Excluded(a) ||
         constraints_->LinkBlocked(remote_db, a))) {
      excluded_candidate = true;
      continue;
    }
    // Topology constraint: a placement is only a candidate if the remote
    // input can actually reach it (paper Section IV-B: "constraining the
    // possible values of set A depending on the network").
    if (!network_->IsReachable(remote_db, a)) continue;
    auto it = connectors_.find(a);
    if (it == connectors_.end()) {
      return Status::CatalogError("no connector for DBMS '" + a + "'");
    }
    DbmsConnector* dc = it->second;
    const PlanEstimate& remote_est = local == 0 ? right_est : left_est;

    std::vector<Movement> movements;
    switch (policy_) {
      case MovementPolicy::kCostBased:
        movements = {Movement::kImplicit, Movement::kExplicit};
        break;
      case MovementPolicy::kAlwaysImplicit:
        movements = {Movement::kImplicit};
        break;
      case MovementPolicy::kAlwaysExplicit:
        movements = {Movement::kExplicit};
        break;
    }
    for (Movement x : movements) {
      // Build the probe fragment: the join with both inputs as
      // placeholders — the local one "already there", the remote one
      // arriving as a foreign stream (implicit) or a materialised table
      // (explicit). Key indices are preserved by keeping child widths.
      auto make_ph = [](const PlanNode& child, double rows, bool foreign) {
        PlanPtr ph = PlanNode::MakePlaceholder(
            "?", child.output_schema, child.output_qualifiers, rows);
        ph->placeholder_foreign = foreign;
        return ph;
      };
      PlanPtr l_ph = make_ph(*node->children[0],
                             left_est.rows,
                             local != 0 && x == Movement::kImplicit);
      PlanPtr r_ph = make_ph(*node->children[1],
                             right_est.rows,
                             local != 1 && x == Movement::kImplicit);
      PlanPtr fragment = PlanNode::MakeJoin(
          l_ph, r_ph, node->left_keys, node->right_keys,
          node->residual ? node->residual->Clone() : nullptr);

      // Eq. 1: operator cost at `a` (consultation) ...
      double cost = dc->ProbeCost(*fragment);
      ++consultations_;
      // ... plus the cost of moving the remote input (Eq. 2 / Eq. 3).
      cost += MoveCost(remote_est, remote_db, a);
      if (x == Movement::kExplicit) {
        // Explicit movement additionally ingests the input through the
        // wrapper (the CTAS pays the same per-row fetch as a pipelined
        // read) and materialises it at `a`.
        cost += remote_est.rows * (dc->profile().fetch_row_cost +
                                   dc->profile().materialize_row_cost);
      }

      if (best.cost < 0 || cost < best.cost) {
        best = {a, remote, x, cost};
      }
    }
  }

  if (best.cost < 0) {
    if (excluded_candidate) {
      std::string excluded;
      for (const auto& s : constraints_->excluded_servers) {
        excluded += (excluded.empty() ? "" : ", ") + s;
      }
      return Status::Unavailable(
          "no surviving placement for a cross-database join between '" +
          node->children[0]->annotation + "' and '" +
          node->children[1]->annotation + "' (unavailable: [" + excluded +
          "])");
    }
    return Status::NetworkError(
        "no reachable placement for a cross-database join between '" +
        node->children[0]->annotation + "' and '" +
        node->children[1]->annotation +
        "' under the current topology constraints");
  }
  node->annotation = best.placement;
  node->children[1 - best.remote_child]->edge_movement = Movement::kImplicit;
  node->children[best.remote_child]->edge_movement = best.movement;
  return Status::OK();
}

}  // namespace xdb
