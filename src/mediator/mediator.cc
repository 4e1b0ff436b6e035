#include "src/mediator/mediator.h"

namespace xdb {

const char* MediatorKindToString(MediatorKind kind) {
  switch (kind) {
    case MediatorKind::kGarlic:
      return "garlic";
    case MediatorKind::kPresto:
      return "presto";
    case MediatorKind::kSclera:
      return "sclera";
  }
  return "unknown";
}

MediatorSystem::MediatorSystem(Federation* fed, MediatorKind kind,
                               MediatorOptions options)
    : kind_(kind) {
  mediator_name_ = options.mediator_node.empty() ? MediatorKindToString(kind)
                                                 : options.mediator_node;
  EngineProfile profile;
  switch (kind) {
    case MediatorKind::kGarlic:
      profile = EngineProfile::GarlicMediator();
      break;
    case MediatorKind::kPresto:
      profile = EngineProfile::PrestoMediator(options.presto_workers);
      break;
    case MediatorKind::kSclera:
      profile = EngineProfile::ScleraMediator();
      break;
  }
  // Component connectors first (before the mediator node joins the
  // federation, so it is not part of the global schema).
  for (const auto& name : fed->ServerNames()) {
    DatabaseServer* server = fed->GetServer(name);
    if (options.exec_threads > 0) {
      server->set_exec_threads(options.exec_threads);
    }
    auto dc = std::make_unique<DbmsConnector>(server, Dialect::Postgres(),
                                              fed, mediator_name_);
    connector_ptrs_[name] = dc.get();
    connectors_[name] = std::move(dc);
  }
  catalog_ = std::make_unique<GlobalCatalog>(connector_ptrs_);

  DatabaseServer* mediator = fed->GetServer(mediator_name_);
  if (mediator == nullptr) mediator = fed->AddServer(mediator_name_, profile);
  if (options.exec_threads > 0) {
    mediator->set_exec_threads(options.exec_threads);
  }
  // The mediator issues DDL to itself with zero-latency "round trips".
  auto self = std::make_unique<DbmsConnector>(mediator, Dialect::Postgres(),
                                              fed, mediator_name_);
  connector_ptrs_[mediator_name_] = self.get();
  connectors_[mediator_name_] = std::move(self);

  // XDB's pipeline with the MW architecture's fixed differences: placement
  // never adapts (no breakers, no failover rounds), metadata is billed
  // without link RTTs, the mediator is the client (no result hop), and
  // "actual execution" is mediator-local compute, as the paper measures it.
  SystemSpec spec;
  spec.system = MediatorKindToString(kind);
  spec.span_name = "mediator query";
  spec.ddl_prefix = mediator_name_;
  spec.options.scale_up = options.scale_up;
  spec.options.middleware_node = mediator_name_;
  // Garlic and ScleraDB decompose by source first (maximal single-DBMS
  // subqueries); Presto's connectors cannot push joins down at all, so its
  // plan follows the global order.
  spec.options.planner.colocate_joins_first = kind != MediatorKind::kPresto;
  spec.consult_breakers = false;
  spec.max_failover_alternates = 0;
  spec.bill_metadata_rtt = false;
  spec.ship_result = false;
  spec.localized_compute = true;
  // MW systems plan centrally — no consulting.
  spec.place = [this](PlanNode* plan, const PlacementConstraints*, int*) {
    return AnnotateMw(plan);
  };
  pipeline_ = std::make_unique<QueryPipeline>(fed, std::move(spec),
                                              connector_ptrs_, catalog_.get());
}

/// MW placement policy: scans stay put, unary operators follow their input,
/// and every cross-DBMS (for Presto: every) join lands on the mediator.
Status MediatorSystem::AnnotateMw(PlanNode* node) const {
  for (auto& child : node->children) {
    XDB_RETURN_NOT_OK(AnnotateMw(child.get()));
  }
  switch (node->kind) {
    case PlanKind::kScan:
      node->annotation = node->db;
      return Status::OK();
    case PlanKind::kPlaceholder:
      return Status::Internal("unexpected placeholder in MW annotation");
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      node->annotation = node->children[0]->annotation;
      node->children[0]->edge_movement = Movement::kImplicit;
      return Status::OK();
    case PlanKind::kAggregate:
      // MW systems aggregate in the mediator unless the whole input is a
      // single pushed-down source subquery under Garlic/Sclera.
      if (kind_ != MediatorKind::kPresto &&
          node->children[0]->annotation != mediator_name_) {
        node->annotation = node->children[0]->annotation;
      } else {
        node->annotation = mediator_name_;
      }
      node->children[0]->edge_movement = kind_ == MediatorKind::kSclera &&
                                                 node->annotation !=
                                                     node->children[0]
                                                         ->annotation
                                             ? Movement::kExplicit
                                             : Movement::kImplicit;
      return Status::OK();
    case PlanKind::kJoin: {
      const std::string& la = node->children[0]->annotation;
      const std::string& ra = node->children[1]->annotation;
      bool pushdown_joins = kind_ != MediatorKind::kPresto;
      if (pushdown_joins && la == ra && la != mediator_name_) {
        // Co-located join: the wrapper pushes it down to the source.
        node->annotation = la;
        node->children[0]->edge_movement = Movement::kImplicit;
        node->children[1]->edge_movement = Movement::kImplicit;
        return Status::OK();
      }
      node->annotation = mediator_name_;
      for (auto& child : node->children) {
        if (child->annotation == mediator_name_) {
          child->edge_movement = Movement::kImplicit;
        } else {
          // ScleraDB materialises every intermediate in the mediator; the
          // pipelining mediators stream through the wrapper.
          child->edge_movement = kind_ == MediatorKind::kSclera
                                     ? Movement::kExplicit
                                     : Movement::kImplicit;
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown plan kind");
}

Result<XdbReport> MediatorSystem::Query(const std::string& sql) {
  return Query(sql, QueryContext{});
}

Result<XdbReport> MediatorSystem::Query(const std::string& sql,
                                        const QueryContext& ctx) {
  return pipeline_->Run(sql, ctx);
}

}  // namespace xdb
