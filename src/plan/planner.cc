#include "src/plan/planner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "src/common/str_util.h"

namespace xdb {

void SplitConjuncts(const ExprPtr& predicate, std::vector<ExprPtr>* out) {
  if (!predicate) return;
  if (predicate->kind == ExprKind::kBinary &&
      predicate->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(predicate->children[0], out);
    SplitConjuncts(predicate->children[1], out);
    return;
  }
  out->push_back(predicate);
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& parts) {
  ExprPtr out;
  for (const auto& p : parts) {
    out = out ? Expr::Binary(BinaryOp::kAnd, out, p) : p;
  }
  return out;
}

namespace {

/// Remaps bound column indices through `mapping` (old index -> new index).
void RewriteIndices(Expr* e, const std::vector<int>& mapping) {
  if (e->kind == ExprKind::kColumnRef && e->column_index >= 0) {
    e->column_index = mapping[static_cast<size_t>(e->column_index)];
    return;
  }
  for (auto& c : e->children) RewriteIndices(c.get(), mapping);
}

ExprPtr RewrittenClone(const ExprPtr& e, const std::vector<int>& mapping) {
  ExprPtr c = e->Clone();
  RewriteIndices(c.get(), mapping);
  return c;
}

/// Replaces subtrees of `e` that structurally equal one of `targets[i]` by a
/// bound reference to output column i, the column an Aggregate node over
/// the targets outputs for it. Used to rewrite post-aggregation select
/// expressions over the Aggregate node's output.
ExprPtr ReplaceMatching(const ExprPtr& e, const std::vector<ExprPtr>& targets,
                        std::set<const Expr*>* replacements) {
  for (size_t i = 0; i < targets.size(); ++i) {
    if (e->Equals(*targets[i])) {
      ExprPtr col = Expr::BoundColumn(static_cast<int>(i),
                                      InferType(targets[i]),
                                      targets[i]->OutputName());
      col->alias = e->alias;
      replacements->insert(col.get());
      return col;
    }
  }
  ExprPtr c = std::make_shared<Expr>(*e);
  for (auto& child : c->children) {
    child = ReplaceMatching(child, targets, replacements);
  }
  return c;
}

/// After ReplaceMatching, any column reference that is not one of the
/// inserted replacements refers to a pre-aggregation column — invalid SQL
/// (a select item outside GROUP BY).
bool ContainsUnreplacedColumn(const Expr& e,
                              const std::set<const Expr*>& replacements) {
  if (e.kind == ExprKind::kColumnRef) return replacements.count(&e) == 0;
  if (e.kind == ExprKind::kAggregate) return false;  // args live pre-agg
  for (const auto& c : e.children) {
    if (ContainsUnreplacedColumn(*c, replacements)) return true;
  }
  return false;
}

void CollectAggregates(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e->kind == ExprKind::kAggregate) {
    for (const auto& existing : *out) {
      if (existing->Equals(*e)) return;
    }
    out->push_back(e);
    return;
  }
  for (const auto& c : e->children) CollectAggregates(c, out);
}

struct BoundSelect;

struct RelInfo {
  PlanPtr plan;             // resolved (and later filtered/pruned) subtree
  std::unique_ptr<BoundSelect> derived;  // a derived table, until planned
  std::string alias;        // FROM alias
  size_t offset = 0;        // first column in the combined global schema
  size_t width = 0;         // column count in the combined global schema
  std::vector<int> kept;    // global indices kept after pruning (sorted)
};

/// A SELECT after binding: its FROM relations resolved, its expressions
/// bound against the combined (global) schema of those relations, grouping
/// checked, ORDER BY resolved, and its output schema. Planner::Bind reads
/// the schema; Plan turns the rest into plan nodes.
struct BoundSelect {
  bool select_star = false;
  int64_t limit = -1;
  std::vector<RelInfo> rels;
  Schema combined;
  std::vector<std::string> combined_quals;
  ExprPtr where;
  std::vector<ExprPtr> select_exprs;
  std::vector<ExprPtr> group_keys;
  ExprPtr having;
  bool has_aggregates = false;
  // With aggregation: the aggregate calls, and HAVING and the select list
  // rewritten over the aggregate's output (group keys, then calls).
  std::vector<ExprPtr> agg_calls;
  ExprPtr having_over_agg;
  std::vector<ExprPtr> select_over_agg;
  std::vector<ExprPtr> order_exprs;  // ORDER BY items that are not aliases
  std::vector<std::pair<int, bool>> sort_keys;
  Schema output_schema;
};

/// Which relations does a bound (global-index) expression touch?
uint32_t RelMask(const Expr& e, const std::vector<RelInfo>& rels) {
  std::vector<int> cols;
  CollectColumnIndices(e, &cols);
  uint32_t mask = 0;
  for (int c : cols) {
    for (size_t r = 0; r < rels.size(); ++r) {
      if (static_cast<size_t>(c) >= rels[r].offset &&
          static_cast<size_t>(c) < rels[r].offset + rels[r].width) {
        mask |= 1u << r;
      }
    }
  }
  return mask;
}

struct JoinConjunct {
  int left_global = -1;   // global column index
  int right_global = -1;
  size_t rel_a = 0, rel_b = 0;  // relations of left/right side
};

/// The front half of Plan: everything that can fail, and nothing that
/// depends on the planner options or the join order.
Result<BoundSelect> BindSelect(const sql::SelectStmt& stmt,
                               RelationResolver* resolver) {
  if (stmt.from.empty()) {
    return Status::BindError("query has no FROM clause");
  }
  if (stmt.from.size() > 20) {
    return Status::NotImplemented("more than 20 relations in FROM");
  }
  BoundSelect q;
  q.select_star = stmt.select_star;
  q.limit = stmt.limit;

  // --- 1. Resolve relations; build the combined (global) schema. ---
  for (const auto& ref : stmt.from) {
    RelInfo info;
    info.alias = ref.EffectiveAlias();
    const Schema* schema = nullptr;
    if (ref.subquery) {
      // Derived table: bound now, planned with the query that reads it.
      XDB_ASSIGN_OR_RETURN(BoundSelect sub,
                           BindSelect(*ref.subquery, resolver));
      info.derived = std::make_unique<BoundSelect>(std::move(sub));
      schema = &info.derived->output_schema;
    } else {
      XDB_ASSIGN_OR_RETURN(info.plan, resolver->Resolve(ref.db, ref.table));
      // Re-qualify the subtree's outputs under the FROM alias.
      info.plan->output_qualifiers.assign(
          info.plan->output_schema.num_fields(), info.alias);
      schema = &info.plan->output_schema;
    }
    info.offset = q.combined.num_fields();
    info.width = schema->num_fields();
    for (const auto& f : schema->fields()) {
      q.combined.AddField(f);
      q.combined_quals.push_back(info.alias);
    }
    q.rels.push_back(std::move(info));
  }

  // --- 2. Bind WHERE / SELECT / GROUP BY / HAVING against it. ---
  if (stmt.where) {
    XDB_ASSIGN_OR_RETURN(
        q.where, BindExpr(stmt.where, q.combined, &q.combined_quals));
    XDB_RETURN_NOT_OK(CheckBoolean(q.where, "WHERE"));
  }
  if (stmt.select_star) {
    for (size_t i = 0; i < q.combined.num_fields(); ++i) {
      q.select_exprs.push_back(Expr::BoundColumn(
          static_cast<int>(i), q.combined.field(i).type,
          q.combined.field(i).name));
    }
  } else {
    for (const auto& e : stmt.select_list) {
      XDB_ASSIGN_OR_RETURN(ExprPtr bound,
                           BindExpr(e, q.combined, &q.combined_quals));
      q.select_exprs.push_back(std::move(bound));
    }
  }

  auto resolve_by_alias = [&](const ExprPtr& e) -> ExprPtr {
    // SQL scoping: a bare name in GROUP BY / ORDER BY may refer to a SELECT
    // alias (the paper's example groups by the alias 'age_group').
    if (e->kind == ExprKind::kColumnRef && e->qualifier.empty()) {
      for (const auto& s : q.select_exprs) {
        if (!s->alias.empty() && EqualsIgnoreCase(s->alias, e->column)) {
          return s->Clone();
        }
      }
    }
    return nullptr;
  };

  for (const auto& g : stmt.group_by) {
    if (ExprPtr aliased = resolve_by_alias(g)) {
      q.group_keys.push_back(std::move(aliased));
      continue;
    }
    XDB_ASSIGN_OR_RETURN(ExprPtr bound,
                         BindExpr(g, q.combined, &q.combined_quals));
    q.group_keys.push_back(std::move(bound));
  }

  if (stmt.having) {
    if (ExprPtr aliased = resolve_by_alias(stmt.having)) {
      q.having = std::move(aliased);
    } else {
      XDB_ASSIGN_OR_RETURN(
          q.having, BindExpr(stmt.having, q.combined, &q.combined_quals));
    }
    XDB_RETURN_NOT_OK(CheckBoolean(q.having, "HAVING"));
  }

  q.has_aggregates = !q.group_keys.empty();
  for (const auto& s : q.select_exprs) {
    if (s->ContainsAggregate()) q.has_aggregates = true;
  }
  if (q.having && q.having->ContainsAggregate()) q.has_aggregates = true;
  if (q.having && !q.has_aggregates) {
    return Status::BindError("HAVING requires aggregation");
  }

  // --- 3. Grouping: rewrite HAVING and the select list over the
  // aggregate's output. An expression's name and type do not depend on
  // where the join order puts its columns, so the output schema is known
  // here. ---
  if (q.has_aggregates) {
    for (const auto& s : q.select_exprs) CollectAggregates(s, &q.agg_calls);
    if (q.having) CollectAggregates(q.having, &q.agg_calls);
    if (q.agg_calls.empty()) {
      // GROUP BY without aggregates: plain deduplication.
      q.agg_calls.push_back(Expr::Aggregate(AggKind::kCountStar, nullptr));
    }
    // Group keys map to leading columns, aggregate calls to trailing ones.
    std::vector<ExprPtr> targets = q.group_keys;
    targets.insert(targets.end(), q.agg_calls.begin(), q.agg_calls.end());
    std::set<const Expr*> replacements;
    if (q.having) {
      q.having_over_agg = ReplaceMatching(q.having, targets, &replacements);
      if (ContainsUnreplacedColumn(*q.having_over_agg, replacements)) {
        return Status::BindError(
            "HAVING references columns outside GROUP BY: " +
            q.having->ToSql());
      }
    }
    for (const auto& s : q.select_exprs) {
      ExprPtr rewritten = ReplaceMatching(s, targets, &replacements);
      if (ContainsUnreplacedColumn(*rewritten, replacements)) {
        return Status::BindError(
            "select expression references columns outside GROUP BY: " +
            s->ToSql());
      }
      q.select_over_agg.push_back(std::move(rewritten));
    }
    AddOutputFields(q.select_over_agg, &q.output_schema);
  } else if (!stmt.select_star) {
    AddOutputFields(q.select_exprs, &q.output_schema);
  } else {
    q.output_schema = q.combined;  // SELECT *: the FROM-order columns
  }

  // --- 4. ORDER BY over the output. ---
  for (const auto& item : stmt.order_by) {
    // An item that is not a SELECT alias keeps the raw columns it names
    // alive through pruning.
    if (!resolve_by_alias(item.expr)) {
      auto bound = BindExpr(item.expr, q.combined, &q.combined_quals);
      if (bound.ok()) q.order_exprs.push_back(*bound);
    }
    int idx = -1;
    // (a) name/alias of an output column;
    if (item.expr->kind == ExprKind::kColumnRef &&
        item.expr->qualifier.empty()) {
      if (auto found = q.output_schema.IndexOf(item.expr->column)) {
        idx = static_cast<int>(*found);
      }
    }
    // (b) structural match against a select expression.
    if (idx < 0 && !stmt.select_star) {
      auto bound = BindExpr(item.expr, q.combined, &q.combined_quals);
      for (size_t i = 0; bound.ok() && i < q.select_exprs.size(); ++i) {
        if (q.select_exprs[i]->Equals(**bound)) {
          idx = static_cast<int>(i);
          break;
        }
      }
    }
    if (idx < 0) {
      return Status::BindError("cannot resolve ORDER BY item: " +
                               item.expr->ToSql());
    }
    q.sort_keys.emplace_back(idx, item.descending);
  }
  return q;
}

/// The back half of Plan: filter pushdown, column pruning, join ordering
/// and the plan nodes of a bound SELECT (consumed).
Result<PlanPtr> PlanBound(BoundSelect* bound, const PlannerOptions& options) {
  BoundSelect& q = *bound;
  std::vector<RelInfo>& rels = q.rels;
  for (RelInfo& info : rels) {
    if (!info.derived) continue;
    XDB_ASSIGN_OR_RETURN(info.plan, PlanBound(info.derived.get(), options));
    info.plan->output_qualifiers.assign(
        info.plan->output_schema.num_fields(), info.alias);
  }
  const Schema& combined = q.combined;

  // --- 1. Classify the WHERE conjuncts. ---
  std::vector<std::vector<ExprPtr>> local_filters(rels.size());
  std::vector<JoinConjunct> join_conjuncts;
  std::vector<ExprPtr> residuals;  // cross-relation non-equi, bound globally
  if (q.where) {
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(q.where, &conjuncts);
    for (auto& c : conjuncts) {
      uint32_t mask = RelMask(*c, rels);
      int nrels = __builtin_popcount(mask);
      if (nrels <= 1 && options.push_down_filters) {
        size_t r = mask == 0 ? 0 : static_cast<size_t>(
                                       __builtin_ctz(mask));
        local_filters[r].push_back(c);
        continue;
      }
      // Pure equi-join conjunct between two relations?
      if (nrels == 2 && c->kind == ExprKind::kBinary &&
          c->binary_op == BinaryOp::kEq &&
          c->children[0]->kind == ExprKind::kColumnRef &&
          c->children[1]->kind == ExprKind::kColumnRef) {
        JoinConjunct jc;
        jc.left_global = c->children[0]->column_index;
        jc.right_global = c->children[1]->column_index;
        for (size_t r = 0; r < rels.size(); ++r) {
          size_t lo = rels[r].offset, hi = rels[r].offset + rels[r].width;
          if (static_cast<size_t>(jc.left_global) >= lo &&
              static_cast<size_t>(jc.left_global) < hi) {
            jc.rel_a = r;
          }
          if (static_cast<size_t>(jc.right_global) >= lo &&
              static_cast<size_t>(jc.right_global) < hi) {
            jc.rel_b = r;
          }
        }
        join_conjuncts.push_back(jc);
        continue;
      }
      residuals.push_back(c);
    }
  }

  // --- 2. Column pruning: find the global columns anything references. ---
  std::set<int> needed;
  auto note = [&](const ExprPtr& e) {
    std::vector<int> cols;
    CollectColumnIndices(*e, &cols);
    needed.insert(cols.begin(), cols.end());
  };
  for (const auto& e : q.select_exprs) note(e);
  for (const auto& e : q.group_keys) note(e);
  for (const auto& e : residuals) note(e);
  if (q.having) note(q.having);
  for (const auto& jc : join_conjuncts) {
    needed.insert(jc.left_global);
    needed.insert(jc.right_global);
  }
  for (const auto& e : q.order_exprs) note(e);

  // --- 3. Per-relation: apply pushed filters, then prune columns. ---
  // `global_to_local[g]` = column position within the (pruned) relation.
  std::vector<int> global_to_local(combined.num_fields(), -1);
  for (size_t r = 0; r < rels.size(); ++r) {
    RelInfo& info = rels[r];
    // Rebase local filters from global to relation-local indices.
    std::vector<int> rebase(combined.num_fields(), -1);
    for (size_t i = 0; i < info.width; ++i) {
      rebase[info.offset + i] = static_cast<int>(i);
    }
    if (!local_filters[r].empty()) {
      std::vector<ExprPtr> rebased;
      for (const auto& f : local_filters[r]) {
        rebased.push_back(RewrittenClone(f, rebase));
      }
      info.plan = PlanNode::MakeFilter(info.plan, CombineConjuncts(rebased));
    }
    // Prune.
    for (size_t i = 0; i < info.width; ++i) {
      int g = static_cast<int>(info.offset + i);
      if (needed.count(g) ||
          (!options.prune_columns)) {
        info.kept.push_back(g);
      }
    }
    if (info.kept.empty()) {
      // Keep one column so the relation still produces row multiplicity.
      info.kept.push_back(static_cast<int>(info.offset));
    }
    if (options.prune_columns &&
        info.kept.size() < info.width) {
      std::vector<ExprPtr> cols;
      for (int g : info.kept) {
        int local = g - static_cast<int>(info.offset);
        cols.push_back(Expr::BoundColumn(
            local,
            info.plan->output_schema.field(static_cast<size_t>(local)).type,
            info.plan->output_schema.field(
                static_cast<size_t>(local)).name));
      }
      std::vector<std::string> quals = info.plan->output_qualifiers;
      info.plan = PlanNode::MakeProject(info.plan, std::move(cols));
      // Projection of pass-through columns keeps the alias qualifier.
      info.plan->output_qualifiers.assign(
          info.plan->output_schema.num_fields(), info.alias);
    }
    for (size_t i = 0; i < info.kept.size(); ++i) {
      global_to_local[static_cast<size_t>(info.kept[i])] =
          static_cast<int>(i);
    }
  }

  // --- 4. Join ordering (left-deep DP over connected subsets). ---
  struct State {
    PlanPtr plan;
    double cost = 0;                 // sum of intermediate cardinalities
    std::vector<int> col_map;        // global index -> plan output index
    bool valid = false;
  };

  auto make_leaf_state = [&](size_t r) {
    State s;
    s.plan = rels[r].plan;
    s.cost = 0;
    s.col_map.assign(combined.num_fields(), -1);
    for (size_t i = 0; i < rels[r].kept.size(); ++i) {
      s.col_map[static_cast<size_t>(rels[r].kept[i])] =
          static_cast<int>(i);
    }
    s.valid = true;
    return s;
  };

  /// Joins two disjoint states; keys come from the equi-conjuncts with one
  /// side in each. Returns (state, had-join-keys).
  auto join_two = [&](const State& left, const State& right) {
    std::vector<int> lk, rk;
    for (const auto& jc : join_conjuncts) {
      size_t lg = static_cast<size_t>(jc.left_global);
      size_t rg = static_cast<size_t>(jc.right_global);
      int l_idx = -1, r_idx = -1;
      if (left.col_map[lg] >= 0 && right.col_map[rg] >= 0) {
        l_idx = left.col_map[lg];
        r_idx = right.col_map[rg];
      } else if (left.col_map[rg] >= 0 && right.col_map[lg] >= 0) {
        l_idx = left.col_map[rg];
        r_idx = right.col_map[lg];
      } else {
        continue;
      }
      lk.push_back(l_idx);
      rk.push_back(r_idx);
    }
    State out;
    out.plan = PlanNode::MakeJoin(left.plan, right.plan, lk, rk, nullptr);
    size_t left_width = left.plan->output_schema.num_fields();
    out.col_map = left.col_map;
    for (size_t i = 0; i < out.col_map.size(); ++i) {
      if (right.col_map[i] >= 0) {
        out.col_map[i] = static_cast<int>(left_width) + right.col_map[i];
      }
    }
    out.cost = left.cost + right.cost + out.plan->estimate->rows;
    out.valid = true;
    return std::make_pair(out, !lk.empty());
  };

  // Base planning units: one per FROM relation, or — under Garlic-style
  // source decomposition — one per maximal co-located connected group.
  std::vector<State> units;
  for (size_t r = 0; r < rels.size(); ++r) {
    units.push_back(make_leaf_state(r));
  }
  if (options.colocate_joins_first && units.size() > 1) {
    auto home_db = [](const State& st) -> std::string {
      auto dbs = st.plan->ReferencedDatabases();
      return dbs.size() == 1 ? dbs[0] : "";
    };
    bool merged = true;
    while (merged) {
      merged = false;
      for (size_t i = 0; i < units.size() && !merged; ++i) {
        for (size_t j = i + 1; j < units.size() && !merged; ++j) {
          std::string a = home_db(units[i]), b = home_db(units[j]);
          if (a.empty() || a != b) continue;
          auto [cand, connected] = join_two(units[i], units[j]);
          if (!connected) continue;  // never cross-join inside a source
          units[i] = cand;
          units.erase(units.begin() + static_cast<long>(j));
          merged = true;
        }
      }
    }
  }

  State final_state;
  if (units.size() == 1) {
    final_state = units[0];
  } else if (!options.reorder_joins) {
    final_state = units[0];
    for (size_t r = 1; r < units.size(); ++r) {
      final_state = join_two(final_state, units[r]).first;
    }
  } else {
    const size_t n = units.size();
    std::vector<State> dp(static_cast<size_t>(1) << n);
    for (size_t r = 0; r < n; ++r) {
      dp[static_cast<size_t>(1) << r] = units[r];
    }
    if (!options.bushy_joins) {
      // Left-deep DP: extend each state by one base relation, preferring
      // connected extensions (cross joins only when unavoidable).
      for (size_t mask = 1; mask < dp.size(); ++mask) {
        if (!dp[mask].valid) continue;
        bool any_connected = false;
        for (int pass = 0; pass < 2 && !any_connected; ++pass) {
          for (size_t r = 0; r < n; ++r) {
            if (mask & (static_cast<size_t>(1) << r)) continue;
            auto [cand, connected] = join_two(dp[mask], units[r]);
            if (pass == 0 && !connected) continue;
            if (connected) any_connected = true;
            size_t nm = mask | (static_cast<size_t>(1) << r);
            if (!dp[nm].valid || cand.cost < dp[nm].cost) dp[nm] = cand;
          }
          if (pass == 0 && any_connected) break;
        }
      }
    } else {
      // Bushy DP: every (sub, mask^sub) split of every subset. Both parts
      // are numerically smaller than `mask`, so ascending order suffices.
      for (size_t mask = 1; mask < dp.size(); ++mask) {
        if (__builtin_popcountll(mask) < 2) continue;
        for (int pass = 0; pass < 2; ++pass) {
          bool any_connected = false;
          for (size_t sub = (mask - 1) & mask; sub != 0;
               sub = (sub - 1) & mask) {
            size_t other = mask ^ sub;
            if (sub < other) continue;  // each split once
            if (!dp[sub].valid || !dp[other].valid) continue;
            auto [cand, connected] = join_two(dp[sub], dp[other]);
            if (pass == 0 && !connected) continue;
            if (connected) any_connected = true;
            if (!dp[mask].valid || cand.cost < dp[mask].cost) {
              dp[mask] = cand;
            }
          }
          if (pass == 0 && any_connected) break;
        }
      }
    }
    final_state = dp[dp.size() - 1];
    if (!final_state.valid) {
      return Status::Internal("join ordering produced no complete plan");
    }
  }

  PlanPtr plan = final_state.plan;
  const std::vector<int>& col_map = final_state.col_map;

  // --- 5. Residual cross-relation predicates on top of the join tree. ---
  if (!residuals.empty()) {
    std::vector<ExprPtr> rebased;
    for (const auto& rexpr : residuals) {
      rebased.push_back(RewrittenClone(rexpr, col_map));
    }
    plan = PlanNode::MakeFilter(plan, CombineConjuncts(rebased));
  }

  // --- 6. Aggregation / projection. ---
  if (q.has_aggregates) {
    std::vector<ExprPtr> keys_rebased;
    for (const auto& g : q.group_keys) {
      keys_rebased.push_back(RewrittenClone(g, col_map));
    }
    std::vector<ExprPtr> aggs_rebased;
    for (const auto& a : q.agg_calls) {
      aggs_rebased.push_back(RewrittenClone(a, col_map));
    }
    PlanPtr agg =
        PlanNode::MakeAggregate(plan, keys_rebased, aggs_rebased);
    if (q.having_over_agg) {
      agg = PlanNode::MakeFilter(agg, std::move(q.having_over_agg));
    }
    plan = PlanNode::MakeProject(agg, std::move(q.select_over_agg));
  } else if (!q.select_star) {
    std::vector<ExprPtr> rebased;
    for (const auto& s : q.select_exprs) {
      rebased.push_back(RewrittenClone(s, col_map));
    }
    plan = PlanNode::MakeProject(plan, std::move(rebased));
  } else if (rels.size() > 1 || options.prune_columns) {
    // SELECT * over multiple relations: produce the FROM-order columns.
    std::vector<ExprPtr> rebased;
    for (const auto& s : q.select_exprs) {
      rebased.push_back(RewrittenClone(s, col_map));
    }
    plan = PlanNode::MakeProject(plan, std::move(rebased));
  }

  // --- 7. ORDER BY and LIMIT over the output. ---
  if (!q.sort_keys.empty()) {
    plan = PlanNode::MakeSort(plan, std::move(q.sort_keys));
  }
  if (q.limit >= 0) plan = PlanNode::MakeLimit(plan, q.limit);

  return plan;
}

}  // namespace

Result<Schema> Planner::Bind(const sql::SelectStmt& stmt) {
  XDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(stmt, resolver_));
  return std::move(bound.output_schema);
}

Result<PlanPtr> Planner::Plan(const sql::SelectStmt& stmt) {
  XDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(stmt, resolver_));
  return PlanBound(&bound, options_);
}

}  // namespace xdb
