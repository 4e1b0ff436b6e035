#include "src/connect/deparser.h"

#include <map>
#include <set>

#include "src/common/str_util.h"

namespace xdb {

namespace {

/// Intermediate flattening state: FROM items, WHERE conjuncts, and the SQL
/// rendering of each output column of the current subtree.
struct FlatQuery {
  struct FromItem {
    std::string relation;   // relation name, or raw SELECT text when
                            // is_subquery (rendered as a derived table)
    std::string alias;
    bool is_subquery = false;
  };
  std::vector<FromItem> from;
  std::vector<std::string> where;
  std::vector<std::string> out_sql;    // per output column
  std::vector<std::string> out_names;  // display names (may collide)

  bool has_aggregate = false;
  std::vector<std::string> group_by;
  std::vector<std::string> having;
  std::vector<std::pair<std::string, bool>> order_by;  // (sql, descending)
  int64_t limit = -1;
};

std::vector<std::string> UniquifyNames(const std::vector<std::string>& names);

/// Assembles a FlatQuery into SELECT text; output columns are aliased to
/// `names` (which must be unique identifiers).
std::string AssembleSql(const FlatQuery& q,
                        const std::vector<std::string>& names,
                        const Dialect& dialect) {
  std::string sql = "SELECT ";
  for (size_t i = 0; i < q.out_sql.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += q.out_sql[i] + " AS " + dialect.QuoteIdent(names[i]);
  }
  sql += " FROM ";
  for (size_t i = 0; i < q.from.size(); ++i) {
    if (i > 0) sql += ", ";
    if (q.from[i].is_subquery) {
      sql += "(" + q.from[i].relation + ") AS " + q.from[i].alias;
      continue;
    }
    sql += dialect.QuoteIdent(q.from[i].relation);
    if (q.from[i].alias != q.from[i].relation) {
      sql += " AS " + q.from[i].alias;
    }
  }
  if (!q.where.empty()) {
    sql += " WHERE ";
    for (size_t i = 0; i < q.where.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += q.where[i];
    }
  }
  if (!q.group_by.empty()) {
    sql += " GROUP BY ";
    for (size_t i = 0; i < q.group_by.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += q.group_by[i];
    }
  }
  if (!q.having.empty()) {
    sql += " HAVING ";
    for (size_t i = 0; i < q.having.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += q.having[i];
    }
  }
  if (!q.order_by.empty()) {
    sql += " ORDER BY ";
    for (size_t i = 0; i < q.order_by.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += q.order_by[i].first;
      if (q.order_by[i].second) sql += " DESC";
    }
  }
  if (q.limit >= 0) sql += " LIMIT " + std::to_string(q.limit);
  return sql;
}

/// Renders a bound expression, substituting `cols[i]` for column i.
std::string RenderExpr(const Expr& e, const std::vector<std::string>& cols) {
  return e.ToSql([&](const Expr& c) {
    return cols[static_cast<size_t>(c.column_index)];
  });
}

class Flattener {
 public:
  explicit Flattener(const Dialect& dialect) : dialect_(dialect) {}

  Result<FlatQuery> Walk(const PlanNode& node) {
    switch (node.kind) {
      case PlanKind::kScan: {
        FlatQuery q;
        std::string alias = UniqueAlias(
            node.alias.empty() ? node.table : node.alias);
        q.from.push_back({node.table, alias});
        for (const auto& f : node.output_schema.fields()) {
          q.out_sql.push_back(alias + "." + dialect_.QuoteIdent(f.name));
          q.out_names.push_back(f.name);
        }
        return q;
      }
      case PlanKind::kPlaceholder: {
        FlatQuery q;
        std::string alias = UniqueAlias(node.placeholder_name);
        q.from.push_back({node.placeholder_name, alias});
        for (const auto& f : node.output_schema.fields()) {
          q.out_sql.push_back(alias + "." + dialect_.QuoteIdent(f.name));
          q.out_names.push_back(f.name);
        }
        return q;
      }
      case PlanKind::kFilter: {
        XDB_ASSIGN_OR_RETURN(FlatQuery q, Walk(*node.children[0]));
        if (q.has_aggregate) {
          // A filter over aggregate output is SQL's HAVING clause.
          q.having.push_back(RenderExpr(*node.predicate, q.out_sql));
          return q;
        }
        q.where.push_back(RenderExpr(*node.predicate, q.out_sql));
        return q;
      }
      case PlanKind::kProject: {
        XDB_ASSIGN_OR_RETURN(FlatQuery q, Walk(*node.children[0]));
        std::vector<std::string> sql, names;
        for (const auto& e : node.exprs) {
          sql.push_back(RenderExpr(*e, q.out_sql));
          names.push_back(e->OutputName());
        }
        q.out_sql = std::move(sql);
        q.out_names = std::move(names);
        return q;
      }
      case PlanKind::kJoin: {
        XDB_ASSIGN_OR_RETURN(FlatQuery l, Walk(*node.children[0]));
        XDB_ASSIGN_OR_RETURN(FlatQuery r, Walk(*node.children[1]));
        // A join input that already aggregates (or sorts/limits) cannot be
        // merged into this SELECT's FROM list directly — collapse it into
        // a derived table `(SELECT ...) AS dN`.
        if (l.has_aggregate || l.limit >= 0) l = Collapse(std::move(l));
        if (r.has_aggregate || r.limit >= 0) r = Collapse(std::move(r));
        FlatQuery q;
        q.from = l.from;
        q.from.insert(q.from.end(), r.from.begin(), r.from.end());
        q.where = l.where;
        q.where.insert(q.where.end(), r.where.begin(), r.where.end());
        q.out_sql = l.out_sql;
        q.out_sql.insert(q.out_sql.end(), r.out_sql.begin(), r.out_sql.end());
        q.out_names = l.out_names;
        q.out_names.insert(q.out_names.end(), r.out_names.begin(),
                           r.out_names.end());
        for (size_t i = 0; i < node.left_keys.size(); ++i) {
          q.where.push_back(
              l.out_sql[static_cast<size_t>(node.left_keys[i])] + " = " +
              r.out_sql[static_cast<size_t>(node.right_keys[i])]);
        }
        if (node.residual) {
          q.where.push_back(RenderExpr(*node.residual, q.out_sql));
        }
        return q;
      }
      case PlanKind::kAggregate: {
        XDB_ASSIGN_OR_RETURN(FlatQuery q, Walk(*node.children[0]));
        if (q.has_aggregate || q.limit >= 0) {
          // Aggregate over an aggregate (or over a LIMITed input): wrap the
          // inner query as a derived table and aggregate over it.
          q = Collapse(std::move(q));
        }
        std::vector<std::string> sql, names;
        for (const auto& g : node.group_keys) {
          std::string rendered = RenderExpr(*g, q.out_sql);
          q.group_by.push_back(rendered);
          sql.push_back(rendered);
          names.push_back(g->OutputName());
        }
        for (const auto& a : node.aggregates) {
          sql.push_back(RenderExpr(*a, q.out_sql));
          names.push_back(a->OutputName());
        }
        q.out_sql = std::move(sql);
        q.out_names = std::move(names);
        q.has_aggregate = true;
        return q;
      }
      case PlanKind::kSort: {
        XDB_ASSIGN_OR_RETURN(FlatQuery q, Walk(*node.children[0]));
        for (const auto& [idx, desc] : node.sort_keys) {
          q.order_by.emplace_back(q.out_sql[static_cast<size_t>(idx)], desc);
        }
        return q;
      }
      case PlanKind::kLimit: {
        XDB_ASSIGN_OR_RETURN(FlatQuery q, Walk(*node.children[0]));
        q.limit = node.limit;
        return q;
      }
    }
    return Status::Internal("unknown plan kind in deparser");
  }

 private:
  /// Collapses a FlatQuery into a single derived-table FROM item whose
  /// columns are plain references into the subselect's output.
  FlatQuery Collapse(FlatQuery inner) {
    std::vector<std::string> names = UniquifyNames(inner.out_names);
    std::string alias = UniqueAlias("dq");
    FlatQuery out;
    FlatQuery::FromItem item;
    item.relation = AssembleSql(inner, names, dialect_);
    item.alias = alias;
    item.is_subquery = true;
    out.from.push_back(std::move(item));
    for (size_t i = 0; i < names.size(); ++i) {
      out.out_sql.push_back(alias + "." + dialect_.QuoteIdent(names[i]));
      out.out_names.push_back(inner.out_names[i]);
    }
    return out;
  }

  std::string UniqueAlias(const std::string& base) {
    std::string alias = ToLower(base);
    int suffix = 1;
    while (used_aliases_.count(alias)) {
      alias = ToLower(base) + "_" + std::to_string(++suffix);
    }
    used_aliases_.insert(alias);
    return alias;
  }

  const Dialect& dialect_;
  std::set<std::string> used_aliases_;
};

/// Makes output names unique and identifier-safe.
std::vector<std::string> UniquifyNames(const std::vector<std::string>& names) {
  std::vector<std::string> out;
  std::set<std::string> used;
  for (size_t i = 0; i < names.size(); ++i) {
    std::string base = ToLower(names[i]);
    // Derived expressions get positional names; identifiers pass through.
    bool ident = !base.empty() &&
                 (std::isalpha(static_cast<unsigned char>(base[0])) ||
                  base[0] == '_');
    for (char c : base) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        ident = false;
        break;
      }
    }
    if (!ident) base = "col_" + std::to_string(i + 1);
    std::string name = base;
    int suffix = 1;
    while (used.count(name)) name = base + "_" + std::to_string(++suffix);
    used.insert(name);
    out.push_back(name);
  }
  return out;
}

}  // namespace

Result<DeparsedQuery> DeparsePlan(const PlanNode& plan,
                                  const Dialect& dialect) {
  Flattener flattener(dialect);
  XDB_ASSIGN_OR_RETURN(FlatQuery q, flattener.Walk(plan));

  DeparsedQuery out;
  out.column_names = UniquifyNames(q.out_names);
  out.sql = AssembleSql(q, out.column_names, dialect);
  return out;
}

}  // namespace xdb
