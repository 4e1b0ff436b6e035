#include "src/plan/plan.h"

#include <algorithm>

#include "src/plan/estimator.h"

namespace xdb {

const char* MovementToString(Movement m) {
  return m == Movement::kImplicit ? "implicit" : "explicit";
}

const char* ComparisonKindToString(ComparisonKind c) {
  switch (c) {
    case ComparisonKind::kNone:
      return "none";
    case ComparisonKind::kEquality:
      return "equality";
    case ComparisonKind::kRange:
      return "range";
    case ComparisonKind::kLike:
      return "like";
  }
  return "none";
}

namespace {

/// Sets an inner node's estimate from its children's, once it is built.
PlanPtr Estimated(PlanPtr n) {
  n->estimate =
      std::make_shared<const PlanEstimate>(Estimator().EstimateWithInputs(*n));
  return n;
}

}  // namespace

void AddOutputFields(const std::vector<ExprPtr>& exprs, Schema* schema) {
  for (const auto& e : exprs) schema->AddField({e->OutputName(), InferType(e)});
}

PlanPtr PlanNode::MakeScan(std::string db, std::string table,
                           std::string alias, Schema schema,
                           const TableStats& stats) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kScan;
  n->db = std::move(db);
  n->table = std::move(table);
  n->alias = std::move(alias);
  n->output_qualifiers.assign(schema.num_fields(),
                              n->alias.empty() ? n->table : n->alias);
  n->estimate = std::make_shared<const PlanEstimate>(
      Estimator().EstimateScan(stats, schema.num_fields()));
  n->output_schema = std::move(schema);
  return n;
}

PlanPtr PlanNode::MakeFilter(PlanPtr child, ExprPtr predicate) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kFilter;
  n->output_schema = child->output_schema;
  n->output_qualifiers = child->output_qualifiers;
  n->children = {std::move(child)};
  n->predicate = std::move(predicate);
  return Estimated(std::move(n));
}

PlanPtr PlanNode::MakeProject(PlanPtr child, std::vector<ExprPtr> exprs) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kProject;
  Schema schema;
  AddOutputFields(exprs, &schema);
  std::vector<std::string> quals;
  for (const auto& e : exprs) {
    // A pass-through column keeps its qualifier so that later binding by
    // alias (e.g. in residual join predicates) still works.
    if (e->kind == ExprKind::kColumnRef && e->alias.empty() &&
        e->column_index >= 0) {
      quals.push_back(child->output_qualifiers[
          static_cast<size_t>(e->column_index)]);
    } else {
      quals.push_back("");
    }
  }
  n->output_schema = std::move(schema);
  n->output_qualifiers = std::move(quals);
  n->children = {std::move(child)};
  n->exprs = std::move(exprs);
  return Estimated(std::move(n));
}

PlanPtr PlanNode::MakeJoin(PlanPtr left, PlanPtr right,
                           std::vector<int> left_keys,
                           std::vector<int> right_keys, ExprPtr residual) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kJoin;
  n->output_schema = Schema::Concat(left->output_schema,
                                    right->output_schema);
  n->output_qualifiers = left->output_qualifiers;
  n->output_qualifiers.insert(n->output_qualifiers.end(),
                              right->output_qualifiers.begin(),
                              right->output_qualifiers.end());
  n->children = {std::move(left), std::move(right)};
  n->left_keys = std::move(left_keys);
  n->right_keys = std::move(right_keys);
  n->residual = std::move(residual);
  return Estimated(std::move(n));
}

PlanPtr PlanNode::MakeAggregate(PlanPtr child,
                                std::vector<ExprPtr> group_keys,
                                std::vector<ExprPtr> aggregates) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kAggregate;
  AddOutputFields(group_keys, &n->output_schema);
  AddOutputFields(aggregates, &n->output_schema);
  n->output_qualifiers.assign(n->output_schema.num_fields(), "");
  n->children = {std::move(child)};
  n->group_keys = std::move(group_keys);
  n->aggregates = std::move(aggregates);
  return Estimated(std::move(n));
}

PlanPtr PlanNode::MakeSort(PlanPtr child,
                           std::vector<std::pair<int, bool>> sort_keys) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kSort;
  n->output_schema = child->output_schema;
  n->output_qualifiers = child->output_qualifiers;
  n->children = {std::move(child)};
  n->sort_keys = std::move(sort_keys);
  return Estimated(std::move(n));
}

PlanPtr PlanNode::MakeLimit(PlanPtr child, int64_t limit) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kLimit;
  n->output_schema = child->output_schema;
  n->output_qualifiers = child->output_qualifiers;
  n->children = {std::move(child)};
  n->limit = limit;
  return Estimated(std::move(n));
}

PlanPtr PlanNode::MakePlaceholder(std::string name, Schema schema,
                                  std::vector<std::string> qualifiers,
                                  double est_rows) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kPlaceholder;
  n->placeholder_name = std::move(name);
  n->output_schema = std::move(schema);
  n->output_qualifiers = std::move(qualifiers);
  if (n->output_qualifiers.empty()) {
    n->output_qualifiers.assign(n->output_schema.num_fields(), "");
  }
  n->estimate = std::make_shared<const PlanEstimate>(
      Estimator().EstimatePlaceholder(est_rows,
                                      n->output_schema.num_fields()));
  return n;
}

PlanPtr PlanNode::Clone() const {
  auto n = std::make_shared<PlanNode>(*this);
  for (auto& c : n->children) c = c->Clone();
  if (n->predicate) n->predicate = n->predicate->Clone();
  if (n->residual) n->residual = n->residual->Clone();
  for (auto& e : n->exprs) e = e->Clone();
  for (auto& e : n->group_keys) e = e->Clone();
  for (auto& e : n->aggregates) e = e->Clone();
  return n;
}

std::string PlanNode::Label() const {
  std::string out;
  switch (kind) {
    case PlanKind::kScan:
      out += "Scan(" + db + "." + table;
      if (!alias.empty() && alias != table) out += " AS " + alias;
      out += ")";
      break;
    case PlanKind::kFilter:
      out += "Filter(" + predicate->ToSql() + ")";
      break;
    case PlanKind::kProject: {
      out += "Project(";
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (i > 0) out += ", ";
        out += exprs[i]->ToSql();
      }
      out += ")";
      break;
    }
    case PlanKind::kJoin: {
      out += "Join(";
      for (size_t i = 0; i < left_keys.size(); ++i) {
        if (i > 0) out += " AND ";
        out += children[0]->output_schema.field(
                   static_cast<size_t>(left_keys[i])).name +
               " = " +
               children[1]->output_schema.field(
                   static_cast<size_t>(right_keys[i])).name;
      }
      if (residual) out += " residual: " + residual->ToSql();
      out += ")";
      break;
    }
    case PlanKind::kAggregate: {
      out += "Aggregate(keys: ";
      for (size_t i = 0; i < group_keys.size(); ++i) {
        if (i > 0) out += ", ";
        out += group_keys[i]->ToSql();
      }
      out += "; aggs: ";
      for (size_t i = 0; i < aggregates.size(); ++i) {
        if (i > 0) out += ", ";
        out += aggregates[i]->ToSql();
      }
      out += ")";
      break;
    }
    case PlanKind::kSort:
      out += "Sort";
      break;
    case PlanKind::kLimit:
      out += "Limit(" + std::to_string(limit) + ")";
      break;
    case PlanKind::kPlaceholder:
      out += "?(" + placeholder_name + ")";
      break;
  }
  if (!annotation.empty()) out += " @" + annotation;
  return out;
}

std::string PlanNode::ToString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += Label();
  out += "\n";
  for (const auto& c : children) out += c->ToString(indent + 1);
  return out;
}

std::string PlanNode::ToAlgebraString() const {
  switch (kind) {
    case PlanKind::kScan: {
      // Abbreviate in the paper's style: first letter(s) of the table.
      return table;
    }
    case PlanKind::kFilter:
      return "s(" + children[0]->ToAlgebraString() + ")";
    case PlanKind::kProject:
      return "p(" + children[0]->ToAlgebraString() + ")";
    case PlanKind::kJoin:
      return "join(" + children[0]->ToAlgebraString() + "," +
             children[1]->ToAlgebraString() + ")";
    case PlanKind::kAggregate:
      return "agg(" + children[0]->ToAlgebraString() + ")";
    case PlanKind::kSort:
      return "sort(" + children[0]->ToAlgebraString() + ")";
    case PlanKind::kLimit:
      return "limit(" + children[0]->ToAlgebraString() + ")";
    case PlanKind::kPlaceholder:
      return "?";
  }
  return "?";
}

namespace {

/// Strongest comparison anywhere in `e`.
ComparisonKind ClassOf(const Expr& e) {
  if (e.kind == ExprKind::kLike) return ComparisonKind::kLike;
  const bool binary = e.kind == ExprKind::kBinary;
  const BinaryOp op = e.binary_op;
  ComparisonKind c = ComparisonKind::kNone;
  if (e.kind == ExprKind::kBetween ||
      (binary && (op == BinaryOp::kLt || op == BinaryOp::kLe ||
                  op == BinaryOp::kGt || op == BinaryOp::kGe))) {
    c = ComparisonKind::kRange;
  } else if (e.kind == ExprKind::kInList ||
             (binary && (op == BinaryOp::kEq || op == BinaryOp::kNe))) {
    c = ComparisonKind::kEquality;
  }
  for (const auto& child : e.children) c = std::max(c, ClassOf(*child));
  return c;
}

void CollectDatabases(const PlanNode& node, std::vector<std::string>* out) {
  if (node.kind == PlanKind::kScan && !node.db.empty()) {
    if (std::find(out->begin(), out->end(), node.db) == out->end()) {
      out->push_back(node.db);
    }
  }
  for (const auto& c : node.children) CollectDatabases(*c, out);
}
}  // namespace

ComparisonKind PlanNode::predicate_class() const {
  if (kind == PlanKind::kFilter) return ClassOf(*predicate);
  if (kind != PlanKind::kJoin) return ComparisonKind::kNone;
  ComparisonKind c = left_keys.empty() ? ComparisonKind::kNone
                                       : ComparisonKind::kEquality;
  return residual ? std::max(c, ClassOf(*residual)) : c;
}

std::vector<std::string> PlanNode::ReferencedDatabases() const {
  std::vector<std::string> out;
  CollectDatabases(*this, &out);
  return out;
}

}  // namespace xdb
