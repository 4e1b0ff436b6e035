#include "src/sql/parser.h"

#include <cstdint>

#include "src/common/str_util.h"
#include "src/sql/lexer.h"

namespace xdb {
namespace sql {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<StatementPtr> ParseStatement() {
    auto stmt = std::make_shared<Statement>();
    if (MatchKeyword("EXPLAIN")) {
      stmt->kind = StatementKind::kExplain;
      stmt->explain_analyze = MatchKeyword("ANALYZE");
      XDB_ASSIGN_OR_RETURN(stmt->select, ParseSelectStmt());
      XDB_RETURN_NOT_OK(ExpectEnd());
      return stmt;
    }
    if (MatchKeyword("CREATE")) return ParseCreate();
    if (MatchKeyword("DROP")) return ParseDrop();
    stmt->kind = StatementKind::kSelect;
    XDB_ASSIGN_OR_RETURN(stmt->select, ParseSelectStmt());
    XDB_RETURN_NOT_OK(ExpectEnd());
    return stmt;
  }

  Result<SelectPtr> ParseSelectOnly() {
    XDB_ASSIGN_OR_RETURN(SelectPtr sel, ParseSelectStmt());
    XDB_RETURN_NOT_OK(ExpectEnd());
    return sel;
  }

 private:
  const Token& Peek(size_t off = 0) const {
    size_t i = pos_ + off;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool CheckKeyword(const char* kw, size_t off = 0) const {
    const Token& t = Peek(off);
    return t.type == TokenType::kKeyword && t.text == kw;
  }
  bool MatchKeyword(const char* kw) {
    if (CheckKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool CheckOp(const char* op, size_t off = 0) const {
    const Token& t = Peek(off);
    return t.type == TokenType::kOperator && t.text == op;
  }
  bool MatchOp(const char* op) {
    if (CheckOp(op)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ExpectKeyword(const char* kw) {
    if (!MatchKeyword(kw)) {
      return Status::ParseError(std::string("expected ") + kw + " near '" +
                                Peek().text + "' (offset " +
                                std::to_string(Peek().position) + ")");
    }
    return Status::OK();
  }
  Status ExpectOp(const char* op) {
    if (!MatchOp(op)) {
      return Status::ParseError(std::string("expected '") + op + "' near '" +
                                Peek().text + "' (offset " +
                                std::to_string(Peek().position) + ")");
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdentifier() {
    const Token& t = Peek();
    // Tolerate keywords used as identifiers in non-ambiguous spots (e.g. a
    // column named "date" or a relation named after a keyword).
    if (t.type == TokenType::kIdentifier ||
        t.type == TokenType::kKeyword) {
      ++pos_;
      return ToLower(t.text);
    }
    return Status::ParseError("expected identifier near '" + t.text +
                              "' (offset " + std::to_string(t.position) + ")");
  }
  Status ExpectEnd() {
    MatchOp(";");
    if (Peek().type != TokenType::kEnd) {
      return Status::ParseError("unexpected trailing input near '" +
                                Peek().text + "'");
    }
    return Status::OK();
  }

  // ---- statements ----

  Result<StatementPtr> ParseCreate() {
    auto stmt = std::make_shared<Statement>();
    MatchKeyword("MATERIALIZED");  // treated identically to a plain view
    if (MatchKeyword("VIEW")) {
      stmt->kind = StatementKind::kCreateView;
      XDB_ASSIGN_OR_RETURN(stmt->relation_name, ExpectIdentifier());
      XDB_RETURN_NOT_OK(ExpectKeyword("AS"));
      XDB_ASSIGN_OR_RETURN(stmt->select, ParseSelectStmt());
      XDB_RETURN_NOT_OK(ExpectEnd());
      return stmt;
    }
    if (MatchKeyword("FOREIGN")) {
      XDB_RETURN_NOT_OK(ExpectKeyword("TABLE"));
      stmt->kind = StatementKind::kCreateForeignTable;
      XDB_ASSIGN_OR_RETURN(stmt->relation_name, ExpectIdentifier());
      if (MatchOp("(")) {
        while (true) {
          XDB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
          stmt->column_names.push_back(std::move(col));
          if (!MatchOp(",")) break;
        }
        XDB_RETURN_NOT_OK(ExpectOp(")"));
      }
      XDB_RETURN_NOT_OK(ExpectKeyword("SERVER"));
      XDB_ASSIGN_OR_RETURN(stmt->server, ExpectIdentifier());
      if (MatchKeyword("OPTIONS")) {
        XDB_RETURN_NOT_OK(ExpectOp("("));
        while (true) {
          XDB_ASSIGN_OR_RETURN(std::string key, ExpectIdentifier());
          const Token& v = Peek();
          if (v.type != TokenType::kString) {
            return Status::ParseError("expected string option value near '" +
                                      v.text + "'");
          }
          ++pos_;
          if (key == "table" || key == "table_name") {
            stmt->remote_relation = ToLower(v.text);
          }
          if (!MatchOp(",")) break;
        }
        XDB_RETURN_NOT_OK(ExpectOp(")"));
      }
      if (stmt->remote_relation.empty()) {
        stmt->remote_relation = stmt->relation_name;
      }
      XDB_RETURN_NOT_OK(ExpectEnd());
      return stmt;
    }
    if (MatchKeyword("TABLE")) {
      stmt->kind = StatementKind::kCreateTableAs;
      XDB_ASSIGN_OR_RETURN(stmt->relation_name, ExpectIdentifier());
      XDB_RETURN_NOT_OK(ExpectKeyword("AS"));
      XDB_ASSIGN_OR_RETURN(stmt->select, ParseSelectStmt());
      XDB_RETURN_NOT_OK(ExpectEnd());
      return stmt;
    }
    return Status::ParseError("expected VIEW, TABLE or FOREIGN TABLE after "
                              "CREATE");
  }

  Result<StatementPtr> ParseDrop() {
    auto stmt = std::make_shared<Statement>();
    stmt->kind = StatementKind::kDrop;
    if (MatchKeyword("FOREIGN")) {
      XDB_RETURN_NOT_OK(ExpectKeyword("TABLE"));
      stmt->relation_kind = RelationKind::kForeignTable;
    } else if (MatchKeyword("VIEW")) {
      stmt->relation_kind = RelationKind::kView;
    } else if (MatchKeyword("TABLE")) {
      stmt->relation_kind = RelationKind::kTable;
    } else {
      return Status::ParseError("expected TABLE, VIEW or FOREIGN TABLE after "
                                "DROP");
    }
    if (MatchKeyword("IF")) {
      XDB_RETURN_NOT_OK(ExpectKeyword("EXISTS"));
      stmt->if_exists = true;
    }
    XDB_ASSIGN_OR_RETURN(stmt->relation_name, ExpectIdentifier());
    XDB_RETURN_NOT_OK(ExpectEnd());
    return stmt;
  }

  Result<SelectPtr> ParseSelectStmt() {
    XDB_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    auto sel = std::make_shared<SelectStmt>();
    if (MatchKeyword("DISTINCT")) {
      // Rejected rather than silently answered with duplicates.
      return Status::NotImplemented("SELECT DISTINCT is not supported");
    }
    if (MatchOp("*")) {
      sel->select_star = true;
    } else {
      while (true) {
        XDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        if (MatchKeyword("AS")) {
          // Alias may be an identifier or a quoted string (paper's example
          // query uses AS 'age_group').
          const Token& t = Peek();
          if (t.type == TokenType::kString) {
            e->alias = ToLower(t.text);
            ++pos_;
          } else {
            XDB_ASSIGN_OR_RETURN(e->alias, ExpectIdentifier());
          }
        } else if (Peek().type == TokenType::kIdentifier &&
                   !CheckKeyword("FROM")) {
          e->alias = ToLower(Advance().text);
        }
        sel->select_list.push_back(std::move(e));
        if (!MatchOp(",")) break;
      }
    }
    XDB_RETURN_NOT_OK(ExpectKeyword("FROM"));
    while (true) {
      XDB_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
      sel->from.push_back(std::move(ref));
      if (!MatchOp(",")) break;
    }
    if (MatchKeyword("WHERE")) {
      XDB_ASSIGN_OR_RETURN(sel->where, ParseExpr());
    }
    if (MatchKeyword("GROUP")) {
      XDB_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        XDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        sel->group_by.push_back(std::move(e));
        if (!MatchOp(",")) break;
      }
    }
    if (MatchKeyword("HAVING")) {
      XDB_ASSIGN_OR_RETURN(sel->having, ParseExpr());
    }
    if (MatchKeyword("ORDER")) {
      XDB_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        XDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (MatchKeyword("DESC")) {
          item.descending = true;
        } else {
          MatchKeyword("ASC");
        }
        sel->order_by.push_back(std::move(item));
        if (!MatchOp(",")) break;
      }
    }
    if (MatchKeyword("LIMIT")) {
      const Token& t = Peek();
      if (t.type != TokenType::kNumber || !t.is_integer) {
        return Status::ParseError("expected integer after LIMIT");
      }
      sel->limit = t.integer;
      ++pos_;
    }
    return sel;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    if (MatchOp("(")) {
      // Derived table: (SELECT ...) AS alias.
      XDB_ASSIGN_OR_RETURN(ref.subquery, ParseSelectStmt());
      XDB_RETURN_NOT_OK(ExpectOp(")"));
      MatchKeyword("AS");
      XDB_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
      return ref;
    }
    XDB_ASSIGN_OR_RETURN(std::string first, ExpectIdentifier());
    if (MatchOp(".")) {
      ref.db = std::move(first);
      XDB_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
    } else {
      ref.table = std::move(first);
    }
    if (MatchKeyword("AS")) {
      XDB_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = ToLower(Advance().text);
    }
    return ref;
  }

  // ---- expressions (precedence climbing) ----

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    XDB_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (MatchKeyword("OR")) {
      XDB_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Expr::Binary(BinaryOp::kOr, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    XDB_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (CheckKeyword("AND")) {
      ++pos_;
      XDB_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = Expr::Binary(BinaryOp::kAnd, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (MatchKeyword("NOT")) {
      XDB_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::Unary(UnaryOp::kNot, std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    XDB_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    // BETWEEN / LIKE / IN / IS, possibly NOT-prefixed.
    bool negated = false;
    size_t save = pos_;
    if (MatchKeyword("NOT")) {
      if (CheckKeyword("BETWEEN") || CheckKeyword("LIKE") ||
          CheckKeyword("IN")) {
        negated = true;
      } else {
        pos_ = save;
        return left;
      }
    }
    if (MatchKeyword("BETWEEN")) {
      XDB_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
      XDB_RETURN_NOT_OK(ExpectKeyword("AND"));
      XDB_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
      ExprPtr e = Expr::Between(std::move(left), std::move(lo), std::move(hi));
      return negated ? Expr::Unary(UnaryOp::kNot, std::move(e)) : e;
    }
    if (MatchKeyword("LIKE")) {
      XDB_ASSIGN_OR_RETURN(ExprPtr pat, ParseAdditive());
      ExprPtr e = Expr::Like(std::move(left), std::move(pat));
      return negated ? Expr::Unary(UnaryOp::kNot, std::move(e)) : e;
    }
    if (MatchKeyword("IN")) {
      XDB_RETURN_NOT_OK(ExpectOp("("));
      std::vector<ExprPtr> list;
      while (true) {
        XDB_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
        list.push_back(std::move(item));
        if (!MatchOp(",")) break;
      }
      XDB_RETURN_NOT_OK(ExpectOp(")"));
      ExprPtr e = Expr::InList(std::move(left), std::move(list));
      return negated ? Expr::Unary(UnaryOp::kNot, std::move(e)) : e;
    }
    if (MatchKeyword("IS")) {
      bool is_not = MatchKeyword("NOT");
      XDB_RETURN_NOT_OK(ExpectKeyword("NULL"));
      return Expr::Unary(is_not ? UnaryOp::kIsNotNull : UnaryOp::kIsNull,
                         std::move(left));
    }
    static const struct {
      const char* text;
      BinaryOp op;
    } kCmp[] = {{"=", BinaryOp::kEq},  {"<>", BinaryOp::kNe},
                {"<=", BinaryOp::kLe}, {">=", BinaryOp::kGe},
                {"<", BinaryOp::kLt},  {">", BinaryOp::kGt}};
    for (const auto& c : kCmp) {
      if (MatchOp(c.text)) {
        XDB_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Expr::Binary(c.op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    XDB_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      if (MatchOp("+")) {
        XDB_ASSIGN_OR_RETURN(ExprPtr r, ParseMultiplicative());
        left = Expr::Binary(BinaryOp::kAdd, std::move(left), std::move(r));
      } else if (MatchOp("-")) {
        XDB_ASSIGN_OR_RETURN(ExprPtr r, ParseMultiplicative());
        left = Expr::Binary(BinaryOp::kSub, std::move(left), std::move(r));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    XDB_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      if (MatchOp("*")) {
        XDB_ASSIGN_OR_RETURN(ExprPtr r, ParseUnary());
        left = Expr::Binary(BinaryOp::kMul, std::move(left), std::move(r));
      } else if (MatchOp("/")) {
        XDB_ASSIGN_OR_RETURN(ExprPtr r, ParseUnary());
        left = Expr::Binary(BinaryOp::kDiv, std::move(left), std::move(r));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (MatchOp("-")) {
      XDB_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      return Expr::Unary(UnaryOp::kNeg, std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    if (t.type == TokenType::kNumber) {
      ++pos_;
      if (t.is_integer) {
        return Expr::Literal(Value::Int64(t.integer));
      }
      return Expr::Literal(Value::Double(t.number));
    }
    if (t.type == TokenType::kString) {
      ++pos_;
      return Expr::Literal(Value::String(t.text));
    }
    if (MatchKeyword("NULL")) {
      return Expr::Literal(Value::Null(TypeId::kString));
    }
    if (MatchKeyword("TRUE")) return Expr::Literal(Value::Bool(true));
    if (MatchKeyword("FALSE")) return Expr::Literal(Value::Bool(false));
    if (CheckKeyword("DATE") && Peek(1).type == TokenType::kString) {
      ++pos_;
      const Token& d = Advance();
      XDB_ASSIGN_OR_RETURN(int64_t days, ParseDate(d.text));
      return Expr::Literal(Value::Date(days));
    }
    if (MatchKeyword("EXTRACT")) {
      XDB_RETURN_NOT_OK(ExpectOp("("));
      XDB_RETURN_NOT_OK(ExpectKeyword("YEAR"));
      // The FROM keyword inside EXTRACT.
      XDB_RETURN_NOT_OK(ExpectKeyword("FROM"));
      XDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      XDB_RETURN_NOT_OK(ExpectOp(")"));
      return Expr::Function("extract_year", {std::move(arg)});
    }
    if (MatchKeyword("CASE")) return ParseCase();
    // Aggregates.
    static const struct {
      const char* kw;
      AggKind kind;
    } kAggs[] = {{"SUM", AggKind::kSum},
                 {"AVG", AggKind::kAvg},
                 {"COUNT", AggKind::kCount},
                 {"MIN", AggKind::kMin},
                 {"MAX", AggKind::kMax}};
    for (const auto& a : kAggs) {
      if (CheckKeyword(a.kw) && CheckOp("(", 1)) {
        pos_ += 2;
        if (a.kind == AggKind::kCount && MatchOp("*")) {
          XDB_RETURN_NOT_OK(ExpectOp(")"));
          return Expr::Aggregate(AggKind::kCountStar, nullptr);
        }
        XDB_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
        XDB_RETURN_NOT_OK(ExpectOp(")"));
        return Expr::Aggregate(a.kind, std::move(arg));
      }
    }
    if (MatchOp("(")) {
      XDB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      XDB_RETURN_NOT_OK(ExpectOp(")"));
      return e;
    }
    if (t.type == TokenType::kIdentifier || t.type == TokenType::kKeyword) {
      // Scalar function call: ident '(' args ')'.
      if (t.type == TokenType::kIdentifier && CheckOp("(", 1)) {
        std::string name = ToLower(Advance().text);
        ++pos_;  // '('
        std::vector<ExprPtr> args;
        if (!CheckOp(")")) {
          while (true) {
            XDB_ASSIGN_OR_RETURN(ExprPtr a, ParseExpr());
            args.push_back(std::move(a));
            if (!MatchOp(",")) break;
          }
        }
        XDB_RETURN_NOT_OK(ExpectOp(")"));
        return Expr::Function(std::move(name), std::move(args));
      }
      XDB_ASSIGN_OR_RETURN(std::string first, ExpectIdentifier());
      if (MatchOp(".")) {
        XDB_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        return Expr::Column(std::move(first), std::move(col));
      }
      return Expr::Column("", std::move(first));
    }
    return Status::ParseError("unexpected token '" + t.text + "' at offset " +
                              std::to_string(t.position));
  }

  Result<ExprPtr> ParseCase() {
    std::vector<ExprPtr> pairs;
    while (MatchKeyword("WHEN")) {
      XDB_ASSIGN_OR_RETURN(ExprPtr cond, ParseExpr());
      XDB_RETURN_NOT_OK(ExpectKeyword("THEN"));
      XDB_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
      pairs.push_back(std::move(cond));
      pairs.push_back(std::move(then));
    }
    if (pairs.empty()) {
      return Status::ParseError("CASE requires at least one WHEN clause");
    }
    ExprPtr else_expr;
    if (MatchKeyword("ELSE")) {
      XDB_ASSIGN_OR_RETURN(else_expr, ParseExpr());
    }
    XDB_RETURN_NOT_OK(ExpectKeyword("END"));
    return Expr::Case(std::move(pairs), std::move(else_expr));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<StatementPtr> ParseStatement(const std::string& text) {
  XDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<SelectPtr> ParseSelect(const std::string& text) {
  XDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseSelectOnly();
}

}  // namespace sql
}  // namespace xdb
