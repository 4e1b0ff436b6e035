// Differential guard for the executor: a seeded generator builds
// single-server tables that hit every column encoding (RLE, frame of
// reference, plain ints/doubles/strings, dictionary, boxed) and queries that
// cover every operator and expression shape. Each case runs at exec_threads
// 1 and 4, and both runs must reproduce the digest recorded for the case.
//
// The digest is FNV-1a over the result's schema and its exact row sequence
// (type tag, null flag, int64 payload, double bit pattern, string bytes), so
// a change to any answer, row order, NULL type tag or double bit shows up.
// The generator draws from its own splitmix64 stream, so the cases do not
// depend on the standard library's distributions.
//
// A mismatch prints a one-line reproducer: the case seed and its SQL, plus
// the digest the case produced. After an intended behaviour change, each
// reported `got=` value replaces kExpected[seed - kSeedBase].

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/dbms/federation.h"
#include "src/dbms/server.h"
#include "src/exec/executor.h"
#include "src/plan/stats.h"
#include "src/sql/parser.h"
#include "tests/bind_check.h"

namespace xdb {
namespace {

constexpr int kCases = 1100;
constexpr int kShards = 4;
constexpr uint64_t kSeedBase = 0x5eed0000;

extern const uint64_t kExpected[kCases];

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    s_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = s_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(int pct) { return static_cast<int>(Next() % 100) < pct; }
  const char* Pick(const std::vector<const char*>& v) {
    return v[Next() % v.size()];
  }

 private:
  uint64_t s_;
};

class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

uint64_t DigestOf(const Table& t) {
  Fnv f;
  f.U64(t.schema().num_fields());
  for (const Field& field : t.schema().fields()) {
    f.Str(field.name);
    f.U64(static_cast<uint64_t>(field.type));
  }
  f.U64(t.num_rows());
  for (const Row& row : t.rows()) {
    f.U64(row.size());
    for (const Value& v : row) {
      f.U64(static_cast<uint64_t>(v.type()));
      f.U64(v.is_null() ? 1 : 0);
      f.U64(static_cast<uint64_t>(v.int64_value()));
      const double d = v.double_value();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      f.U64(bits);
      f.Str(v.string_value());
    }
  }
  return f.value();
}

// ---------------------------------------------------------------------------
// Tables. Every table has the same eight columns, prefixed by its letter:
//   k  sorted int64 in runs of 1-40 (RLE for long runs, else FOR)
//   n  narrow-range int64, optionally NULL-heavy (FOR)
//   w  wide-range int64 (plain)
//   d  double with -0.0 and 0.0 lanes, optionally NULL-heavy (plain)
//   s  low-cardinality string, optionally NULL-heavy (dictionary)
//   h  high-cardinality string (plain)
//   m  int64 holding one double lane, sometimes a double-tagged NULL (boxed)
//   t  date, optionally NULL-heavy (FOR)
// ---------------------------------------------------------------------------

const std::vector<const char*> kModes = {"AIR", "MAIL", "SHIP", "TRUCK",
                                         "RAIL", "REG AIR", ""};

// Operands of `+` and function arguments are unsequenced, so every draw from
// the generator below is its own statement: the cases must not depend on the
// compiler's evaluation order.

TablePtr MakeTable(Rng* rng, char p, size_t n) {
  auto name = [p](const char* c) { return std::string(1, p) + "_" + c; };
  auto t = std::make_shared<Table>(Schema({{name("k"), TypeId::kInt64},
                                           {name("n"), TypeId::kInt64},
                                           {name("w"), TypeId::kInt64},
                                           {name("d"), TypeId::kDouble},
                                           {name("s"), TypeId::kString},
                                           {name("h"), TypeId::kString},
                                           {name("m"), TypeId::kInt64},
                                           {name("t"), TypeId::kDate}}));
  const int null_pct[] = {0, 10, 60};
  // Long runs make `k` run-length encoded, short ones frame-of-reference.
  const int64_t runs[] = {1, 2, 8, 16, 40};
  const int64_t run = runs[rng->Range(0, 4)];
  const int pn = null_pct[rng->Range(0, 2)];
  const int pd = null_pct[rng->Range(0, 2)];
  const int ps = null_pct[rng->Range(0, 2)];
  const int pt = null_pct[rng->Range(0, 2)];
  const int64_t n_base = rng->Range(0, 3) * 100;
  const int64_t last = static_cast<int64_t>(n) - 1;
  const size_t double_lane =
      n > 0 ? static_cast<size_t>(rng->Range(0, last)) : 0;
  const bool double_is_integral = rng->Chance(50);
  const bool odd_null = rng->Chance(30);
  const int64_t wide = int64_t{1} << 33;
  for (size_t i = 0; i < n; ++i) {
    Row row(8);
    row[0] = Value::Int64(static_cast<int64_t>(i) / run);
    const bool n_null = rng->Chance(pn);
    const int64_t n_val = n_base + rng->Range(0, 200);
    row[1] = n_null ? Value::Null(TypeId::kInt64) : Value::Int64(n_val);
    row[2] = Value::Int64(rng->Range(-wide, wide));
    const bool d_null = rng->Chance(pd);
    const int64_t d_pick = rng->Range(0, 9);
    const int64_t d_val = rng->Range(-4000, 4000);
    row[3] = d_null        ? Value::Null(TypeId::kDouble)
             : d_pick == 0 ? Value::Double(-0.0)
             : d_pick == 1 ? Value::Double(0.0)
                           : Value::Double(static_cast<double>(d_val) / 8.0);
    const bool s_null = rng->Chance(ps);
    const char* mode = rng->Pick(kModes);
    row[4] = s_null ? Value::Null(TypeId::kString) : Value::String(mode);
    const int64_t h_val = rng->Range(0, 10 * static_cast<int64_t>(n) + 99);
    const bool h_short = rng->Chance(50);
    row[5] =
        Value::String("h" + std::to_string(h_val) + (h_short ? "x" : "ab"));
    const int64_t m_val = rng->Range(0, 50);
    if (i == double_lane) {
      row[6] = Value::Double(double_is_integral ? 7.0 : 2.5);
    } else if (odd_null && i == n / 2) {
      row[6] = Value::Null(TypeId::kDouble);
    } else {
      row[6] = Value::Int64(m_val);
    }
    const bool t_null = rng->Chance(pt);
    const int64_t t_val = rng->Range(9000, 10500);
    row[7] = t_null ? Value::Null(TypeId::kDate) : Value::Date(t_val);
    t->AppendRow(std::move(row));
  }
  return t;
}

// Concatenates pieces that were each drawn in their own statement.
std::string Cat(std::initializer_list<std::string> parts) {
  std::string out;
  for (const std::string& p : parts) out += p;
  return out;
}

// ---------------------------------------------------------------------------
// Expressions. `ps` lists the table letters whose columns may appear.
// ---------------------------------------------------------------------------

struct Gen {
  Rng* rng;
  std::string ps;  // table letters in scope
  bool big = false;

  std::string Col(const char* c) {
    return std::string(1, ps[rng->Next() % ps.size()]) + "_" + c;
  }
  std::string IntLit() { return std::to_string(rng->Range(-20, 100)); }
  std::string DoubleLit() {
    const int64_t q = rng->Range(-320, 320);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", static_cast<double>(q) / 4.0);
    return buf;
  }
  std::string DateLit() {
    return "DATE '" + FormatDate(rng->Range(8990, 10510)) + "'";
  }
  std::string StrLit() { return std::string("'") + rng->Pick(kModes) + "'"; }

  // Numeric atom; `small` excludes the wide column (keeps products and
  // sums far from int64 overflow).
  std::string NumAtom(bool small = false) {
    switch (rng->Range(0, small ? 5 : 7)) {
      case 0: return Col("k");
      case 1: return Col("n");
      case 2: return Col("m");
      case 3: return IntLit();
      case 4: return DoubleLit();
      case 5: return Col("d");
      default: return Col("w");
    }
  }

  std::string Num(int depth) {
    if (depth <= 0) return NumAtom();
    switch (rng->Range(0, 12)) {
      case 0: {
        std::string l = Num(depth - 1);
        std::string r = Num(depth - 1);
        return Cat({"(", l, " + ", r, ")"});
      }
      case 1: {
        std::string l = Num(depth - 1);
        std::string r = NumAtom();
        return Cat({"(", l, " - ", r, ")"});
      }
      case 2: {
        std::string l = NumAtom();
        std::string r = NumAtom(true);
        return Cat({"(", l, " * ", r, ")"});
      }
      case 3: {
        std::string l = Num(depth - 1);
        std::string r = NumAtom();
        return Cat({"(", l, " / ", r, ")"});
      }
      case 4: return "(- " + NumAtom() + ")";
      case 5: return "abs(" + Num(depth - 1) + ")";
      case 6: {
        const bool digits = rng->Chance(50);
        std::string arg = Num(depth - 1);
        if (!digits) return "round(" + arg + ")";
        return Cat({"round(", arg, ", ", std::to_string(rng->Range(0, 2)),
                    ")"});
      }
      case 7: {
        std::string col = Col(rng->Chance(50) ? "n" : "d");
        std::string alt = NumAtom();
        return Cat({"coalesce(", col, ", ", alt, ")"});
      }
      case 8: {
        const bool has_else = rng->Chance(70);
        std::string cond = Pred(depth - 1);
        std::string then = NumAtom();
        if (!has_else) return Cat({"CASE WHEN ", cond, " THEN ", then, " END"});
        std::string other = NumAtom();
        return Cat({"CASE WHEN ", cond, " THEN ", then, " ELSE ", other,
                    " END"});
      }
      case 9: return "EXTRACT(YEAR FROM " + Col("t") + ")";
      case 10: {
        std::string col = Col("t");
        return Cat({"(", col, " + ", std::to_string(rng->Range(-40, 40)),
                    ")"});
      }
      default: return NumAtom();
    }
  }

  std::string Str(int depth) {
    switch (rng->Range(0, depth > 0 ? 5 : 1)) {
      case 0: return Col("s");
      case 1: return Col("h");
      case 2: {
        std::string col = Col(rng->Chance(50) ? "h" : "s");
        std::string from = std::to_string(rng->Range(0, 3));
        std::string len = std::to_string(rng->Range(0, 4));
        return Cat({"substring(", col, ", ", from, ", ", len, ")"});
      }
      case 3: return "coalesce(" + Col("s") + ", 'none')";
      case 4: {
        std::string cond = Pred(depth - 1);
        std::string then = Col("s");
        std::string other = Col("h");
        return Cat({"CASE WHEN ", cond, " THEN ", then, " ELSE ", other,
                    " END"});
      }
      default: return StrLit();
    }
  }

  std::string CmpOp() {
    return rng->Pick({"=", "<>", "<", "<=", ">", ">="});
  }

  std::string Pred(int depth) {
    switch (rng->Range(0, depth > 0 ? 14 : 10)) {
      case 0: {
        std::string l = Num(depth > 0 ? 1 : 0);
        std::string op = CmpOp();
        std::string r = NumAtom();
        return Cat({l, " ", op, " ", r});
      }
      case 1: {
        std::string l = Col("s");
        std::string op = CmpOp();
        return Cat({l, " ", op, " ", StrLit()});
      }
      case 2: {
        std::string l = Col("t");
        std::string op = CmpOp();
        return Cat({l, " ", op, " ", DateLit()});
      }
      case 3: {
        std::string col = Col("n");
        const int64_t lo = rng->Range(-50, 450);
        const int64_t hi = lo + rng->Range(0, 300);
        return Cat({col, " BETWEEN ", std::to_string(lo), " AND ",
                    std::to_string(hi)});
      }
      case 4: {
        // Ordered bounds, so the range is not empty by construction.
        if (rng->Chance(50)) {
          std::string col = Col("t");
          const int64_t lo = rng->Range(8990, 10510);
          const int64_t hi = lo + rng->Range(0, 400);
          return Cat({col, " BETWEEN DATE '", FormatDate(lo), "' AND DATE '",
                      FormatDate(hi), "'"});
        }
        std::string col = Col("d");
        const int64_t lo = rng->Range(-320, 320);
        const int64_t hi = lo + rng->Range(0, 200);
        return Cat({col, " BETWEEN ", std::to_string(lo / 4), " AND ",
                    std::to_string(hi / 4)});
      }
      case 5:
        switch (rng->Range(0, 2)) {
          case 0: {
            std::string col = Col("s");
            const bool neg = rng->Chance(30);
            std::string a = StrLit();
            std::string b = StrLit();
            return Cat({col, neg ? " NOT IN (" : " IN (", a, ", NULL, ", b,
                        ")"});
          }
          case 1: {
            std::string col = Col("n");
            std::string a = IntLit();
            std::string b = std::to_string(rng->Range(0, 500));
            return Cat({col, " IN (", a, ", NULL, ", b, ")"});
          }
          default: {
            std::string col = Col("m");
            return Cat({col, " IN (2.5, 7, ", IntLit(), ")"});
          }
        }
      case 6: {
        std::string col = Col(rng->Chance(50) ? "h" : "s");
        const bool neg = rng->Chance(25);
        std::string pat =
            rng->Pick({"h1%", "%x", "%AI%", "R_IL", "h%b", "_", "%"});
        return Cat({col, neg ? " NOT LIKE '" : " LIKE '", pat, "'"});
      }
      case 7: {
        std::string col = Col(rng->Pick({"n", "d", "s", "t", "m"}));
        return col + (rng->Chance(50) ? " IS NULL" : " IS NOT NULL");
      }
      case 8: {
        std::string col = Col("n");
        std::string op = CmpOp();
        return Cat({"coalesce(", col, ", -1) ", op, " ",
                    std::to_string(rng->Range(-5, 500))});
      }
      case 9: {
        std::string col = Col("t");
        std::string op = CmpOp();
        return Cat({"EXTRACT(YEAR FROM ", col, ") ", op, " ",
                    std::to_string(rng->Range(1994, 1998))});
      }
      case 10: {
        std::string l = Str(0);
        std::string op = CmpOp();
        std::string r = Str(0);
        return Cat({l, " ", op, " ", r});
      }
      case 11: {
        std::string l = Pred(depth - 1);
        std::string r = Pred(depth - 1);
        return Cat({"(", l, " AND ", r, ")"});
      }
      case 12: {
        std::string l = Pred(depth - 1);
        std::string r = Pred(depth - 1);
        return Cat({"(", l, " OR ", r, ")"});
      }
      case 13: return "NOT (" + Pred(depth - 1) + ")";
      default: return "(" + Num(depth - 1) + ") IS NULL";
    }
  }

  std::string Agg() {
    switch (rng->Range(0, 8)) {
      case 0: return "COUNT(*)";
      case 1: return "COUNT(" + Col(rng->Pick({"n", "s", "d", "m"})) + ")";
      case 2: return "SUM(" + Col(rng->Pick({"k", "n", "w", "d", "m"})) + ")";
      case 3: return "SUM(" + Num(1) + ")";
      case 4: return "AVG(" + Col(rng->Pick({"n", "w", "d", "m"})) + ")";
      case 5:
        return "MIN(" + Col(rng->Pick({"n", "d", "s", "h", "t", "m"})) + ")";
      case 6:
        return "MAX(" + Col(rng->Pick({"n", "d", "s", "h", "t", "m"})) + ")";
      case 7: return "AVG(" + Num(1) + ")";
      default: return "(SUM(" + Col("n") + ") / COUNT(*))";
    }
  }

  std::string GroupKey() {
    std::vector<const char*> keys = {"s", "n", "t", "m", "d", "k"};
    if (!big) keys.push_back("h");
    const int64_t pick = rng->Range(0, static_cast<int64_t>(keys.size()));
    if (pick == static_cast<int64_t>(keys.size())) {
      return "EXTRACT(YEAR FROM " + Col("t") + ")";
    }
    return Col(keys[static_cast<size_t>(pick)]);
  }

  std::string SelectItem() {
    switch (rng->Range(0, 5)) {
      case 0: return Col(rng->Pick({"k", "n", "w", "d", "s", "h", "m", "t"}));
      case 1: return Num(2);
      case 2: return Str(1);
      case 3: return "(" + Pred(1) + ")";
      default: return Num(1);
    }
  }
};

// ---------------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------------

struct Case {
  uint64_t seed = 0;
  TablePtr ta, tb;
  std::string sql;
  // Plan-level join with a residual (the SQL planner puts cross-relation
  // non-equi conjuncts in a Filter above the join, so this is the only way
  // to drive the join's own residual path).
  bool plan_join = false;
  std::vector<int> left_keys, right_keys;
  std::string residual;
};

std::string JoinKeys(Gen* g, std::vector<int>* lk, std::vector<int>* rk) {
  // Column index in the fixed layout: k n w d s h m t.
  static const std::map<char, int> kIdx = {{'k', 0}, {'n', 1}, {'w', 2},
                                           {'d', 3}, {'s', 4}, {'h', 5},
                                           {'m', 6}, {'t', 7}};
  std::vector<std::pair<char, char>> pairs;
  switch (g->rng->Range(0, 8)) {
    case 0: pairs = {{'k', 'k'}}; break;
    case 1: pairs = {{'n', 'n'}}; break;
    case 2: pairs = {{'t', 't'}}; break;
    case 3: pairs = {{'m', 'm'}}; break;
    case 4: pairs = {{'k', 'k'}, {'s', 's'}}; break;
    case 5: pairs = {{'n', 'n'}, {'s', 's'}}; break;
    case 6: pairs = {{'d', 'd'}}; break;
    case 7: pairs = {{'k', 'd'}}; break;
    default: pairs = {{'m', 'm'}, {'k', 'k'}}; break;
  }
  std::string out;
  for (const auto& [a, b] : pairs) {
    if (!out.empty()) out += " AND ";
    out += std::string("a_") + a + " = b_" + b;
    lk->push_back(kIdx.at(a));
    rk->push_back(kIdx.at(b));
  }
  return out;
}

std::string SelectList(Gen* g, std::vector<std::string>* aliases) {
  std::string out;
  const int64_t n = g->rng->Range(1, 4);
  for (int64_t i = 0; i < n; ++i) {
    if (i) out += ", ";
    const std::string alias = "c" + std::to_string(i);
    out += g->SelectItem() + " AS " + alias;
    aliases->push_back(alias);
  }
  return out;
}

std::string OrderLimit(Gen* g, const std::vector<std::string>& aliases) {
  std::string out;
  if (g->rng->Chance(60)) {
    out += " ORDER BY ";
    for (size_t i = 0; i < aliases.size(); ++i) {
      if (i) out += ", ";
      out += aliases[(i + g->rng->Next()) % aliases.size()];
      if (g->rng->Chance(40)) out += " DESC";
    }
  }
  if (g->rng->Chance(50)) {
    out += " LIMIT " + std::to_string(g->rng->Range(0, 40));
  }
  return out;
}

// FROM clause for table `a`: the base table or a derived table over it that
// re-exposes the same column names (some transformed, same types).
std::string FromA(Gen* g) {
  if (!g->rng->Chance(20)) return "ta";
  Gen inner{g->rng, "a", g->big};
  const bool shift_n = g->rng->Chance(50);
  const bool scale_d = g->rng->Chance(50);
  std::string sel = std::string("a_k, ") +
                    (shift_n ? "a_n + 1 AS a_n" : "a_n") + ", a_w, " +
                    (scale_d ? "a_d * 2 AS a_d" : "a_d") +
                    ", a_s, a_h, a_m, a_t";
  const bool filtered = g->rng->Chance(70);
  std::string where = filtered ? " WHERE " + inner.Pred(1) : std::string();
  return "(SELECT " + sel + " FROM ta" + where + ") AS dv";
}

Case MakeCase(int index) {
  Case c;
  c.seed = kSeedBase + static_cast<uint64_t>(index);
  Rng rng(c.seed);
  const bool big = index % 10 == 7;
  auto rows = [&](bool allow_big) -> size_t {
    if (allow_big && big) return static_cast<size_t>(rng.Range(20000, 24000));
    if (rng.Chance(6)) return 0;
    return static_cast<size_t>(rng.Range(1, 300));
  };
  const size_t na = rows(true);
  const size_t nb = rows(false);
  c.ta = MakeTable(&rng, 'a', na);
  c.tb = MakeTable(&rng, 'b', nb);

  Gen ga{&rng, "a", big};
  Gen gab{&rng, "ab", big};
  std::vector<std::string> aliases;
  switch (rng.Range(0, 9)) {
    case 0:
    case 1: {  // filter + project
      std::string from = FromA(&ga);
      std::string list = SelectList(&ga, &aliases);
      std::string where;
      if (!rng.Chance(25)) {
        const int depth = rng.Chance(50) ? 1 : 2;
        where = " WHERE " + ga.Pred(depth);
      }
      std::string tail = OrderLimit(&ga, aliases);
      c.sql = Cat({"SELECT ", list, " FROM ", from, where, tail});
      break;
    }
    case 2: {  // grouped aggregate, optional HAVING
      std::string from = FromA(&ga);
      const int64_t nk = rng.Range(1, 2);
      std::string sel, group;
      for (int64_t i = 0; i < nk; ++i) {
        std::string key = ga.GroupKey();
        sel += key + " AS g" + std::to_string(i) + ", ";
        group += (i ? ", " : "") + key;
        aliases.push_back("g" + std::to_string(i));
      }
      const int64_t naggs = rng.Range(0, 3);
      for (int64_t i = 0; i < naggs; ++i) {
        sel += ga.Agg() + " AS a" + std::to_string(i) + ", ";
        aliases.push_back("a" + std::to_string(i));
      }
      sel.resize(sel.size() - 2);
      std::string where;
      if (rng.Chance(50)) where = " WHERE " + ga.Pred(1);
      std::string having;
      if (rng.Chance(40)) {
        if (rng.Chance(50)) {
          having = " HAVING COUNT(*) > " + std::to_string(rng.Range(0, 3));
        } else {
          std::string agg = ga.Agg();
          having = Cat({" HAVING ", agg, " > ", ga.IntLit()});
        }
      }
      std::string tail = OrderLimit(&ga, aliases);
      c.sql = Cat({"SELECT ", sel, " FROM ", from, where, " GROUP BY ", group,
                   having, tail});
      break;
    }
    case 3: {  // global aggregate (one row, even over empty input)
      std::string from = FromA(&ga);
      std::string sel;
      const int64_t n = rng.Range(1, 4);
      for (int64_t i = 0; i < n; ++i) {
        sel += (i ? ", " : "") + ga.Agg() + " AS a" + std::to_string(i);
      }
      std::string where;
      if (rng.Chance(70)) where = " WHERE " + ga.Pred(2);
      c.sql = Cat({"SELECT ", sel, " FROM ", from, where});
      break;
    }
    case 4:
    case 5: {  // equi-join with residual conjuncts
      std::vector<int> lk, rk;
      std::string from = FromA(&ga);
      std::string keys = JoinKeys(&gab, &lk, &rk);
      std::string list = SelectList(&gab, &aliases);
      std::string where = keys;
      if (rng.Chance(70)) where += " AND " + gab.Pred(1);
      if (rng.Chance(40)) where += " AND " + ga.Pred(1);
      std::string tail = OrderLimit(&gab, aliases);
      c.sql = Cat({"SELECT ", list, " FROM ", from, ", tb WHERE ", where,
                   tail});
      break;
    }
    case 6: {  // join + group by
      std::vector<int> lk, rk;
      std::string from = FromA(&ga);
      std::string keys = JoinKeys(&gab, &lk, &rk);
      std::string key = gab.GroupKey();
      std::string a0 = gab.Agg();
      std::string a1 = gab.Agg();
      std::string where = keys;
      if (rng.Chance(50)) where += " AND " + gab.Pred(1);
      std::string having;
      if (rng.Chance(30)) having = " HAVING COUNT(*) > 1";
      aliases = {"g0", "a0", "a1"};
      std::string tail = OrderLimit(&gab, aliases);
      c.sql = Cat({"SELECT ", key, " AS g0, ", a0, " AS a0, ", a1,
                   " AS a1 FROM ", from, ", tb WHERE ", where, " GROUP BY ",
                   key, having, tail});
      break;
    }
    case 7: {  // ORDER BY with LIMIT (top-N) over a projection
      std::string from = FromA(&ga);
      std::string list = SelectList(&ga, &aliases);
      std::string order;
      for (size_t i = 0; i < aliases.size(); ++i) {
        order += (i ? ", " : "") + aliases[i] +
                 (rng.Chance(50) ? " DESC" : "");
      }
      std::string where;
      if (rng.Chance(50)) where = " WHERE " + ga.Pred(1);
      std::string limit = std::to_string(rng.Range(0, 60));
      c.sql = Cat({"SELECT ", list, " FROM ", from, where, " ORDER BY ", order,
                   " LIMIT ", limit});
      break;
    }
    default: {  // join plan with its own residual predicate
      c.plan_join = true;
      std::string keys = JoinKeys(&gab, &c.left_keys, &c.right_keys);
      if (rng.Chance(85)) c.residual = gab.Pred(1);
      c.sql = "plan-join ON " + keys +
              (c.residual.empty() ? "" : " RESIDUAL " + c.residual);
      break;
    }
  }
  return c;
}

/// ExecContext over the case's two tables, for the plan-level join.
class CaseContext : public ExecContext {
 public:
  CaseContext(const Case& c, int threads) : c_(c), threads_(threads) {}
  Result<TablePtr> GetLocalTable(const std::string& name) override {
    if (name == "ta") return c_.ta;
    if (name == "tb") return c_.tb;
    return Status::CatalogError("no " + name);
  }
  Result<TablePtr> ForeignFetch(const std::string&, const std::string& rel,
                                double, double) override {
    return GetLocalTable(rel);
  }
  ComputeTrace* trace() override { return &trace_; }
  int exec_threads() const override { return threads_; }

 private:
  const Case& c_;
  int threads_;
  ComputeTrace trace_;
};

Result<uint64_t> RunPlanJoin(const Case& c, int threads) {
  PlanPtr left = PlanNode::MakeScan("db", "ta", "ta", c.ta->schema(),
                                    ComputeTableStats(*c.ta));
  PlanPtr right = PlanNode::MakeScan("db", "tb", "tb", c.tb->schema(),
                                     ComputeTableStats(*c.tb));
  ExprPtr residual;
  if (!c.residual.empty()) {
    XDB_ASSIGN_OR_RETURN(
        auto sel, sql::ParseSelect("SELECT * FROM ta, tb WHERE " + c.residual));
    XDB_ASSIGN_OR_RETURN(
        residual,
        BindExpr(sel->where,
                 Schema::Concat(c.ta->schema(), c.tb->schema())));
  }
  PlanPtr join = PlanNode::MakeJoin(left, right, c.left_keys, c.right_keys,
                                    residual);
  CaseContext ctx(c, threads);
  XDB_ASSIGN_OR_RETURN(TablePtr out, ExecutePlan(*join, &ctx));
  return DigestOf(*out);
}

Result<uint64_t> RunCase(const Case& c, int threads) {
  if (c.plan_join) return RunPlanJoin(c, threads);
  Federation fed;
  fed.SetNetwork(Network::Lan({"d1"}));
  DatabaseServer* d1 = fed.AddServer("d1", EngineProfile::Postgres());
  XDB_RETURN_NOT_OK(d1->CreateBaseTable("ta", c.ta));
  XDB_RETURN_NOT_OK(d1->CreateBaseTable("tb", c.tb));
  d1->set_exec_threads(threads);
  XDB_ASSIGN_OR_RETURN(TablePtr out, d1->ExecuteQuery(c.sql));
  return DigestOf(*out);
}

void RunShard(int shard) {
  for (int i = shard; i < kCases; i += kShards) {
    const Case c = MakeCase(i);
    for (int threads : {1, 4}) {
      Result<uint64_t> d = RunCase(c, threads);
      if (!d.ok()) {
        ADD_FAILURE() << "ExecDigest error: seed=" << c.seed
                      << " threads=" << threads << " sql=" << c.sql << " -> "
                      << d.status().ToString();
        break;
      }
      if (*d != kExpected[i]) {
        char got[32];
        std::snprintf(got, sizeof(got), "0x%016" PRIx64, *d);
        ADD_FAILURE() << "ExecDigest mismatch: seed=" << c.seed
                      << " threads=" << threads << " got=" << got
                      << " sql=" << c.sql;
        break;
      }
    }
  }
}

TEST(ExecDigest, Shard0) { RunShard(0); }
TEST(ExecDigest, Shard1) { RunShard(1); }
TEST(ExecDigest, Shard2) { RunShard(2); }
TEST(ExecDigest, Shard3) { RunShard(3); }

// The case mix itself: morsel-crossing inputs, empty inputs and plan-level
// joins are all present.
TEST(ExecDigest, GeneratorCoversTheClaimedShapes) {
  int big = 0, empty = 0, plan_joins = 0;
  for (int i = 0; i < kCases; ++i) {
    const Case c = MakeCase(i);
    big += c.ta->num_rows() >= 20000;
    empty += c.ta->num_rows() == 0 || c.tb->num_rows() == 0;
    plan_joins += c.plan_join;
  }
  EXPECT_GE(big, kCases / 10);
  EXPECT_GT(empty, 0);
  EXPECT_GT(plan_joins, 0);
}

// CREATE VIEW binds instead of planning: every generated statement binds
// to the output schema its plan has.
TEST(ExecDigestBind, BindYieldsThePlannedSchema) {
  for (int i = 0; i < kCases; ++i) {
    const Case c = MakeCase(i);
    if (c.plan_join) continue;
    Federation fed;
    DatabaseServer* d1 = fed.AddServer("d1", EngineProfile::Postgres());
    ASSERT_TRUE(d1->CreateBaseTable("ta", c.ta).ok());
    ASSERT_TRUE(d1->CreateBaseTable("tb", c.tb).ok());
    ExpectBindMatchesPlan(d1, c.sql);
  }
}

// Recorded at the commit before the columnar executor.
const uint64_t kExpected[kCases] = {
    0x9df1a563bcda34a5ull, 0x9df1a563bcda34a5ull, 0xcb4ab4d1911fe018ull,
    0x6cf4c26cd7c7063cull, 0x0123053052bcb4c8ull, 0x9df1a563bcda34a5ull,
    0x6c2c6de078846a7bull, 0xa28f810f573c4010ull, 0xe3d513c9b666b780ull,
    0x670bec4156be9022ull, 0x11abed0f612c8de1ull, 0x10e89aeffb18e606ull,
    0x377bd7f7203a806dull, 0x35cc36fef378b60dull, 0xa64bd4a4c91db883ull,
    0xe729d52b35455dbeull, 0x341e7d9a82c23091ull, 0x9df1a563bcda34a5ull,
    0x09b32b6dcd0f7519ull, 0x415a17285d972726ull, 0x44e68a090768d37bull,
    0x9df1a563bcda34a5ull, 0x36ba6a193d8c0c55ull, 0xee1b169502366434ull,
    0x9df1a563bcda34a5ull, 0x3627eaf3485a75ffull, 0x356b92d9ba9cd39full,
    0x7284cf4b8761635aull, 0x982bbf632230457dull, 0x63cd691a45dfec0dull,
    0x9df1a563bcda34a5ull, 0x6c69eb0bcdaca4e7ull, 0x5f587a7982b0611bull,
    0x982bbf632230457dull, 0x2bd9444fb4278e6full, 0x9df1a563bcda34a5ull,
    0x9df1a563bcda34a5ull, 0xa91c2bbd3440c3fcull, 0x6580044c4a4d2495ull,
    0xcde8cb084f3ebf9full, 0x8f90d03bcc687b30ull, 0x3627eaf3485a75ffull,
    0x9df1a563bcda34a5ull, 0xa7af56fdf339a59bull, 0xd447269300ed4657ull,
    0x7ebd81a4142e584full, 0x556910cb2d65fd48ull, 0xa7af56fdf339a59bull,
    0xccc5f1ef51537edcull, 0xeab0f459205bd3ecull, 0xd1c682b8e36368b0ull,
    0xe4fdaf655dc585d4ull, 0x5fd6189faeb303fcull, 0x9175f90435eb9db5ull,
    0x2c32223ee7b3abdaull, 0xe6484ded2f9a0667ull, 0x21a8eb4fc6ced279ull,
    0x9df1a563bcda34a5ull, 0xc990a7e0623ed66aull, 0x4c2ce4baf24f6058ull,
    0x5219b459a24059dfull, 0x6f9536bde05c8d7dull, 0x81b9b4904171ba8eull,
    0x903d1eeedef6070eull, 0x7aa61666c5be0ba1ull, 0x4e83078e2cc30b05ull,
    0x2a1a2922e71aab26ull, 0x5e7846c1114bb451ull, 0x94804137a291457aull,
    0xb084e404de2086d6ull, 0x68e47c4541224021ull, 0xfe71102df0e6ee27ull,
    0x402208b2715c4170ull, 0x3c35d9efad923ac4ull, 0x0894f46a540ac401ull,
    0xe729d52b35455dbeull, 0x694559eb633d7ba4ull, 0x3627eaf3485a75ffull,
    0x5f0ccaf4cfd9a6a9ull, 0xfbccc5a64dbdba35ull, 0x6c874f5b0e998cccull,
    0xb2be270cca12685aull, 0x3d516bbaba75de4aull, 0x5b22f471b6080d68ull,
    0xb60a020969d3a863ull, 0x48c9a846fb641f91ull, 0xf1e43762078f235full,
    0x492da99b0f1b2d3cull, 0x72c426223f46af73ull, 0x1b2bf7e9e96c3d8bull,
    0x9df1a563bcda34a5ull, 0x190685202271d4a4ull, 0x2ec9c65f2b294e5aull,
    0xf2393973a88c439cull, 0x726f65ceebb7a154ull, 0xac8ba251f3522cd7ull,
    0xddca99c6d259adcbull, 0xc8b25b583877b90eull, 0xa46a84fd97f2a99bull,
    0x2cf3e07840a2f2d3ull, 0x3f3ca4bb138f3fbbull, 0x593f0c74ca192815ull,
    0x982bbf632230457dull, 0x34db387c7b433f1dull, 0x4b951d503aca4fe1ull,
    0xe74e086dfdb2e4e8ull, 0x56fa3326da7465b4ull, 0x46b26b39de116b88ull,
    0x9d396fc2ee8bf991ull, 0xd0cf5521efa60043ull, 0x2a55046860e78300ull,
    0xba5cc042c557216cull, 0x39dbc0672cecce30ull, 0x6f9536bde05c8d7dull,
    0x8090979308418ba7ull, 0xac9bea4abc823bc9ull, 0x9df1a563bcda34a5ull,
    0xae27f0f63ea61e6aull, 0xc90fc0b130945fa0ull, 0x9ade84701d3ed422ull,
    0x4c07ecd513375cf4ull, 0x89b08e4146a866edull, 0x7e22e1ed4f0aeef8ull,
    0xdffa416dacf34dd6ull, 0x686ff4aacf609955ull, 0x27d003943d6336b1ull,
    0xdace0a8f4f93bb03ull, 0x9df1a563bcda34a5ull, 0x2a9ebcf17a79bf6bull,
    0xba5937dc17ea0245ull, 0xedf8d4a5d8f29503ull, 0x1d6bd543ba978ca6ull,
    0x9df1a563bcda34a5ull, 0xb65f1157ff83dfc2ull, 0x3cd1deff29698a81ull,
    0x4ca4ceb99577ad89ull, 0x9df1a563bcda34a5ull, 0xa1913838e3394ae3ull,
    0x0113ed5c6bcd84e9ull, 0x3627eaf3485a75ffull, 0x88d14e74adb5df64ull,
    0x2d02682ce5216ea9ull, 0x0030ef0c58c26e51ull, 0x9df1a563bcda34a5ull,
    0xa82c1af695e411a4ull, 0xb6bf9428a2ff8fbcull, 0xdb55cbb3c1c1e861ull,
    0x6fa1b113b2f47994ull, 0x29b396e721af1934ull, 0x1e1135d7a5fe3f23ull,
    0xbd6b4d9a28028cbdull, 0x209a7f6e584c3841ull, 0xa04daeb7ab9ff2c4ull,
    0x2da995963315fe4full, 0xc3812e09fe305e23ull, 0xb4d514c6eb47c1dbull,
    0x7705aa7fb25c52f6ull, 0x2eca72339ce75955ull, 0xd649caab59ad4c2eull,
    0x110496205dc5108dull, 0x793f400ad121b3afull, 0xac9bea4abc823bc9ull,
    0x9df1a563bcda34a5ull, 0x2f126057a4d07d39ull, 0xbd335897d2a17eb3ull,
    0x7fef71b8a73a3dd7ull, 0xd0bcf3e031ba2e79ull, 0x3a4bf7356a85b9e6ull,
    0x9977c6a559ae1fd0ull, 0x71bb37de4537e45dull, 0xaa755133429c7d17ull,
    0xb1a491ccd79bd707ull, 0x7e07b30ef5bf8119ull, 0x2ec9c65f2b294e5aull,
    0x94d6c44582d7a52eull, 0x6291ed90f9dc8babull, 0x84fbd013d48bedb1ull,
    0xd5fd0061df515602ull, 0x49473ad5bd33e095ull, 0x6901613311cddc31ull,
    0xbe65bef05e1bacfaull, 0x3a1cb7e7823f1933ull, 0x84961d02f3e56cebull,
    0x4cd059f7e7f24cbfull, 0x2dc25670e7656d6cull, 0x341e1b43471ab5d7ull,
    0xa7af56fdf339a59bull, 0x9df1a563bcda34a5ull, 0x5d9dd482a96d2388ull,
    0x4aa0c2b4fc586191ull, 0x6506cdaf61848e62ull, 0x02f9ecd99d5cbbb2ull,
    0x7f0d15ac0d2fc631ull, 0x1cf57966e2efc631ull, 0x009863a3b965a612ull,
    0xf5c358058bcc742bull, 0xc041bcb82137b888ull, 0x9df1a563bcda34a5ull,
    0xb4220d3d77ae2ab3ull, 0x492da99b0f1b2d3cull, 0xd96e0de063991048ull,
    0x3627eaf3485a75ffull, 0x0159f0f928657526ull, 0x9df1a563bcda34a5ull,
    0x1a03be6f2dec5271ull, 0xeab7864ffee74395ull, 0x31afe235354dbdf1ull,
    0xfd9cc2933f1c35cdull, 0x85644a73199b4212ull, 0x81d13f59dc90e802ull,
    0x0d91624e0686bdffull, 0xe36a7ef6561a2305ull, 0xaa02234e38f7a872ull,
    0x8ea003f057c8a453ull, 0x9df1a563bcda34a5ull, 0xb6083e84b54de44bull,
    0x27a36161be0cc0feull, 0xaa2f94a7ca242d7cull, 0x9df1a563bcda34a5ull,
    0x053e73052512b26dull, 0x90ff91990d24d43bull, 0x7051e1a1fde91493ull,
    0x9df1a563bcda34a5ull, 0xf0a3d860319e73d1ull, 0xc0d72067e337d010ull,
    0xa72c433fa3db34b1ull, 0xcf4571786fd8ca32ull, 0x635dc569023b44a4ull,
    0x0f54d7ae0bdeb8d5ull, 0xb0cae20404e01d0full, 0x6f9536bde05c8d7dull,
    0x9df1a563bcda34a5ull, 0xf83c5ec9214ef7a5ull, 0x4a9815dae2ac6c4bull,
    0x3c033e06e18ca7c7ull, 0x90489935b2e0140bull, 0x9df1a563bcda34a5ull,
    0x296c8c5c3c4c123dull, 0x2324875006204a08ull, 0x433bec30d8ca61c7ull,
    0x75cbd3d41c4058a7ull, 0x5e3de8484761e90aull, 0x8be1b86353f6f5f4ull,
    0xdf7a31dd81ddaaa4ull, 0x9df1a563bcda34a5ull, 0xb5b35b9a7fc073d7ull,
    0x9df1a563bcda34a5ull, 0x9df1a563bcda34a5ull, 0x23650b2534fb2db2ull,
    0x830696395830831aull, 0x3e0dd49bd66a3c40ull, 0x92ac73fc47ce4241ull,
    0x4363bcbd495af7daull, 0x9df1a563bcda34a5ull, 0x1a4c838ffc56c8fcull,
    0x038e4c27a046980eull, 0x5901e45bfdd22269ull, 0xc553dbf3507bf745ull,
    0x12da9f0ce452269bull, 0xe5a014bb3e294498ull, 0x5f587a7982b0611bull,
    0x62a67c04c486bec6ull, 0x244908adbce070e2ull, 0x74f4799e4053de31ull,
    0x20e17f2b8300d89dull, 0xef5f79bd31a36a41ull, 0xd6a3dbf44a068a91ull,
    0xce6dbf7ba7827465ull, 0x3e34e633802e8dc3ull, 0x8762f60c92de12d5ull,
    0x81b9b4904171ba8eull, 0x13a8663cb171a685ull, 0x9df1a563bcda34a5ull,
    0xd4733a3ec58d70d2ull, 0xe11830974e63a5e1ull, 0x68bc026e46a59452ull,
    0x36ba6a193d8c0c55ull, 0x2ec9c65f2b294e5aull, 0x99c89a124e039d76ull,
    0x4956becaeb2efbedull, 0x42ad0b93bb813b53ull, 0x2ec9c65f2b294e5aull,
    0x9df1a563bcda34a5ull, 0x3ebabeec0e081d14ull, 0x730984432f53b4a0ull,
    0xe7b89c7e1bcae8a8ull, 0x739446ce4470a700ull, 0x020e68ac32175ee5ull,
    0x2689d92f7083cd01ull, 0x187cbadf5d958119ull, 0x9df1a563bcda34a5ull,
    0x0cc2eb588b3696d4ull, 0xdb903443859348a6ull, 0xdad24fbfe5e41679ull,
    0x13a8663cb171a685ull, 0x0d81ec26415be61aull, 0xb4d7a8f3a1084db7ull,
    0x5d9dd482a96d2388ull, 0x10a8b65c57e4659full, 0x9df1a563bcda34a5ull,
    0xa79d315ab630bf18ull, 0x0732e54cfbaf8de3ull, 0x8aa682ca85a5ea3dull,
    0xda99c57760d11b17ull, 0x40ca77108f9b21fbull, 0xb2d9c49709f1e202ull,
    0xc3a747b66c175abcull, 0x81b9b4904171ba8eull, 0x5ad8cac4d5172bd8ull,
    0xb23381c8214afe2aull, 0x9df1a563bcda34a5ull, 0x8b42b96d8b065fc6ull,
    0x1d47df91c072865bull, 0x81fb342eca9d7c06ull, 0x9df1a563bcda34a5ull,
    0xb11c249ed2e6e5f6ull, 0x9df1a563bcda34a5ull, 0xd0cf5521efa60043ull,
    0x2f481312c083c494ull, 0xddb961bd94d277dbull, 0x2ec9c65f2b294e5aull,
    0x6c670fea1b30dee5ull, 0x9db2802f0cc00073ull, 0x9df1a563bcda34a5ull,
    0x31ac09b2df3c1905ull, 0x7a91e7ac9d3e5ccbull, 0x616e9da437da7e66ull,
    0x9df1a563bcda34a5ull, 0x94d6342e0226a39bull, 0x72eecee6e25c6ff0ull,
    0x7e0bf193fa50edf5ull, 0xad4f56c542eaca3cull, 0x36b795a6e7be41c0ull,
    0x6ba8022372b5fa5eull, 0x11e49b6f2d851178ull, 0x03d145df8f67d944ull,
    0xbe934c85f371a5beull, 0x492da99b0f1b2d3cull, 0x9df1a563bcda34a5ull,
    0x9df1a563bcda34a5ull, 0xce49de44ca9a4f59ull, 0x2ec9c65f2b294e5aull,
    0xd8ad6a441dd044bbull, 0x09b32b6dcd0f7519ull, 0x40ed677c37dca3e6ull,
    0xf4f65eb7009e9636ull, 0xfdd2442fd4dd347eull, 0x2b3d5abc2a82179eull,
    0x531b9c91a8c100b0ull, 0xf1ade5013ac195ccull, 0x7810036927e4b238ull,
    0x42dcbf24094a6aa8ull, 0x82dd239cbf4cb082ull, 0x492da99b0f1b2d3cull,
    0x62a873a721dd0d38ull, 0x0159f0f928657526ull, 0x12bf7c0e1fd75f63ull,
    0x30ba00f3667999e3ull, 0x1aea7627f133eff8ull, 0xc26c87d639146a49ull,
    0x4e6e84e81aae6729ull, 0x4bc210fd3f319895ull, 0x3a65d8e8bab2eecaull,
    0x36643a32aad00b53ull, 0x6a5b76edb290d7bdull, 0xd40632512eb1e906ull,
    0xf70a572627e51586ull, 0x758482817cd8b538ull, 0x846770afc9b0d3e4ull,
    0x58b14135e0248d5aull, 0x6f9536bde05c8d7dull, 0x6cbd6bd44349372bull,
    0x9df1a563bcda34a5ull, 0x5641aad89f8b1904ull, 0x505806c13b7a8d67ull,
    0xf515b1551797c30cull, 0x944fb831ce8e5c64ull, 0x974c97022abd110full,
    0x1cc411c12a3783b1ull, 0x969a16eabfd15bb2ull, 0xc49ff2ef15fb71fbull,
    0x5c82a58c9fc88bbdull, 0x16d7048756289081ull, 0xe148328dbf7a573full,
    0x05a894738d464dc8ull, 0x43bfbf9b2d3a5120ull, 0x9df1a563bcda34a5ull,
    0xd0f5321b4e81070dull, 0x213ad14935fb0af7ull, 0xbb84cbd04ebf04f0ull,
    0xbeb77840c8944cc4ull, 0x4a9815dae2ac6c4bull, 0x27d930748fdea4a8ull,
    0x7d76499d90d2aedbull, 0x68bd0746dee12175ull, 0x8c2e06f33148322bull,
    0x45ad44aa02295405ull, 0xd91fa380b22528e7ull, 0x47282e19d515ef7full,
    0x6f9536bde05c8d7dull, 0x15387258ed8d8029ull, 0x759b7b2f6c454680ull,
    0x9df1a563bcda34a5ull, 0xb93e94250cf5cfd0ull, 0x3627eaf3485a75ffull,
    0x9df1a563bcda34a5ull, 0xb73055dd6089c291ull, 0x1d77e7ab1897c9bfull,
    0x8bcff4c73c7ea2c2ull, 0xf553ea366706cb42ull, 0x9f2eed232b964114ull,
    0x3227ff29249781d8ull, 0x251938b90b38e0d9ull, 0x9df1a563bcda34a5ull,
    0x0da0a5800c64d23dull, 0xf247456106ab35d5ull, 0x1b8f3fdf4db61726ull,
    0x832a04117cddba8aull, 0x330c541c1bd34d59ull, 0xf7ba797852742c3full,
    0x4cd059f7e7f24cbfull, 0xfe342eab29f0ead3ull, 0x492da99b0f1b2d3cull,
    0xb6bb08860401f5eeull, 0x103e5f743a567d10ull, 0x7d76df2861175286ull,
    0xc3ab0d8d79620ef1ull, 0x4a9815dae2ac6c4bull, 0x103d422909b5d5d6ull,
    0xdca545ccbbb6dfcbull, 0x492da99b0f1b2d3cull, 0x239b009ce63e4a2eull,
    0x94b9eff3efcd8454ull, 0x9e2d00a8e338e3dcull, 0x92a6cc25ac9a4bd4ull,
    0x636b7eaf13cc43e0ull, 0x4823667099f7360eull, 0x41eec25eb279e526ull,
    0x33430902ab2ba73eull, 0xe729d52b35455dbeull, 0x925baa07dc5b2a87ull,
    0x6853462e97a6262full, 0x637bcf7e70b9f456ull, 0x726f65ceebb7a154ull,
    0x62a67c04c486bec6ull, 0x0569e53f1489455aull, 0x9df1a563bcda34a5ull,
    0x6855b31d930a0190ull, 0x894ff410befdd596ull, 0x64815a363cb93ccfull,
    0x9df1a563bcda34a5ull, 0xb591822ace733284ull, 0x74c61eb52469e8f4ull,
    0x0a35558f4ef423afull, 0x6de191d6d45310f5ull, 0x616c1dc3b3533014ull,
    0xd6fd0c19a072e073ull, 0xa6cdaa7cd75e10f6ull, 0x492da99b0f1b2d3cull,
    0xac9bea4abc823bc9ull, 0x4a9815dae2ac6c4bull, 0xad6117d74b90ed18ull,
    0x021030cbb83d1348ull, 0xb25bdb3115505ce5ull, 0xf92f53a369b03135ull,
    0x95ca1cea3563a301ull, 0xc1f1a5c20768cf03ull, 0x3a264ff8abbc6c3aull,
    0x310dfd7d3274df56ull, 0xa36094f76014ee27ull, 0xa88751357700e3cfull,
    0x2896d595f030d2e8ull, 0x3357fd5dbd6c7cc2ull, 0x8ce192c121ab40b1ull,
    0x2992986952f44f00ull, 0xe6f26a6b2325594eull, 0xb4d514c6eb47c1dbull,
    0x410449b5cda3cdb5ull, 0x3277a27f72ba2d2eull, 0xdcb35a224c96ceb6ull,
    0xa038baa35a045d41ull, 0x703f3df3e318c08cull, 0xf4f65eb7009e9636ull,
    0xbab515a5b9fa5cd8ull, 0x9df1a563bcda34a5ull, 0xdb981dda7be6bb43ull,
    0x9df1a563bcda34a5ull, 0x9df1a563bcda34a5ull, 0xe729d52b35455dbeull,
    0x9df1a563bcda34a5ull, 0xa631f33b67782567ull, 0x8bbf93371e35fc9full,
    0xf55de4670e5cfa1eull, 0x59893b6d63ebcb8eull, 0x7928b89dfa1c7070ull,
    0x9df1a563bcda34a5ull, 0xccc5f1ef51537edcull, 0x949658b7535f4354ull,
    0xf5251c53f2eac152ull, 0x950646afbc051487ull, 0x6101056c2c3973c4ull,
    0x7fc28a1673d11df9ull, 0x7470e8d439723e64ull, 0x3627eaf3485a75ffull,
    0xe9a0767952beaf10ull, 0x9df1a563bcda34a5ull, 0x9df1a563bcda34a5ull,
    0x6391a05890ac7e5eull, 0x35117f0d74823cbaull, 0xffb71ee070803fcdull,
    0x987c6387c7d729afull, 0x36b795a6e7be41c0ull, 0xb8f5104efa675d31ull,
    0xd76ce5fc5fc27fa4ull, 0x056f4e662170b817ull, 0xfb9a0012cf97540aull,
    0x9fd59f7578527c98ull, 0x55547ab16754ad13ull, 0xead566ebbcd6df62ull,
    0x78b1ca649af48175ull, 0x8e6241c6ddda28d4ull, 0x738b829f25589fa5ull,
    0xcab0877400728dafull, 0xe46868fa77fb7c30ull, 0xf9ae15ce3e1ceedaull,
    0x11f84584f171d017ull, 0x7370a6e1bd6beacaull, 0x9df1a563bcda34a5ull,
    0x0b9698147e58cf68ull, 0x9df1a563bcda34a5ull, 0x8f7eff37050ce12bull,
    0xa28eda3d9a0549baull, 0xc18ae7c0c01fef31ull, 0x8df05834bbbf15faull,
    0xb0cae20404e01d0full, 0x61cccc3bf1cb04ceull, 0x95d91cf2def809daull,
    0x303c7c9178b7f68bull, 0x3e88c7db6be6b3e8ull, 0x5e40a9c27f621cb0ull,
    0xab95a54b0dad062dull, 0xf9a95188be6e0636ull, 0xf4c527ece632cb1dull,
    0x53127bef355e41dfull, 0x3627eaf3485a75ffull, 0x81e449b114956ba7ull,
    0xe729d52b35455dbeull, 0x88d831d51ac6987cull, 0x9df1a563bcda34a5ull,
    0x0388acb6b340bdfdull, 0x3b71d1108b349679ull, 0xae5cc0e3d4cd7d17ull,
    0x16d8e936c51d9159ull, 0x635dc569023b44a4ull, 0xbb8d0fdd3dc19b0cull,
    0x0846197e0923ffa6ull, 0x94284dffa0f290ddull, 0x854d0d6329b500ceull,
    0xfda8093cf0804ed2ull, 0x0931e11741891798ull, 0x7a5b0bebe39b54fcull,
    0x9df1a563bcda34a5ull, 0x8fb6ee76051f2229ull, 0x78556f57a7a883d9ull,
    0x2ec9c65f2b294e5aull, 0x6254b99c8edcd455ull, 0xe7c69d74c647783full,
    0x5b70a8631c7b32a0ull, 0xe729d52b35455dbeull, 0x9b489f1bb01dff94ull,
    0x171eac07073fe58eull, 0x759f7e482cebd184ull, 0xa3abdf23876cfec2ull,
    0x165606a9b85de216ull, 0x9df1a563bcda34a5ull, 0x624acedec99867f2ull,
    0xb08b329e6ff56d02ull, 0x7370bb902e438703ull, 0x548f6a13b5dbdcedull,
    0x9df1a563bcda34a5ull, 0xd039173f996235f0ull, 0x9df1a563bcda34a5ull,
    0xce2384cf88e5be30ull, 0x923e1da1485b7a51ull, 0x5d9dd482a96d2388ull,
    0xa7bb83ab70f6d041ull, 0x4b2675d7abe80edbull, 0x492da99b0f1b2d3cull,
    0x314806aa9f1973d7ull, 0xb3a427e375e247d0ull, 0x7705d2a4adef8d8aull,
    0x2730f65bbe7e882full, 0x52663efe79c241c8ull, 0x9df1a563bcda34a5ull,
    0xa1c9a0fe670abc14ull, 0x5ef03e89eb0f35f2ull, 0x5c5e6161278298abull,
    0x5d9dd482a96d2388ull, 0xbab515a5b9fa5cd8ull, 0x8e7153b14a344144ull,
    0x815ac5ef99455067ull, 0x97d99900bec3e007ull, 0x0d91624e0686bdffull,
    0x631d2fd2aaf0623eull, 0x57437cf462e886baull, 0x9bd75123a9c1c721ull,
    0x756187a60895988dull, 0xdfcbb09718143619ull, 0x98668c153cd4f257ull,
    0x4a9815dae2ac6c4bull, 0xafe0c6ff53af41faull, 0x5a287aada644be05ull,
    0xc799ea8b4b5af1eaull, 0x9df1a563bcda34a5ull, 0xead566ebbcd6df62ull,
    0x0d440dfc9f814727ull, 0xd1e59b3c3b6db4adull, 0x03e507724de0a7b4ull,
    0xeb5b785191955ed5ull, 0x9419b36cc69f2d5bull, 0x579ab8bae6d0a194ull,
    0x9caa0b934316e874ull, 0x433bec30d8ca61c7ull, 0x982bbf632230457dull,
    0x5641aad89f8b1904ull, 0x670bec4156be9022ull, 0x86c5a1db44ff7425ull,
    0x145effe90a8e3c3eull, 0xe9a63a69910b3d84ull, 0xd8950f13c45b3fc7ull,
    0xf711bc15298ae433ull, 0x5a5e20e840dd75f7ull, 0xa2de9131a073576cull,
    0x9df1a563bcda34a5ull, 0x8f3fce2f93038e3cull, 0x642b0f46df7f8787ull,
    0xe9e32506e98675d9ull, 0x4dd9ca5c61b75598ull, 0x3a823a8766b158feull,
    0x3627eaf3485a75ffull, 0x3fa1ee2844b38c12ull, 0x3b766668b4bf2d72ull,
    0x8dfd584d902796a6ull, 0x739417b59efde7aaull, 0x65cf2475365be687ull,
    0x34b2c7597eccfdfbull, 0x33032174cb5c46beull, 0xbdc0a994aa936c16ull,
    0x63c39d80e35e71fcull, 0xacdf4dd5493525fbull, 0x0948f991ec6bc3adull,
    0xe729d52b35455dbeull, 0xfcdf552a5cdc7a62ull, 0x72e5f530a0d7f5f9ull,
    0x8a1088c6104757a3ull, 0x5f69a72724f6ea17ull, 0xbab515a5b9fa5cd8ull,
    0x3627eaf3485a75ffull, 0xaa404c96b9686efdull, 0x95f2417fd40a97f0ull,
    0x1ee776aac9c6c7c8ull, 0xba679c1be8836a03ull, 0x6ede154345205999ull,
    0xf4a243131e60d020ull, 0xb4d514c6eb47c1dbull, 0x47071eb6cd63e7baull,
    0x492da99b0f1b2d3cull, 0xa68986376d4f04d9ull, 0xd46065c2d0fa3bd5ull,
    0x9df1a563bcda34a5ull, 0x9df1a563bcda34a5ull, 0x2ea3ed27ac115519ull,
    0x12ceb673deb5ec8dull, 0x3627eaf3485a75ffull, 0x9df1a563bcda34a5ull,
    0x2ec9c65f2b294e5aull, 0x5d9dd482a96d2388ull, 0x28bcc7c0ce871d11ull,
    0x800e396479f799bfull, 0x9df1a563bcda34a5ull, 0x9df1a563bcda34a5ull,
    0x9ceffedf04305fb3ull, 0x8c46479e7fec8892ull, 0x83b8ac4f95204f14ull,
    0x39f25dc7ecc0e6f6ull, 0x75562ca1f9243158ull, 0x9ff0c544c843cdc9ull,
    0xbb1dc627c22506f3ull, 0x5b26faf19fb718b3ull, 0xc9a7ad8d0a645e73ull,
    0x8b3a57f72eafd33eull, 0x2289075961c11d08ull, 0xa227ec04b05140feull,
    0xbab515a5b9fa5cd8ull, 0x14a00c60d6af35cfull, 0x0c0c1283995d4c8eull,
    0xf0c7326e35bbec2bull, 0x2360a5df1a3d0e25ull, 0x3cda60a7f0749addull,
    0x2736a7035cb0521aull, 0x260b9d1edca0f7f1ull, 0x45ab828e1963d61dull,
    0xb43a0392da633086ull, 0x34e53a92234a84d8ull, 0xc74de912b236ff6full,
    0x9df1a563bcda34a5ull, 0x9df1a563bcda34a5ull, 0xe7dae68f6c3b3773ull,
    0x1f3c34ed06abe724ull, 0x49cb583a01335ac5ull, 0xfbfa4461b68bcf2cull,
    0x99d752867b4b6d88ull, 0xa1b63ead3de7b614ull, 0x5705ae7a848c582aull,
    0x8f76fbffd9f406edull, 0xd1c457522d78d038ull, 0x3b55ed981f577c9dull,
    0xe427c7425b8cf1bcull, 0x5ff15ff1d46dc651ull, 0x83f953ddc589bfc6ull,
    0xd0720c2c325cbe6dull, 0x1aa117cf37075e5aull, 0x3627eaf3485a75ffull,
    0x8fa8cf06134ab111ull, 0x9beba2b46834ffdaull, 0x98dc63d480f0801aull,
    0x982bbf632230457dull, 0x689fdd12c2e127f7ull, 0xb19a4ddba6508dd1ull,
    0x009863a3b965a612ull, 0xb9cc80b8d7fa006bull, 0x97d258af878d6a5dull,
    0xf62c226f7ac8605bull, 0xb22cbd7a3be04719ull, 0xce3fe4fddff3434dull,
    0x7ba947c4415097b0ull, 0x5d9dd482a96d2388ull, 0x00c3d543137a73adull,
    0x589dbd02d59cfbb5ull, 0x805378ec231142fbull, 0xa72e0ca767b3481aull,
    0x2ade66676f6d4487ull, 0x739417b59efde7aaull, 0x9df1a563bcda34a5ull,
    0x4f96796bcc7abe53ull, 0x1b2bf7e9e96c3d8bull, 0x6e3e560f2b39c0f8ull,
    0x83b8ac4f95204f14ull, 0x5499ad0327e2ef4dull, 0x23b1d6ff20fd8a83ull,
    0xf0bf20655b932f18ull, 0x9fe6b21bb363b5bdull, 0x0c062809411daad9ull,
    0x6b1f804cdb66ac0cull, 0x1e76ea7f14e788feull, 0x433bec30d8ca61c7ull,
    0xb1a491ccd79bd707ull, 0xbaa7b9aacbe671e0ull, 0x9df1a563bcda34a5ull,
    0x70b2eda7ce5f97d7ull, 0xf591bf113cd0cc1aull, 0x9df1a563bcda34a5ull,
    0xbb51dc0964c4765full, 0xa62d71fca50579dbull, 0x49ac55e53069e4e7ull,
    0x9df1a563bcda34a5ull, 0xa2949504f73b1774ull, 0x505806c13b7a8d67ull,
    0x9df1a563bcda34a5ull, 0xddb961bd94d277dbull, 0xa680e86c2989fa35ull,
    0x480d3eac15bb7506ull, 0x9df1a563bcda34a5ull, 0xead566ebbcd6df62ull,
    0xcc988b52792cf55dull, 0x030a29f7d5e9a5e0ull, 0xeabade1afbfbc4a2ull,
    0x793f400ad121b3afull, 0xf2398034a02b9b30ull, 0x3cd1deff29698a81ull,
    0x92c751e441560023ull, 0x14ee13665426b19aull, 0x7b3d479f88678768ull,
    0xbdede2edb0617101ull, 0x6d9710e34c9071d6ull, 0x6f9536bde05c8d7dull,
    0xb6f3bfbca2b95f71ull, 0x275da9ec6306407cull, 0x3cc7d4b97dd6a7b9ull,
    0x617be09aeac20290ull, 0x4876ffec681e8fdaull, 0xa3fdbbcd5186131cull,
    0xb8cc46818b533a85ull, 0x3627eaf3485a75ffull, 0x5730327a1713ed7bull,
    0x8b5c37c0ca10884bull, 0xa655a35b2af309a6ull, 0x5ad75410b0fe6dcfull,
    0x89a95d9f6e269dc7ull, 0x982bbf632230457dull, 0x47898580ff6b59d3ull,
    0x85624ffabde52394ull, 0xe13af4744078c82full, 0x07ea346641e16673ull,
    0xcb480406493f34c3ull, 0x0030ef0c58c26e51ull, 0x3d808c6ad7ad8691ull,
    0xab78d410a977c881ull, 0x27174d33565a5631ull, 0x0cf069266f7d209aull,
    0x33a0e5695170e8d3ull, 0x187b554438f92ec6ull, 0x18e37e042c841fb4ull,
    0x492da99b0f1b2d3cull, 0x9d3c1057d04527d4ull, 0xe729d52b35455dbeull,
    0x6310743d7a0c40fcull, 0x56012fcdbc203424ull, 0x2ec9c65f2b294e5aull,
    0xcc9e0c68e6a4f4e2ull, 0xfa526b052349f32bull, 0x9df1a563bcda34a5ull,
    0x8349c378c2de2af2ull, 0xfc6f3f2a6f7afd3full, 0xbe934c85f371a5beull,
    0xccc5f1ef51537edcull, 0x577fc066995a3438ull, 0xcda872c4063b6057ull,
    0x9df1a563bcda34a5ull, 0xa5a0df3506011e73ull, 0x9df1a563bcda34a5ull,
    0x9df1a563bcda34a5ull, 0x982bbf632230457dull, 0x492da99b0f1b2d3cull,
    0x9df1a563bcda34a5ull, 0xa631f33b67782567ull, 0x9df1a563bcda34a5ull,
    0xff87fe8f41433758ull, 0x051ec306f1240d26ull, 0x565b33b43d4a99e5ull,
    0x61562a9e71987c5aull, 0x492da99b0f1b2d3cull, 0x5f69a72724f6ea17ull,
    0x0d2f74630892560full, 0x4eb68a6f5bcbbf57ull, 0xc4ccf5b72f0b3fc7ull,
    0x9df1a563bcda34a5ull, 0x82d35f203a11be16ull, 0x9df1a563bcda34a5ull,
    0x9ad64e02724d5da6ull, 0x35ecf1f208206b1dull, 0x37195315a0e685f7ull,
    0x5f04eda1ffc63a80ull, 0x4eebb29b47e226adull, 0x0e46b873aba00f4eull,
    0x1a723a9b711e2c20ull, 0x8c7ea232eac29ed2ull, 0xa944d01954cca1d8ull,
    0xac9bea4abc823bc9ull, 0x52c1c11ad854fc48ull, 0x98694781ccfc191dull,
    0xb1ef67518ca7f896ull, 0x5e94ac07b29d2246ull, 0xeb3362f9b3b21339ull,
    0x5494d53235df465dull, 0x5e1338d38c89c50aull, 0x4287751ea88b10f6ull,
    0x9df1a563bcda34a5ull, 0x4cd93b5b96acaee0ull, 0x412fb341423ffb5bull,
    0xf874b535e9bfc33dull, 0xe5f7022d5715f14bull, 0x79d505b8be271dd9ull,
    0x440e45155f7f1520ull, 0xc078ea76f8f11c81ull, 0x180dd67943a977e1ull,
    0x9df1a563bcda34a5ull, 0xaed42e67c1c81c3dull, 0x65d6fefed832a99aull,
    0x7727752e804b1395ull, 0x2c4719c263599106ull, 0xc19ab3bd8615b951ull,
    0x5121b4f9d8abbaccull, 0xc66591997d2f4575ull, 0x849587c0701627beull,
    0x35d19432328c316eull, 0xa1cf561f24870a9eull, 0xbdb557a8103f384eull,
    0x1ec7d013eacc5e79ull, 0x15293b65eb503e15ull, 0x9df1a563bcda34a5ull,
    0x9df1a563bcda34a5ull, 0xc932bb5108fde55eull, 0xee8db84248305e60ull,
    0x93f726dee02bbfd0ull, 0xf8f0587244f36161ull, 0x36390b9215f73c09ull,
    0x982bbf632230457dull, 0x726f65ceebb7a154ull, 0x2ce3d40caa7d02adull,
    0x4f0240cf4fc2a32cull, 0x4899f3a41ebcdb3aull, 0xcad45e0c4032b50aull,
    0x3e20e24540b8e0f9ull, 0x5b490d856492779dull, 0xe0fd54ff6a2734d4ull,
    0xaff5bd86caf116f0ull, 0xf9886a97d47936daull, 0x09b32b6dcd0f7519ull,
    0x3e03153db4ec2da4ull, 0x2e50d3074c0f0c18ull, 0x698e154f6accc3e7ull,
    0x3627eaf3485a75ffull, 0x9df1a563bcda34a5ull, 0x2c002ba740079409ull,
    0x541c77ad8c0353e1ull, 0x771e8d2a3d637ca7ull, 0x0a3b82e6b82c1724ull,
    0x8107331caacf2e57ull, 0xbab515a5b9fa5cd8ull, 0xb093a11039b70107ull,
    0xe729d52b35455dbeull, 0x2ec9c65f2b294e5aull, 0xa0f7a47ba9e08594ull,
    0xe4afdee724e8af4bull, 0x9df1a563bcda34a5ull, 0xeb92ef2403541202ull,
    0x6d8d01aea6fa3210ull, 0x492da99b0f1b2d3cull, 0xfb9670ecaf6d45d1ull,
    0xa9c5bdc936318794ull, 0xc18d29c61a255625ull, 0x0cd2cba77f104dc9ull,
    0x4b5ce4574684f2d3ull, 0xf45370e536fc31cdull, 0x98f6015cabd3f21cull,
    0xb808480fe70c832full, 0x5dbad3ac75325f5cull, 0x3627eaf3485a75ffull,
    0xcd15b9e7663b50f8ull, 0x9df1a563bcda34a5ull, 0x9df1a563bcda34a5ull,
    0xeef21749f95d5b76ull, 0x9df1a563bcda34a5ull, 0xf8a65dbfcf54b25full,
    0xc8d186b686016679ull, 0xaa5ab7948d32c06aull, 0x96dc6695290259c5ull,
    0x7ccce60bd76bbcafull, 0x7bd1dc40e5a397a3ull, 0x52751f7f49903869ull,
    0x982bbf632230457dull, 0xfb9a0012cf97540aull, 0x99e104ad38e8c938ull,
    0x9528bafe43f391ceull, 0x47282e19d515ef7full, 0xb90f37dbf12ccd77ull,
    0x23adbf652d340745ull, 0xdbe845ab1a01ef71ull, 0x2b539c9407eddc65ull,
    0x9df1a563bcda34a5ull, 0x1b0de26cac3843dfull, 0x196e41e6d92b6a02ull,
    0x9df1a563bcda34a5ull, 0x19bad7e435a34463ull, 0x4b00a0d8173ecff5ull,
    0xf0a3d860319e73d1ull, 0x1ec7d013eacc5e79ull, 0xbab515a5b9fa5cd8ull,
    0xde4080c45ca8b3ddull, 0x6fdf45a824e430dfull, 0xe31685b4698ddaa0ull,
    0x9df1a563bcda34a5ull, 0x7b0dd5d8c0272b5cull, 0x9df1a563bcda34a5ull,
    0xf0ad24721744587aull, 0x9c664098f1c50204ull, 0x95afcef9cda4d2c0ull,
    0xf6169fac67992631ull, 0x9df1a563bcda34a5ull, 0x9df1a563bcda34a5ull,
    0xead566ebbcd6df62ull, 0x009863a3b965a612ull, 0xa1f4e18697c339e5ull,
    0xff245eaa4d625920ull, 0x491a0b10417ead0dull, 0x635dc569023b44a4ull,
    0x3413bf1ad9bb9302ull, 0x7d61e43efab850aaull, 0x6f7f4d496d61a3deull,
    0x51aaae308fbc4fb2ull, 0x4a9815dae2ac6c4bull, 0xfb9a0012cf97540aull,
    0x2aa5853bf111fe12ull, 0x1b4ac2f57b4569a2ull, 0xf6d918c404fa7b06ull,
    0x47b61640371fc8b3ull, 0x5db0a8c6da04e9d9ull, 0x255f219cb9084357ull,
    0xa2ce4b806970f179ull, 0x9bd75123a9c1c721ull, 0xa04b16c30239eba4ull,
    0x9df1a563bcda34a5ull, 0xa71f72148d5fe498ull, 0x9df1a563bcda34a5ull,
    0x9df1a563bcda34a5ull, 0xc169d06047eeb6bbull, 0xad3bfe105a77014bull,
    0xd22d99cb1da6e7a0ull, 0x0113ed5c6bcd84e9ull, 0xa2de9131a073576cull,
    0x8762f60c92de12d5ull, 0x075c8954d92de396ull, 0xfdb58b77d295e4a1ull,
    0x85d8fd7ecfd8eba1ull, 0xb5378a778d61e80cull, 0xc198e73aef255341ull,
    0x9f1f5d52308feacaull, 0xb02b090ae994901dull, 0x7956fd0e214548f2ull,
    0x65936575c0d49eb3ull, 0xc8df682e89c9bfb6ull, 0x70b1cd0a22ec93d1ull,
    0x3ba852bb6986fff2ull, 0x7c456ebddfaa51aaull, 0x3c6b6bb301245152ull,
    0x909bb680ce928113ull, 0x9fb58803e3391007ull, 0xc723477142d6e09aull,
    0x9df1a563bcda34a5ull, 0x9522c4ca833e1090ull, 0x9ac8d41d4a9b9aa5ull,
    0xb53021c27ec0f327ull, 0x944e6723d633f7daull, 0x30a35d981447d524ull,
    0x6d36b2f17e22529dull, 0xd349384a6c3b245dull, 0x3627eaf3485a75ffull,
    0x1563a76190445db6ull, 0x9df1a563bcda34a5ull, 0x5dc9212a797a54eeull,
    0xdc11529dfc3e8d0eull, 0x1c1b10a4f724988full, 0xcf990262e284dc45ull,
    0x9bd75123a9c1c721ull, 0xf1d69a074a930d4dull, 0x51aea4b324e8f919ull,
    0x6231b5e79ac0dd1dull, 0x982bbf632230457dull, 0x500ab7d142760cbdull,
    0x9b3f2610700503b4ull, 0x09b32b6dcd0f7519ull, 0x9df1a563bcda34a5ull,
    0x9df1a563bcda34a5ull, 0x62c9b57d5537c219ull, 0x084d785d10201813ull,
    0x2ec9c65f2b294e5aull, 0xac9bea4abc823bc9ull, 0xa17af021b760d945ull,
    0xfe6a7d478dfb6f1full, 0x53febb3cbd98ef45ull, 0x177db69a4826131bull,
    0x7d280af1b7e21255ull, 0x40adcd3e80e771a4ull, 0x2a93875a4b6cf9bcull,
    0xd1a75fd686b35dceull, 0xf8f7db23fcbaa077ull, 0x823fd5653d5b8e8aull,
    0xfb9a0012cf97540aull, 0xa77c7dceba035128ull, 0x7c00341bbbd91cfaull,
    0xc3b537ea86b43c3dull, 0xdf337acbe1cb8c5full, 0x4b2675d7abe80edbull,
    0x0294e69c2d422c77ull, 0x385a2702c9768e25ull, 0x9df1a563bcda34a5ull,
    0x9df1a563bcda34a5ull, 0x091cff5a4a3ba4c0ull, 0x7161441beefcad07ull,
    0xc005774f86d60a09ull, 0x8c833e65684fbca6ull, 0x117678b9453369acull,
    0x9df1a563bcda34a5ull, 0x4933ea6a87bafad8ull, 0xf0672f249e3876f6ull,
    0xe729d52b35455dbeull, 0x9df1a563bcda34a5ull, 0xf96cd3f342a56322ull,
    0x9df1a563bcda34a5ull, 0xba8cb5648f623af0ull, 0x4d9bc3ee068b273full,
    0x635dc569023b44a4ull, 0x67452fc71003f2deull, 0xec9c2971642450ebull,
    0xca55443c9b949187ull, 0xa09a2bfad490427aull, 0xa54b91d50ddfdc4full,
    0x86c8fe4ac9e5c543ull, 0xe73cfaa736a801fdull,
};

}  // namespace
}  // namespace xdb
