#include "plan/sql_gen.h"

#include <sstream>

namespace lpath {

namespace {

std::string_view OpText(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

class Generator {
 public:
  std::string Top(const ExecPlan& plan) {
    std::ostringstream os;
    EmitSelect(plan, /*depth=*/0, /*exists=*/false, os);
    return os.str();
  }

 private:
  /// Subquery depth d names its variables with the letter 'a' + d ("a0",
  /// "b1", ...). Past 'z' the depth is spelled out ("d26_0"), which no
  /// letter alias can collide with.
  std::string Alias(int var, int depth) const {
    // Built with += rather than operator+ on two temporaries: gcc 12's
    // -Wrestrict misfires on the latter at -O2 (GCC PR 105651).
    std::string alias;
    if (depth < 26) {
      alias += static_cast<char>('a' + depth);
    } else {
      alias += 'd';
      alias += std::to_string(depth);
      alias += '_';
    }
    alias += std::to_string(var);
    return alias;
  }

  void EmitOperand(const Operand& o, int depth, std::ostream& os) const {
    if (o.is_literal()) {
      if (o.is_string) {
        os << '\'';
        for (char c : o.str) {
          os << c;
          if (c == '\'') os << c;  // '' escaping
        }
        os << '\'';
      } else {
        os << o.num;
      }
      return;
    }
    // An outer reference names a variable of the enclosing query.
    os << Alias(o.var, o.is_outer() ? depth - 1 : depth) << '.'
       << PlanColName(o.col);
  }

  void EmitConjunct(const Conjunct& c, int depth, std::ostream& os) const {
    EmitOperand(c.lhs, depth, os);
    os << ' ' << OpText(c.op) << ' ';
    EmitOperand(c.rhs, depth, os);
  }

  void EmitBool(const BoolExpr& e, int depth, std::ostream& os) const {
    switch (e.kind) {
      case BoolExpr::Kind::kAnd:
        os << '(';
        EmitBool(*e.lhs, depth, os);
        os << " AND ";
        EmitBool(*e.rhs, depth, os);
        os << ')';
        return;
      case BoolExpr::Kind::kOr:
        os << '(';
        EmitBool(*e.lhs, depth, os);
        os << " OR ";
        EmitBool(*e.rhs, depth, os);
        os << ')';
        return;
      case BoolExpr::Kind::kNot:
        os << "NOT (";
        EmitBool(*e.lhs, depth, os);
        os << ')';
        return;
      case BoolExpr::Kind::kCmp:
        EmitConjunct(e.cmp, depth, os);
        return;
      case BoolExpr::Kind::kExists:
        EmitSelect(*e.sub, depth + 1, /*exists=*/true, os);
        return;
    }
  }

  void EmitSelect(const ExecPlan& plan, int depth, bool exists,
                  std::ostream& os) const {
    if (exists) {
      os << "EXISTS (SELECT 1";
    } else {
      const std::string out = Alias(plan.output_var, depth);
      os << "SELECT DISTINCT " << out << ".tid, " << out << ".id";
    }
    os << " FROM ";
    for (int v = 0; v < plan.num_vars; ++v) {
      if (v > 0) os << ", ";
      os << "nodes AS " << Alias(v, depth);
    }
    bool first = true;
    auto begin_term = [&]() {
      os << (first ? " WHERE " : " AND ");
      first = false;
    };
    for (const Conjunct& c : plan.conjuncts) {
      begin_term();
      EmitConjunct(c, depth, os);
    }
    for (const auto& f : plan.filters) {
      begin_term();
      EmitBool(*f, depth, os);
    }
    if (exists) os << ')';
  }
};

}  // namespace

std::string GenerateSql(const ExecPlan& plan) { return Generator().Top(plan); }

}  // namespace lpath
