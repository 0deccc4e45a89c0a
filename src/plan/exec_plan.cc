#include "plan/exec_plan.h"

#include <sstream>

namespace lpath {

std::string_view PlanColName(PlanCol col) {
  switch (col) {
    case PlanCol::kTid: return "tid";
    case PlanCol::kLeft: return "left";
    case PlanCol::kRight: return "right";
    case PlanCol::kDepth: return "depth";
    case PlanCol::kId: return "id";
    case PlanCol::kPid: return "pid";
    case PlanCol::kName: return "name";
    case PlanCol::kValue: return "value";
    case PlanCol::kKind: return "kind";
  }
  return "?";
}

namespace {

std::string_view OpName(CmpOp op) {
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

void AppendOperand(const Operand& o, std::ostream& os) {
  if (o.is_literal()) {
    if (o.is_string) {
      os << '\'' << o.str << '\'';
    } else {
      os << o.num;
    }
  } else if (o.is_outer()) {
    os << "outer" << o.outer_index() << '.' << PlanColName(o.col);
  } else {
    os << 'v' << o.var << '.' << PlanColName(o.col);
  }
}

void AppendConjunct(const Conjunct& c, std::ostream& os) {
  AppendOperand(c.lhs, os);
  os << ' ' << OpName(c.op) << ' ';
  AppendOperand(c.rhs, os);
}

void AppendBool(const BoolExpr& e, int indent, std::ostream& os);

void AppendPlan(const ExecPlan& p, int indent, std::ostream& os) {
  std::string pad(indent, ' ');
  os << pad << "plan vars=" << p.num_vars << " output=v" << p.output_var
     << '\n';
  for (const Conjunct& c : p.conjuncts) {
    os << pad << "  ";
    AppendConjunct(c, os);
    os << '\n';
  }
  for (const auto& f : p.filters) {
    AppendBool(*f, indent + 2, os);
  }
}

void AppendBool(const BoolExpr& e, int indent, std::ostream& os) {
  std::string pad(indent, ' ');
  switch (e.kind) {
    case BoolExpr::Kind::kAnd:
      os << pad << "and\n";
      AppendBool(*e.lhs, indent + 2, os);
      AppendBool(*e.rhs, indent + 2, os);
      return;
    case BoolExpr::Kind::kOr:
      os << pad << "or\n";
      AppendBool(*e.lhs, indent + 2, os);
      AppendBool(*e.rhs, indent + 2, os);
      return;
    case BoolExpr::Kind::kNot:
      os << pad << "not\n";
      AppendBool(*e.lhs, indent + 2, os);
      return;
    case BoolExpr::Kind::kCmp:
      os << pad;
      AppendConjunct(e.cmp, os);
      os << '\n';
      return;
    case BoolExpr::Kind::kExists:
      os << pad << "exists\n";
      AppendPlan(*e.sub, indent + 2, os);
      return;
  }
}

}  // namespace

std::string ConjunctString(const Conjunct& c) {
  std::ostringstream os;
  AppendConjunct(c, os);
  return os.str();
}

std::unique_ptr<BoolExpr> CloneBoolExpr(const BoolExpr& e) {
  auto out = std::make_unique<BoolExpr>(e.kind);
  if (e.lhs) out->lhs = CloneBoolExpr(*e.lhs);
  if (e.rhs) out->rhs = CloneBoolExpr(*e.rhs);
  out->cmp = e.cmp;
  if (e.sub) out->sub = std::make_unique<ExecPlan>(e.sub->Clone());
  return out;
}

ExecPlan ExecPlan::Clone() const {
  ExecPlan out;
  out.num_vars = num_vars;
  out.conjuncts = conjuncts;
  out.output_var = output_var;
  out.filters.reserve(filters.size());
  for (const auto& f : filters) out.filters.push_back(CloneBoolExpr(*f));
  return out;
}

std::string ExecPlan::DebugString() const {
  std::ostringstream os;
  AppendPlan(*this, 0, os);
  return os.str();
}

}  // namespace lpath
