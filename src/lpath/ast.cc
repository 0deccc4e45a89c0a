#include "lpath/ast.h"

#include <cctype>

namespace lpath {

namespace {

bool IsBareword(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == '.')) {
      return false;
    }
  }
  return true;
}

std::string QuoteIfNeeded(const std::string& s) {
  if (IsBareword(s)) return s;
  return "'" + s + "'";
}

// True if every character can appear in an unquoted tag token.
bool IsPlainTag(const std::string& s) {
  if (s.empty() || s == "_" || s == "*") return false;
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-')) {
      return false;
    }
  }
  return true;
}

// Figure 4's `/name::` spelling; the first step of a relative path needs
// no '/'.
void AppendAxisName(Axis axis, bool first_of_relative, std::string* out) {
  if (!first_of_relative) out->push_back('/');
  out->append(AxisName(axis));
  out->append("::");
}

// Table 1's abbreviation, or the name where it gives none. A relative
// path's leading child step prints bare.
void AppendAxis(const Step& step, bool first_of_relative, std::string* out) {
  if (step.axis == Axis::kChild && first_of_relative) return;
  const std::string_view abbreviation = AxisAbbreviation(step.axis);
  if (abbreviation.empty()) {
    AppendAxisName(step.axis, first_of_relative, out);
  } else {
    out->append(abbreviation);
  }
}

void AppendPath(const LocationPath& path, std::string* out) {
  int open = 0;
  for (int i = 0; i < path.leading_scopes; ++i) {
    out->push_back('{');
    ++open;
  }
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const Step& step = path.steps[i];
    const bool first_of_relative =
        i == 0 && !path.absolute && path.leading_scopes == 0;
    // An absolute path starts with '/', '//' or '/name::', as it parses.
    if (i == 0 && path.absolute && step.axis != Axis::kChild &&
        step.axis != Axis::kDescendant) {
      AppendAxisName(step.axis, /*first_of_relative=*/false, out);
    } else if (i == 0 && path.leading_scopes > 0 &&
               step.axis == Axis::kChild) {
      out->push_back('/');
    } else {
      AppendAxis(step, first_of_relative, out);
    }
    if (step.left_align) out->push_back('^');
    if (step.test.is_wildcard()) {
      out->push_back('_');
    } else if (IsPlainTag(step.test.name)) {
      out->append(step.test.name);
    } else {
      out->push_back('\'');
      out->append(step.test.name);
      out->push_back('\'');
    }
    if (step.right_align) out->push_back('$');
    for (const PredExprPtr& pred : step.predicates) {
      out->push_back('[');
      out->append(ToString(*pred));
      out->push_back(']');
    }
    for (int s = 0; s < step.opens_scopes; ++s) {
      out->push_back('{');
      ++open;
    }
  }
  for (int s = 0; s < open; ++s) out->push_back('}');
}

void AppendExpr(const PredExpr& e, std::string* out) {
  switch (e.kind) {
    case PredExpr::Kind::kAnd: {
      const bool lp = e.lhs->kind == PredExpr::Kind::kOr;
      const bool rp = e.rhs->kind == PredExpr::Kind::kOr;
      if (lp) out->push_back('(');
      AppendExpr(*e.lhs, out);
      if (lp) out->push_back(')');
      out->append(" and ");
      if (rp) out->push_back('(');
      AppendExpr(*e.rhs, out);
      if (rp) out->push_back(')');
      return;
    }
    case PredExpr::Kind::kOr:
      AppendExpr(*e.lhs, out);
      out->append(" or ");
      AppendExpr(*e.rhs, out);
      return;
    case PredExpr::Kind::kNot:
      out->append("not(");
      AppendExpr(*e.lhs, out);
      out->push_back(')');
      return;
    case PredExpr::Kind::kPath:
      AppendPath(e.path, out);
      return;
    case PredExpr::Kind::kCompare:
      AppendPath(e.path, out);
      out->append(e.cmp == CmpOp::kEq ? "=" : "!=");
      out->append(QuoteIfNeeded(e.literal));
      return;
    case PredExpr::Kind::kPosition: {
      out->append("position()");
      switch (e.cmp) {
        case CmpOp::kEq: out->append("="); break;
        case CmpOp::kNe: out->append("!="); break;
        case CmpOp::kLt: out->append("<"); break;
        case CmpOp::kLe: out->append("<="); break;
        case CmpOp::kGt: out->append(">"); break;
        case CmpOp::kGe: out->append(">="); break;
      }
      if (e.vs_last) {
        out->append("last()");
      } else {
        out->append(std::to_string(e.number));
      }
      return;
    }
    case PredExpr::Kind::kLast:
      out->append("last()");
      return;
    case PredExpr::Kind::kNumber:
      out->append(std::to_string(e.number));
      return;
  }
}

}  // namespace

std::string ToString(const NodeTest& test) {
  return test.is_wildcard() ? "_" : test.name;
}

std::string ToString(const LocationPath& path) {
  std::string out;
  AppendPath(path, &out);
  return out;
}

std::string ToString(const PredExpr& expr) {
  std::string out;
  AppendExpr(expr, &out);
  return out;
}

PredExprPtr CloneExpr(const PredExpr& e) {
  auto out = std::make_unique<PredExpr>(e.kind);
  if (e.lhs) out->lhs = CloneExpr(*e.lhs);
  if (e.rhs) out->rhs = CloneExpr(*e.rhs);
  out->path = ClonePath(e.path);
  out->cmp = e.cmp;
  out->literal = e.literal;
  out->number = e.number;
  out->vs_last = e.vs_last;
  return out;
}

LocationPath ClonePath(const LocationPath& path) {
  LocationPath out;
  out.absolute = path.absolute;
  out.leading_scopes = path.leading_scopes;
  out.steps.reserve(path.steps.size());
  for (const Step& s : path.steps) {
    Step copy;
    copy.axis = s.axis;
    copy.left_align = s.left_align;
    copy.right_align = s.right_align;
    copy.test = s.test;
    copy.opens_scopes = s.opens_scopes;
    copy.predicates.reserve(s.predicates.size());
    for (const PredExprPtr& p : s.predicates) {
      copy.predicates.push_back(CloneExpr(*p));
    }
    out.steps.push_back(std::move(copy));
  }
  return out;
}

namespace {

bool ExprUsesPositional(const PredExpr& e) {
  switch (e.kind) {
    case PredExpr::Kind::kPosition:
    case PredExpr::Kind::kLast:
    case PredExpr::Kind::kNumber:
      return true;
    case PredExpr::Kind::kAnd:
    case PredExpr::Kind::kOr:
      return ExprUsesPositional(*e.lhs) || ExprUsesPositional(*e.rhs);
    case PredExpr::Kind::kNot:
      return ExprUsesPositional(*e.lhs);
    case PredExpr::Kind::kPath:
    case PredExpr::Kind::kCompare:
      return UsesPositionalPredicates(e.path);
  }
  return false;
}

bool ExprXPathExpressible(const PredExpr& e) {
  switch (e.kind) {
    case PredExpr::Kind::kAnd:
    case PredExpr::Kind::kOr:
      return ExprXPathExpressible(*e.lhs) && ExprXPathExpressible(*e.rhs);
    case PredExpr::Kind::kNot:
      return ExprXPathExpressible(*e.lhs);
    case PredExpr::Kind::kPath:
    case PredExpr::Kind::kCompare:
      return IsXPathExpressible(e.path);
    default:
      return true;
  }
}

}  // namespace

bool UsesPositionalPredicates(const LocationPath& path) {
  for (const Step& s : path.steps) {
    for (const PredExprPtr& p : s.predicates) {
      if (ExprUsesPositional(*p)) return true;
    }
  }
  return false;
}

bool IsXPathExpressible(const LocationPath& path) {
  if (path.leading_scopes > 0) return false;
  for (const Step& s : path.steps) {
    if (IsImmediateAxis(s.axis)) return false;
    if (s.left_align || s.right_align) return false;
    if (s.opens_scopes > 0) return false;
    for (const PredExprPtr& p : s.predicates) {
      if (!ExprXPathExpressible(*p)) return false;
    }
  }
  return true;
}

}  // namespace lpath
