#include "sql/parser.h"

#include <map>
#include <optional>

#include "common/str_util.h"
#include "sql/lexer.h"

namespace lpath {
namespace sql {

namespace {

PlanCol* LookupColumn(const std::string& lower, PlanCol* storage) {
  static const std::map<std::string, PlanCol> kCols = {
      {"tid", PlanCol::kTid},     {"left", PlanCol::kLeft},
      {"right", PlanCol::kRight}, {"depth", PlanCol::kDepth},
      {"id", PlanCol::kId},       {"pid", PlanCol::kPid},
      {"name", PlanCol::kName},   {"value", PlanCol::kValue},
      {"kind", PlanCol::kKind},
  };
  auto it = kCols.find(lower);
  if (it == kCols.end()) return nullptr;
  *storage = it->second;
  return storage;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ExecPlan> ParseStatement() {
    LPATH_ASSIGN_OR_RETURN(ExecPlan plan,
                           ParseSelect(/*outer=*/nullptr, /*exists=*/false));
    if (!IsEnd()) return Error("unexpected trailing input");
    return plan;
  }

 private:
  using AliasMap = std::map<std::string, int>;

  const Token& Cur() const { return tokens_[idx_]; }
  bool IsEnd() const { return Cur().kind == TokenKind::kEnd; }
  void Advance() {
    if (!IsEnd()) ++idx_;
  }
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("SQL parse error at offset " +
                                   std::to_string(Cur().pos) + ": " + what);
  }
  bool EatKeyword(std::string_view kw) {
    if (Cur().kind != TokenKind::kIdent) return false;
    if (AsciiToLower(Cur().text) != AsciiToLower(std::string(kw))) return false;
    Advance();
    return true;
  }
  bool PeekKeyword(std::string_view kw) const {
    return Cur().kind == TokenKind::kIdent &&
           AsciiToLower(Cur().text) == AsciiToLower(std::string(kw));
  }
  bool Eat(TokenKind k) {
    if (Cur().kind != k) return false;
    Advance();
    return true;
  }

  Result<std::string> ExpectIdent(const std::string& what) {
    if (Cur().kind != TokenKind::kIdent) return Error("expected " + what);
    std::string s = Cur().text;
    Advance();
    return s;
  }

  /// Parses "SELECT DISTINCT x.tid, x.id" or "SELECT 1" plus FROM/WHERE.
  Result<ExecPlan> ParseSelect(const AliasMap* outer, bool exists) {
    if (!EatKeyword("SELECT")) return Error("expected SELECT");
    ExecPlan plan;
    std::string out_alias;
    if (exists) {
      if (Cur().kind != TokenKind::kNumber || Cur().number != 1) {
        return Error("expected SELECT 1 in EXISTS subquery");
      }
      Advance();
    } else {
      if (!EatKeyword("DISTINCT")) return Error("expected DISTINCT");
      LPATH_ASSIGN_OR_RETURN(out_alias, ExpectIdent("output alias"));
      if (!Eat(TokenKind::kDot)) return Error("expected '.'");
      LPATH_ASSIGN_OR_RETURN(std::string c1, ExpectIdent("column"));
      if (AsciiToLower(c1) != "tid") return Error("projection must be tid, id");
      if (!Eat(TokenKind::kComma)) return Error("expected ','");
      LPATH_ASSIGN_OR_RETURN(std::string a2, ExpectIdent("output alias"));
      if (a2 != out_alias) {
        return Error("projection must use a single alias");
      }
      if (!Eat(TokenKind::kDot)) return Error("expected '.'");
      LPATH_ASSIGN_OR_RETURN(std::string c2, ExpectIdent("column"));
      if (AsciiToLower(c2) != "id") return Error("projection must be tid, id");
    }

    if (!EatKeyword("FROM")) return Error("expected FROM");
    AliasMap aliases;
    for (;;) {
      LPATH_ASSIGN_OR_RETURN(std::string table, ExpectIdent("table name"));
      (void)table;  // single-relation dialect; the name is not interpreted
      if (!EatKeyword("AS")) return Error("expected AS");
      LPATH_ASSIGN_OR_RETURN(std::string alias, ExpectIdent("alias"));
      if (aliases.count(alias)) return Error("duplicate alias " + alias);
      const int var = static_cast<int>(aliases.size());
      aliases[alias] = var;
      if (!Eat(TokenKind::kComma)) break;
    }
    plan.num_vars = static_cast<int>(aliases.size());

    if (!exists) {
      auto it = aliases.find(out_alias);
      if (it == aliases.end()) return Error("unknown output alias");
      plan.output_var = it->second;
    }

    if (EatKeyword("WHERE")) {
      LPATH_RETURN_IF_ERROR(ParseWhere(aliases, outer, &plan));
    }
    return plan;
  }

  /// Parses a WHERE clause into `plan`'s conjuncts and filters. Its
  /// top-level AND chain is collected term by term and never built into a
  /// tree, so it may be as long as the LPath compiler makes it. A clause
  /// whose top level is an OR becomes one filter tree instead, whose links
  /// count as nesting like every other chain's.
  Status ParseWhere(const AliasMap& aliases, const AliasMap* outer,
                    ExecPlan* plan) {
    std::vector<std::unique_ptr<BoolExpr>> terms;
    do {
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> term,
                             ParseUnary(aliases, outer));
      terms.push_back(std::move(term));
    } while (EatKeyword("AND"));
    if (PeekKeyword("OR")) {
      std::unique_ptr<BoolExpr> chain = std::move(terms[0]);
      for (size_t i = 1; i < terms.size(); ++i) {
        LPATH_RETURN_IF_ERROR(CountLink());
        chain = Join(BoolExpr::Kind::kAnd, std::move(chain),
                     std::move(terms[i]));
      }
      terms.clear();
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> where,
                             ParseOrTail(std::move(chain), aliases, outer));
      terms.push_back(std::move(where));
    }
    for (std::unique_ptr<BoolExpr>& term : terms) {
      Flatten(std::move(term), plan);
    }
    return Status::OK();
  }

  /// Distributes a parsed boolean tree into conjuncts + filters: a
  /// parenthesized AND group joins the enclosing conjunction.
  static void Flatten(std::unique_ptr<BoolExpr> e, ExecPlan* plan) {
    if (e->kind == BoolExpr::Kind::kAnd) {
      Flatten(std::move(e->lhs), plan);
      Flatten(std::move(e->rhs), plan);
      return;
    }
    if (e->kind == BoolExpr::Kind::kCmp) {
      plan->conjuncts.push_back(e->cmp);
      return;
    }
    plan->filters.push_back(std::move(e));
  }

  static std::unique_ptr<BoolExpr> Join(BoolExpr::Kind kind,
                                        std::unique_ptr<BoolExpr> lhs,
                                        std::unique_ptr<BoolExpr> rhs) {
    auto node = std::make_unique<BoolExpr>(kind);
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  /// Counts one AND/OR link of a chain built into a tree. A chain of n
  /// links is a left-deep tree n levels deep, so the links of a statement
  /// add to its nesting: with the live ParseUnary levels they may not reach
  /// kMaxSqlNesting, which keeps every recursion over the tree (evaluation,
  /// Clone, the destructor) bounded.
  Status CountLink() {
    if (nesting_ + links_ >= kMaxSqlNesting) return NestingError();
    ++links_;
    return Status::OK();
  }

  Status NestingError() const {
    return Error("expressions nested deeper than " +
                 std::to_string(kMaxSqlNesting) +
                 " levels (AND/OR chain links count as levels)");
  }

  Result<std::unique_ptr<BoolExpr>> ParseOr(const AliasMap& aliases,
                                            const AliasMap* outer) {
    LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> lhs,
                           ParseAnd(aliases, outer));
    return ParseOrTail(std::move(lhs), aliases, outer);
  }

  /// The `OR <and-chain>`... rest of an OR chain whose first operand is
  /// `lhs`.
  Result<std::unique_ptr<BoolExpr>> ParseOrTail(std::unique_ptr<BoolExpr> lhs,
                                                const AliasMap& aliases,
                                                const AliasMap* outer) {
    while (EatKeyword("OR")) {
      LPATH_RETURN_IF_ERROR(CountLink());
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> rhs,
                             ParseAnd(aliases, outer));
      lhs = Join(BoolExpr::Kind::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<BoolExpr>> ParseAnd(const AliasMap& aliases,
                                             const AliasMap* outer) {
    LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> lhs,
                           ParseUnary(aliases, outer));
    while (EatKeyword("AND")) {
      LPATH_RETURN_IF_ERROR(CountLink());
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> rhs,
                             ParseUnary(aliases, outer));
      lhs = Join(BoolExpr::Kind::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  /// Every recursive cycle of the grammar — NOT, EXISTS and parentheses —
  /// passes through here, so this counter, together with the chain links
  /// (CountLink), bounds the parser's stack depth and the nesting of the
  /// plan the executor recurses over.
  Result<std::unique_ptr<BoolExpr>> ParseUnary(const AliasMap& aliases,
                                               const AliasMap* outer) {
    if (nesting_ + links_ >= kMaxSqlNesting) return NestingError();
    ++nesting_;
    Result<std::unique_ptr<BoolExpr>> expr = ParsePrimary(aliases, outer);
    --nesting_;
    return expr;
  }

  Result<std::unique_ptr<BoolExpr>> ParsePrimary(const AliasMap& aliases,
                                                 const AliasMap* outer) {
    if (EatKeyword("NOT")) {
      if (!Eat(TokenKind::kLParen)) return Error("expected '(' after NOT");
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> inner,
                             ParseOr(aliases, outer));
      if (!Eat(TokenKind::kRParen)) return Error("expected ')'");
      auto node = std::make_unique<BoolExpr>(BoolExpr::Kind::kNot);
      node->lhs = std::move(inner);
      return node;
    }
    if (EatKeyword("EXISTS")) {
      if (!Eat(TokenKind::kLParen)) return Error("expected '(' after EXISTS");
      LPATH_ASSIGN_OR_RETURN(ExecPlan sub,
                             ParseSelect(&aliases, /*exists=*/true));
      if (!Eat(TokenKind::kRParen)) return Error("expected ')'");
      auto node = std::make_unique<BoolExpr>(BoolExpr::Kind::kExists);
      node->sub = std::make_unique<ExecPlan>(std::move(sub));
      return node;
    }
    if (Eat(TokenKind::kLParen)) {
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> inner,
                             ParseOr(aliases, outer));
      if (!Eat(TokenKind::kRParen)) return Error("expected ')'");
      return inner;
    }
    // Comparison.
    LPATH_ASSIGN_OR_RETURN(Operand lhs, ParseOperand(aliases, outer));
    CmpOp op;
    switch (Cur().kind) {
      case TokenKind::kEq: op = CmpOp::kEq; break;
      case TokenKind::kNe: op = CmpOp::kNe; break;
      case TokenKind::kLt: op = CmpOp::kLt; break;
      case TokenKind::kLe: op = CmpOp::kLe; break;
      case TokenKind::kGt: op = CmpOp::kGt; break;
      case TokenKind::kGe: op = CmpOp::kGe; break;
      default: return Error("expected comparison operator");
    }
    Advance();
    LPATH_ASSIGN_OR_RETURN(Operand rhs, ParseOperand(aliases, outer));

    // Normalize: the executor requires a column on the left.
    if (lhs.is_literal()) {
      if (rhs.is_literal()) return Error("literal-only comparison");
      std::swap(lhs, rhs);
      switch (op) {
        case CmpOp::kLt: op = CmpOp::kGt; break;
        case CmpOp::kLe: op = CmpOp::kGe; break;
        case CmpOp::kGt: op = CmpOp::kLt; break;
        case CmpOp::kGe: op = CmpOp::kLe; break;
        default: break;
      }
    }
    auto node = std::make_unique<BoolExpr>(BoolExpr::Kind::kCmp);
    node->cmp = Conjunct{std::move(lhs), op, std::move(rhs)};
    return node;
  }

  Result<Operand> ParseOperand(const AliasMap& aliases, const AliasMap* outer) {
    if (Cur().kind == TokenKind::kNumber) {
      Operand op = Operand::Number(Cur().number);
      Advance();
      return op;
    }
    if (Cur().kind == TokenKind::kString) {
      Operand op = Operand::String(Cur().text);
      Advance();
      return op;
    }
    LPATH_ASSIGN_OR_RETURN(std::string alias, ExpectIdent("alias"));
    if (!Eat(TokenKind::kDot)) return Error("expected '.' after alias");
    LPATH_ASSIGN_OR_RETURN(std::string col, ExpectIdent("column"));
    PlanCol pc;
    if (LookupColumn(AsciiToLower(col), &pc) == nullptr) {
      return Error("unknown column " + col);
    }
    auto it = aliases.find(alias);
    if (it != aliases.end()) return Operand::Column(it->second, pc);
    if (outer != nullptr) {
      auto oit = outer->find(alias);
      if (oit != outer->end()) {
        return Operand::Column(Operand::kOuterVarBase + oit->second, pc);
      }
    }
    return Error("unknown alias " + alias);
  }

  std::vector<Token> tokens_;
  size_t idx_ = 0;
  int nesting_ = 0;  ///< live ParseUnary calls
  int links_ = 0;    ///< chain links built into trees so far (CountLink)
};

}  // namespace

Result<ExecPlan> ParseSql(std::string_view text) {
  LPATH_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

}  // namespace sql
}  // namespace lpath
