#include "sql/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <map>
#include <optional>

namespace lpath {
namespace sql {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

/// Resolves a column name, case-insensitively, against PlanColName.
std::optional<PlanCol> LookupColumn(std::string_view name) {
  for (int c = 0; c <= static_cast<int>(PlanCol::kKind); ++c) {
    if (EqualsIgnoreCase(name, PlanColName(static_cast<PlanCol>(c)))) {
      return static_cast<PlanCol>(c);
    }
  }
  return std::nullopt;
}

/// Recursive-descent parser over the statement text. The cursor always
/// rests on the first byte of the next token (each token is consumed
/// together with the whitespace after it), so an error's offset names the
/// token the parser stopped at.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) { Skip(0); }

  Result<ExecPlan> ParseStatement() {
    LPATH_ASSIGN_OR_RETURN(ExecPlan plan,
                           ParseSelect(/*outer=*/nullptr, /*exists=*/false));
    if (pos_ != text_.size()) return Error("unexpected trailing input");
    return plan;
  }

 private:
  using AliasMap = std::map<std::string_view, int>;

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  /// Consumes `n` bytes of the current token and the whitespace after it.
  void Skip(size_t n) {
    pos_ += n;
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("SQL parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }
  bool Eat(char c) {
    if (Peek() != c) return false;
    Skip(1);
    return true;
  }

  /// The identifier at the cursor, empty when none starts there.
  std::string_view PeekIdent() const {
    if (!IsIdentStart(Peek())) return {};
    size_t end = pos_ + 1;
    while (end < text_.size() && IsIdentChar(text_[end])) ++end;
    return text_.substr(pos_, end - pos_);
  }
  /// Keywords are whole identifiers, matched case-insensitively.
  bool PeekKeyword(std::string_view kw) const {
    return EqualsIgnoreCase(PeekIdent(), kw);
  }
  bool EatKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) return false;
    Skip(kw.size());
    return true;
  }

  Result<std::string_view> ExpectIdent(const char* what) {
    const std::string_view s = PeekIdent();
    if (s.empty()) return Error(std::string("expected ") + what);
    Skip(s.size());
    return s;
  }

  /// Scans the unsigned decimal number at the cursor, which starts with a
  /// digit.
  Result<int64_t> ScanNumber() {
    size_t end = pos_;
    while (end < text_.size() && IsDigit(text_[end])) ++end;
    int64_t v = 0;
    if (std::from_chars(text_.data() + pos_, text_.data() + end, v).ec !=
        std::errc()) {
      return Error("number out of range");
    }
    Skip(end - pos_);
    return v;
  }

  /// Scans the '...' string at the cursor; '' inside it stands for '.
  Result<std::string> ScanString() {
    std::string s;
    for (size_t i = pos_ + 1; i < text_.size(); ++i) {
      if (text_[i] != '\'') {
        s.push_back(text_[i]);
      } else if (i + 1 < text_.size() && text_[i + 1] == '\'') {
        s.push_back('\'');
        ++i;
      } else {
        Skip(i + 1 - pos_);
        return s;
      }
    }
    return Error("unterminated string");
  }

  /// Scans = != <> < <= > >=.
  bool EatCmpOp(CmpOp* op) {
    static constexpr std::pair<std::string_view, CmpOp> kOps[] = {
        {"!=", CmpOp::kNe}, {"<>", CmpOp::kNe}, {"<=", CmpOp::kLe},
        {">=", CmpOp::kGe}, {"=", CmpOp::kEq},  {"<", CmpOp::kLt},
        {">", CmpOp::kGt},
    };
    for (const auto& [spelling, cmp] : kOps) {
      if (text_.substr(pos_, spelling.size()) == spelling) {
        *op = cmp;
        Skip(spelling.size());
        return true;
      }
    }
    return false;
  }

  /// Parses "SELECT DISTINCT x.tid, x.id" or "SELECT 1" plus FROM/WHERE.
  Result<ExecPlan> ParseSelect(const AliasMap* outer, bool exists) {
    if (!EatKeyword("SELECT")) return Error("expected SELECT");
    ExecPlan plan;
    std::string_view out_alias;
    if (exists) {
      constexpr char kSelectOne[] = "expected SELECT 1 in EXISTS subquery";
      if (!IsDigit(Peek())) return Error(kSelectOne);
      LPATH_ASSIGN_OR_RETURN(int64_t one, ScanNumber());
      if (one != 1) return Error(kSelectOne);
    } else {
      constexpr char kProjection[] = "projection must be a.tid, a.id";
      if (!EatKeyword("DISTINCT")) return Error("expected DISTINCT");
      LPATH_ASSIGN_OR_RETURN(out_alias, ExpectIdent("output alias"));
      if (!Eat('.') || !EatKeyword("tid") || !Eat(',') ||
          PeekIdent() != out_alias) {
        return Error(kProjection);
      }
      Skip(out_alias.size());
      if (!Eat('.') || !EatKeyword("id")) return Error(kProjection);
    }

    if (!EatKeyword("FROM")) return Error("expected FROM");
    AliasMap aliases;
    for (;;) {
      // Single-relation dialect: the table name is not interpreted.
      LPATH_RETURN_IF_ERROR(ExpectIdent("table name").status());
      if (!EatKeyword("AS")) return Error("expected AS");
      LPATH_ASSIGN_OR_RETURN(std::string_view alias, ExpectIdent("alias"));
      const int var = static_cast<int>(aliases.size());
      if (!aliases.emplace(alias, var).second) {
        return Error("duplicate alias " + std::string(alias));
      }
      if (!Eat(',')) break;
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
      if (!Eat('(')) return Error("expected '(' after NOT");
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> inner,
                             ParseOr(aliases, outer));
      if (!Eat(')')) return Error("expected ')'");
      auto node = std::make_unique<BoolExpr>(BoolExpr::Kind::kNot);
      node->lhs = std::move(inner);
      return node;
    }
    if (EatKeyword("EXISTS")) {
      if (!Eat('(')) return Error("expected '(' after EXISTS");
      LPATH_ASSIGN_OR_RETURN(ExecPlan sub,
                             ParseSelect(&aliases, /*exists=*/true));
      if (!Eat(')')) return Error("expected ')'");
      auto node = std::make_unique<BoolExpr>(BoolExpr::Kind::kExists);
      node->sub = std::make_unique<ExecPlan>(std::move(sub));
      return node;
    }
    if (Eat('(')) {
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> inner,
                             ParseOr(aliases, outer));
      if (!Eat(')')) return Error("expected ')'");
      return inner;
    }
    // Comparison.
    LPATH_ASSIGN_OR_RETURN(Operand lhs, ParseOperand(aliases, outer));
    CmpOp op;
    if (!EatCmpOp(&op)) return Error("expected comparison operator");
    LPATH_ASSIGN_OR_RETURN(Operand rhs, ParseOperand(aliases, outer));
    // A literal-first comparison is oriented column-first by sql::Prepare.
    if (lhs.is_literal() && rhs.is_literal()) {
      return Error("literal-only comparison");
    }
    auto node = std::make_unique<BoolExpr>(BoolExpr::Kind::kCmp);
    node->cmp = Conjunct{std::move(lhs), op, std::move(rhs)};
    return node;
  }

  Result<Operand> ParseOperand(const AliasMap& aliases, const AliasMap* outer) {
    if (IsDigit(Peek())) {
      LPATH_ASSIGN_OR_RETURN(int64_t num, ScanNumber());
      return Operand::Number(num);
    }
    if (Peek() == '\'') {
      LPATH_ASSIGN_OR_RETURN(std::string str, ScanString());
      return Operand::String(std::move(str));
    }
    LPATH_ASSIGN_OR_RETURN(std::string_view alias, ExpectIdent("alias"));
    if (!Eat('.')) return Error("expected '.' after alias");
    LPATH_ASSIGN_OR_RETURN(std::string_view col, ExpectIdent("column"));
    const std::optional<PlanCol> pc = LookupColumn(col);
    if (!pc.has_value()) return Error("unknown column " + std::string(col));
    auto it = aliases.find(alias);
    if (it != aliases.end()) return Operand::Column(it->second, *pc);
    if (outer != nullptr) {
      auto oit = outer->find(alias);
      if (oit != outer->end()) {
        return Operand::Outer(oit->second, *pc);
      }
    }
    return Error("unknown alias " + std::string(alias));
  }

  std::string_view text_;
  size_t pos_ = 0;
  int nesting_ = 0;  ///< live ParseUnary calls
  int links_ = 0;    ///< chain links built into trees so far (CountLink)
};

}  // namespace

Result<ExecPlan> ParseSql(std::string_view text) {
  return Parser(text).ParseStatement();
}

}  // namespace sql
}  // namespace lpath
