#include "lpath/parser.h"

#include <cctype>
#include <charconv>
#include <string>

namespace lpath {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<LocationPath> ParseQuery() {
    SkipWs();
    LPATH_ASSIGN_OR_RETURN(LocationPath path, ParsePath(/*top_level=*/true));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("unexpected trailing input");
    }
    if (path.steps.empty()) {
      return Error("empty query");
    }
    return path;
  }

 private:
  // --- Character helpers ----------------------------------------------------
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  bool AtEnd() const { return pos_ >= text_.size(); }
  void SkipWs() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(std::string_view token) {
    if (text_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("LPath parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
  }
  static bool IsDigit(char c) {
    return std::isdigit(static_cast<unsigned char>(c));
  }

  /// Scans a tag token. A '-' belongs to the tag unless "->" or "-->"
  /// begins at that position (those are the immediate-following / following
  /// axes). Tags containing other characters (e.g. "PRP$", ".") must be
  /// quoted.
  std::string ScanTag() {
    size_t start = pos_;
    while (!AtEnd()) {
      char c = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        ++pos_;
      } else if (c == '-') {
        if (Peek(1) == '>') break;                     // "->"
        if (Peek(1) == '-' && Peek(2) == '>') break;   // "-->"
        ++pos_;
      } else {
        break;
      }
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Scans a quoted string ('...' or "..."); no escape sequences.
  Result<std::string> ScanQuoted() {
    const char quote = text_[pos_];
    ++pos_;
    size_t start = pos_;
    while (!AtEnd() && text_[pos_] != quote) ++pos_;
    if (AtEnd()) return Error("unterminated quoted string");
    std::string out(text_.substr(start, pos_ - start));
    ++pos_;  // closing quote
    return out;
  }

  // --- Axes -------------------------------------------------------------------
  /// Tries an axis abbreviation of Table 1 at the current position, taking
  /// the longest that matches ("-->" over "->"). Returns true and sets
  /// `axis` on success; leaves pos_ unchanged on failure. Self's '.' is
  /// ParseStep's, since a lone '.' is a whole step.
  bool TryParseAxisSymbol(Axis* axis) {
    size_t longest = 0;
    for (int a = 0; a < kAxisCount; ++a) {
      const std::string_view abbreviation =
          AxisAbbreviation(static_cast<Axis>(a));
      if (abbreviation.size() > longest && abbreviation != "." &&
          text_.substr(pos_, abbreviation.size()) == abbreviation) {
        longest = abbreviation.size();
        *axis = static_cast<Axis>(a);
      }
    }
    pos_ += longest;
    return longest > 0;
  }

  /// Tries "axisname::"; leaves pos_ unchanged on failure.
  bool TryParseAxisName(Axis* axis) {
    size_t p = pos_;
    while (p < text_.size() &&
           (std::isalpha(static_cast<unsigned char>(text_[p])) ||
            text_[p] == '-')) {
      ++p;
    }
    if (p == pos_ || text_.substr(p, 2) != "::") return false;
    const std::string_view name = text_.substr(pos_, p - pos_);
    for (int a = 0; a < kAxisCount; ++a) {
      if (AxisName(static_cast<Axis>(a)) == name) {
        pos_ = p + 2;
        *axis = static_cast<Axis>(a);
        return true;
      }
    }
    return false;
  }

  /// "/descendant::" and "\ancestor::" forms from the Figure 4 grammar.
  bool TryParseSlashAxisName(Axis* axis) {
    size_t save = pos_;
    if (Eat("/")) {
      if (TryParseAxisName(axis)) return true;
      pos_ = save;
      return false;
    }
    if (Eat("\\")) {
      if (TryParseAxisName(axis)) return true;
      pos_ = save;
      return false;
    }
    return false;
  }

  // --- Steps and paths ----------------------------------------------------
  /// Parses one step. `first` marks the first step of the path; `top_level`
  /// marks the outermost (absolute) path. Returns NotFound (without
  /// consuming) if no step starts here.
  Result<Step> ParseStep(bool first, bool top_level) {
    Step step;
    SkipWs();
    if (AtEnd()) return Status::NotFound("end");

    const char c = Peek();
    // Decide whether a step can start here at all.
    if (c == ']' || c == ')' || c == '}' || c == '!') {
      return Status::NotFound("no step");
    }

    bool have_axis = false;
    if (first && top_level) {
      // Absolute start: '//' (any node) or '/' (the root).
      if (Eat("//")) {
        step.axis = Axis::kDescendant;
      } else if (TryParseSlashAxisName(&step.axis)) {
        // "/descendant::" etc. — treated relative to the super-root.
      } else if (Eat("/")) {
        step.axis = Axis::kChild;
      } else {
        return Error("query must begin with '/' or '//'");
      }
      have_axis = true;
    } else {
      if (c == '=' ) {
        // '=>'/'==>' are axes; bare '=' is a comparison → not a step.
        if (!(Peek(1) == '>' || (Peek(1) == '=' && Peek(2) == '>'))) {
          return Status::NotFound("comparison");
        }
      }
      if (c == '<') {
        // '<-', '<--', '<=', '<==' are axes; anything else is not a step.
        if (!(Peek(1) == '-' || Peek(1) == '=')) {
          return Status::NotFound("comparison");
        }
      }
      if (c == '-' && !(Peek(1) == '>' || (Peek(1) == '-' && Peek(2) == '>'))) {
        // A tag starting with '-' (e.g. -NONE-) — only legal as a bare
        // first step (implicit child).
        if (!first) return Status::NotFound("no axis");
      }
      if (Eat("..")) {
        step.axis = Axis::kParent;
        step.test = NodeTest::Wildcard();
        return ParseStepTail(std::move(step), /*skip_test=*/true);
      }
      if (TryParseSlashAxisName(&step.axis)) {
        have_axis = true;
      } else if (TryParseAxisName(&step.axis)) {
        have_axis = true;
      } else if (TryParseAxisSymbol(&step.axis)) {
        have_axis = true;
      } else if (c == '.') {
        // '.': self axis; as a complete step when no node test follows.
        ++pos_;
        step.axis = Axis::kSelf;
        SkipWs();
        const char n = Peek();
        if (!(IsIdentChar(n) || n == '*' || n == '\'' || n == '"' ||
              n == '^')) {
          step.test = NodeTest::Wildcard();
          return ParseStepTail(std::move(step), /*skip_test=*/true);
        }
        have_axis = true;
      }
      if (!have_axis) {
        // Bare node test → implicit child axis, only as the first step of a
        // relative path.
        if (!first) return Status::NotFound("no axis");
        if (!(IsIdentChar(c) || c == '*' || c == '\'' || c == '"' ||
              c == '^')) {
          return Status::NotFound("no step");
        }
        step.axis = Axis::kChild;
      }
    }
    // XPath abbreviated steps after a '/' separator: "..", ".", "@name".
    if (step.axis == Axis::kChild) {
      if (Eat("..")) {
        step.axis = Axis::kParent;
        step.test = NodeTest::Wildcard();
        return ParseStepTail(std::move(step), /*skip_test=*/true);
      }
      if (Peek() == '.') {
        ++pos_;
        step.axis = Axis::kSelf;
        const char n = Peek();
        if (!(IsIdentChar(n) || n == '*' || n == '\'' || n == '"' ||
              n == '^')) {
          step.test = NodeTest::Wildcard();
          return ParseStepTail(std::move(step), /*skip_test=*/true);
        }
      } else if (Eat("@")) {
        step.axis = Axis::kAttribute;
      }
    }
    return ParseStepTail(std::move(step), /*skip_test=*/false);
  }

  Result<Step> ParseStepTail(Step step, bool skip_test) {
    if (!skip_test) {
      SkipWs();
      if (Eat("^")) step.left_align = true;
      SkipWs();
      const char c = Peek();
      if (c == '\'' || c == '"') {
        LPATH_ASSIGN_OR_RETURN(std::string name, ScanQuoted());
        if (name.empty()) return Error("empty quoted node test");
        step.test = NodeTest::Name(std::move(name));
      } else if (c == '*') {
        ++pos_;
        step.test = NodeTest::Wildcard();
      } else {
        std::string name = ScanTag();
        if (name.empty()) return Error("expected node test");
        if (name == "_") {
          step.test = NodeTest::Wildcard();
        } else {
          step.test = NodeTest::Name(std::move(name));
        }
      }
      if (Eat("$")) step.right_align = true;
    }
    // Predicates.
    SkipWs();
    while (Peek() == '[') {
      ++pos_;
      LPATH_ASSIGN_OR_RETURN(PredExprPtr pred, ParsePredOr());
      SkipWs();
      if (!Eat("]")) return Error("expected ']'");
      step.predicates.push_back(std::move(pred));
      SkipWs();
    }
    // Scope openings.
    while (Peek() == '{') {
      ++pos_;
      step.opens_scopes += 1;
      SkipWs();
    }
    return step;
  }

  Result<LocationPath> ParsePath(bool top_level) {
    LocationPath path;
    path.absolute = top_level;
    int open = 0;
    SkipWs();
    if (!top_level) {
      while (Peek() == '{') {
        ++pos_;
        path.leading_scopes += 1;
        ++open;
        SkipWs();
      }
    }
    bool first = true;
    bool closed_tail = false;
    for (;;) {
      SkipWs();
      if (Peek() == '}' && open > 0) {
        ++pos_;
        --open;
        closed_tail = true;
        continue;
      }
      Result<Step> step = ParseStep(first, top_level && first);
      if (!step.ok()) {
        if (step.status().IsNotFound()) break;
        return step.status();
      }
      if (closed_tail) {
        return Error("steps may not follow '}' (scopes extend to the end "
                     "of the path)");
      }
      open += step.value().opens_scopes;
      path.steps.push_back(std::move(step).value());
      first = false;
    }
    if (open > 0) return Error("unclosed '{'");
    if (path.steps.empty() && path.leading_scopes > 0) {
      return Error("scope without steps");
    }
    LPATH_RETURN_IF_ERROR(ValidatePath(path));
    return path;
  }

  Status ValidatePath(const LocationPath& path) const {
    for (size_t i = 0; i < path.steps.size(); ++i) {
      const Step& s = path.steps[i];
      if (s.axis == Axis::kAttribute) {
        if (i + 1 != path.steps.size()) {
          return Status::InvalidArgument(
              "attribute step must be the last step of its path");
        }
        if (s.left_align || s.right_align) {
          return Status::InvalidArgument(
              "edge alignment cannot apply to an attribute step");
        }
        if (s.opens_scopes > 0) {
          return Status::InvalidArgument(
              "an attribute step cannot open a scope");
        }
      }
    }
    return Status::OK();
  }

  // --- Predicates ------------------------------------------------------------
  /// Matches a keyword followed by a non-identifier character.
  bool EatKeyword(std::string_view kw) {
    size_t save = pos_;
    if (!Eat(kw)) return false;
    if (!AtEnd() && IsIdentChar(text_[pos_])) {
      pos_ = save;
      return false;
    }
    return true;
  }

  /// Matches "name()" with optional internal whitespace; restores on failure.
  bool EatCall(std::string_view name) {
    size_t save = pos_;
    if (!Eat(name)) return false;
    SkipWs();
    if (Eat("(")) {
      SkipWs();
      if (Eat(")")) return true;
    }
    pos_ = save;
    return false;
  }

  /// Opens one nesting level (see kMaxLPathNesting); callers restore
  /// nesting_ when the production that opened it returns. An error ends
  /// the whole parse, so error paths need not restore it.
  Status Nest() {
    if (nesting_ == kMaxLPathNesting) {
      return Error("predicates nested deeper than " +
                   std::to_string(kMaxLPathNesting) + " levels");
    }
    ++nesting_;
    return Status::OK();
  }

  // An and/or chain builds a left-deep tree, so each operator nests the
  // chain one level deeper and holds its level until the chain ends.
  Result<PredExprPtr> ParsePredOr() {
    const int outer = nesting_;
    LPATH_ASSIGN_OR_RETURN(PredExprPtr lhs, ParsePredAnd());
    for (;;) {
      SkipWs();
      if (!EatKeyword("or")) break;
      LPATH_RETURN_IF_ERROR(Nest());
      LPATH_ASSIGN_OR_RETURN(PredExprPtr rhs, ParsePredAnd());
      auto node = std::make_unique<PredExpr>(PredExpr::Kind::kOr);
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    nesting_ = outer;
    return lhs;
  }

  Result<PredExprPtr> ParsePredAnd() {
    const int outer = nesting_;
    LPATH_ASSIGN_OR_RETURN(PredExprPtr lhs, ParsePredUnary());
    for (;;) {
      SkipWs();
      if (!EatKeyword("and")) break;
      LPATH_RETURN_IF_ERROR(Nest());
      LPATH_ASSIGN_OR_RETURN(PredExprPtr rhs, ParsePredUnary());
      auto node = std::make_unique<PredExpr>(PredExpr::Kind::kAnd);
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    nesting_ = outer;
    return lhs;
  }

  Result<CmpOp> ParseCmpOp() {
    SkipWs();
    if (Eat("!=")) return CmpOp::kNe;
    if (Eat("<=")) return CmpOp::kLe;
    if (Eat(">=")) return CmpOp::kGe;
    if (Eat("=")) return CmpOp::kEq;
    if (Eat("<")) return CmpOp::kLt;
    if (Eat(">")) return CmpOp::kGt;
    return Error("expected comparison operator");
  }

  /// Every recursive cycle of the grammar — '[', '(' and not(...) — passes
  /// through here, so together with the and/or chains this bounds the
  /// parser's stack depth and the depth of the AST that compile, prepare
  /// and execute recurse over.
  Result<PredExprPtr> ParsePredUnary() {
    LPATH_RETURN_IF_ERROR(Nest());
    Result<PredExprPtr> pred = ParsePredPrimary();
    --nesting_;
    return pred;
  }

  Result<PredExprPtr> ParsePredPrimary() {
    SkipWs();
    // not(...)
    {
      size_t save = pos_;
      if (EatKeyword("not")) {
        SkipWs();
        if (Eat("(")) {
          LPATH_ASSIGN_OR_RETURN(PredExprPtr inner, ParsePredOr());
          SkipWs();
          if (!Eat(")")) return Error("expected ')'");
          auto node = std::make_unique<PredExpr>(PredExpr::Kind::kNot);
          node->lhs = std::move(inner);
          return node;
        }
        pos_ = save;
      }
    }
    if (Peek() == '(') {
      ++pos_;
      LPATH_ASSIGN_OR_RETURN(PredExprPtr inner, ParsePredOr());
      SkipWs();
      if (!Eat(")")) return Error("expected ')'");
      return inner;
    }
    if (EatCall("position")) {
      LPATH_ASSIGN_OR_RETURN(CmpOp op, ParseCmpOp());
      auto node = std::make_unique<PredExpr>(PredExpr::Kind::kPosition);
      node->cmp = op;
      SkipWs();
      if (EatCall("last")) {
        node->vs_last = true;
      } else {
        LPATH_ASSIGN_OR_RETURN(node->number, ParseNumber());
      }
      return node;
    }
    if (EatCall("last")) {
      return std::make_unique<PredExpr>(PredExpr::Kind::kLast);
    }
    // Disambiguate [3] from a path starting with tag "3..." — a digit run
    // followed by identifier characters is a tag.
    size_t digits_end = pos_;
    while (digits_end < text_.size() && IsDigit(text_[digits_end])) {
      ++digits_end;
    }
    if (digits_end > pos_ &&
        (digits_end == text_.size() || !IsIdentChar(text_[digits_end]))) {
      auto node = std::make_unique<PredExpr>(PredExpr::Kind::kNumber);
      LPATH_ASSIGN_OR_RETURN(node->number, ParseNumber());
      return node;
    }
    // A relative path, optionally compared with a literal.
    LPATH_ASSIGN_OR_RETURN(LocationPath p, ParsePath(/*top_level=*/false));
    if (p.steps.empty()) return Error("expected predicate expression");
    SkipWs();
    const char c = Peek();
    if (c == '=' && Peek(1) != '>' && !(Peek(1) == '=' && Peek(2) == '>')) {
      ++pos_;
      return MakeCompare(std::move(p), CmpOp::kEq);
    }
    if (c == '!' && Peek(1) == '=') {
      pos_ += 2;
      return MakeCompare(std::move(p), CmpOp::kNe);
    }
    auto node = std::make_unique<PredExpr>(PredExpr::Kind::kPath);
    node->path = std::move(p);
    return node;
  }

  Result<PredExprPtr> MakeCompare(LocationPath p, CmpOp op) {
    if (p.steps.empty() || p.steps.back().axis != Axis::kAttribute) {
      return Status::NotSupported(
          "value comparison requires a path ending in an attribute step "
          "(e.g. @lex=saw)");
    }
    auto node = std::make_unique<PredExpr>(PredExpr::Kind::kCompare);
    node->path = std::move(p);
    node->cmp = op;
    SkipWs();
    const char c = Peek();
    if (c == '\'' || c == '"') {
      LPATH_ASSIGN_OR_RETURN(node->literal, ScanQuoted());
    } else {
      size_t start = pos_;
      while (!AtEnd()) {
        char ch = text_[pos_];
        if (std::isspace(static_cast<unsigned char>(ch)) || ch == ']' ||
            ch == ')' || ch == '}' || ch == '[' || ch == '(') {
          break;
        }
        ++pos_;
      }
      if (pos_ == start) return Error("expected comparison literal");
      node->literal = std::string(text_.substr(start, pos_ - start));
    }
    return node;
  }

  Result<int64_t> ParseNumber() {
    SkipWs();
    size_t start = pos_;
    while (!AtEnd() && IsDigit(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected number");
    int64_t v = 0;
    if (std::from_chars(text_.data() + start, text_.data() + pos_, v).ec !=
        std::errc()) {
      pos_ = start;
      return Error("number out of range");
    }
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int nesting_ = 0;  ///< open nesting levels (see Nest)
};

}  // namespace

Result<LocationPath> ParseLPath(std::string_view query) {
  Parser parser(query);
  return parser.ParseQuery();
}

}  // namespace lpath
