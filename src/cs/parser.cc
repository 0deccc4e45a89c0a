#include "cs/parser.h"

#include <cctype>
#include <charconv>
#include <limits>
#include <map>

#include "common/str_util.h"

namespace lpath {
namespace cs {

namespace {

const std::map<std::string, CsRel>& RelTable() {
  static const std::map<std::string, CsRel> kRels = {
      {"exists", CsRel::kExists},
      {"idoms", CsRel::kIDoms},
      {"doms", CsRel::kDoms},
      {"idomsfirst", CsRel::kIDomsFirst},
      {"idomslast", CsRel::kIDomsLast},
      {"idomsonly", CsRel::kIDomsOnly},
      {"idomsnumber", CsRel::kIDomsNumber},
      {"domsfirst", CsRel::kDomsFirst},
      {"domslast", CsRel::kDomsLast},
      {"iprecedes", CsRel::kIPrecedes},
      {"precedes", CsRel::kPrecedes},
      {"ifollows", CsRel::kIFollows},
      {"follows", CsRel::kFollows},
      {"isisterprecedes", CsRel::kISisterPrecedes},
      {"sisterprecedes", CsRel::kSisterPrecedes},
      {"isisterfollows", CsRel::kISisterFollows},
      {"sisterfollows", CsRel::kSisterFollows},
      {"hassister", CsRel::kHasSister},
  };
  return kRels;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<CsQuery> Parse() {
    CsQuery query;
    // Header lines. The "query:" keyword introduces the expression; other
    // recognized headers are "node:" and "focus:".
    for (;;) {
      SkipWs();
      if (EatKeyword("node:")) {
        LPATH_ASSIGN_OR_RETURN(std::string glob, ScanToken("boundary glob"));
        query.boundary_glob = std::move(glob);
        continue;
      }
      if (EatKeyword("focus:")) {
        LPATH_ASSIGN_OR_RETURN(Arg arg, ScanArg());
        query.focus = arg.Identity();
        continue;
      }
      (void)EatKeyword("query:");
      break;
    }
    LPATH_ASSIGN_OR_RETURN(query.expr, ParseOr());
    SkipWs();
    if (pos_ != text_.size()) return Error("unexpected trailing input");
    return query;
  }

 private:
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }
  bool AtEnd() const { return pos_ >= text_.size(); }
  void SkipWs() {
    for (;;) {
      while (!AtEnd() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (Peek() == '/' && Peek(1) == '/') {  // line comment
        while (!AtEnd() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("CorpusSearch parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }
  bool EatKeyword(std::string_view kw) {
    // Case-insensitive prefix match.
    if (pos_ + kw.size() > text_.size()) return false;
    for (size_t i = 0; i < kw.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(text_[pos_ + i])) !=
          std::tolower(static_cast<unsigned char>(kw[i]))) {
        return false;
      }
    }
    pos_ += kw.size();
    return true;
  }

  static bool IsTokenChar(char c) {
    return !std::isspace(static_cast<unsigned char>(c)) && c != '(' &&
           c != ')' && c != '=';
  }

  Result<std::string> ScanToken(const std::string& what) {
    SkipWs();
    size_t start = pos_;
    while (!AtEnd() && IsTokenChar(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected " + what);
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<Arg> ScanArg() {
    LPATH_ASSIGN_OR_RETURN(std::string glob, ScanToken("pattern"));
    Arg arg;
    arg.glob = std::move(glob);
    if (Peek() == '=') {
      ++pos_;
      LPATH_ASSIGN_OR_RETURN(arg.name, ScanToken("variable name"));
    }
    return arg;
  }

  Result<std::unique_ptr<CsExpr>> ParseOr() {
    LPATH_ASSIGN_OR_RETURN(std::unique_ptr<CsExpr> lhs, ParseAnd());
    for (;;) {
      SkipWs();
      if (!EatWord("OR")) return lhs;
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<CsExpr> rhs, ParseAnd());
      auto node = std::make_unique<CsExpr>(CsExpr::Kind::kOr);
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
  }

  Result<std::unique_ptr<CsExpr>> ParseAnd() {
    LPATH_ASSIGN_OR_RETURN(std::unique_ptr<CsExpr> lhs, ParseUnary());
    for (;;) {
      SkipWs();
      if (!EatWord("AND")) return lhs;
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<CsExpr> rhs, ParseUnary());
      auto node = std::make_unique<CsExpr>(CsExpr::Kind::kAnd);
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
  }

  /// Case-insensitive word followed by a non-token character.
  bool EatWord(std::string_view w) {
    const size_t save = pos_;
    if (!EatKeyword(w)) return false;
    if (!AtEnd() && IsTokenChar(text_[pos_]) && text_[pos_] != '(') {
      pos_ = save;
      return false;
    }
    return true;
  }

  Result<std::unique_ptr<CsExpr>> ParseUnary() {
    SkipWs();
    if (EatWord("NOT")) {
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<CsExpr> inner, ParseUnary());
      auto node = std::make_unique<CsExpr>(CsExpr::Kind::kNot);
      node->lhs = std::move(inner);
      return node;
    }
    SkipWs();
    if (Peek() != '(') return Error("expected '('");
    ++pos_;
    SkipWs();
    // Group or condition? A group starts with '(' or NOT.
    if (Peek() == '(' ||
        (std::tolower(static_cast<unsigned char>(Peek())) == 'n' &&
         std::tolower(static_cast<unsigned char>(Peek(1))) == 'o' &&
         std::tolower(static_cast<unsigned char>(Peek(2))) == 't' &&
         !IsTokenChar(Peek(3)))) {
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<CsExpr> inner, ParseOr());
      SkipWs();
      if (Peek() != ')') return Error("expected ')'");
      ++pos_;
      return inner;
    }
    // Condition: A rel [n] [B]
    auto node = std::make_unique<CsExpr>(CsExpr::Kind::kCond);
    LPATH_ASSIGN_OR_RETURN(node->cond.a, ScanArg());
    LPATH_ASSIGN_OR_RETURN(std::string rel_word, ScanToken("relation"));
    auto it = RelTable().find(AsciiToLower(rel_word));
    if (it == RelTable().end()) {
      return Error("unknown relation " + rel_word);
    }
    node->cond.rel = it->second;
    if (node->cond.rel == CsRel::kIDomsNumber) {
      LPATH_ASSIGN_OR_RETURN(std::string num, ScanToken("ordinal"));
      // A negative n counts from the last child (the matcher negates it),
      // so INT_MIN is refused too.
      const char* end = num.data() + num.size();
      const std::from_chars_result r =
          std::from_chars(num.data(), end, node->cond.n);
      if (r.ec != std::errc() || r.ptr != end || node->cond.n == 0 ||
          node->cond.n == std::numeric_limits<int>::min()) {
        return Error("iDomsNumber needs a nonzero integer n");
      }
    }
    SkipWs();
    if (Peek() != ')') {
      LPATH_ASSIGN_OR_RETURN(node->cond.b, ScanArg());
      node->cond.has_b = true;
      SkipWs();
    }
    if (Peek() != ')') return Error("expected ')'");
    ++pos_;
    // Binary relations need a second argument.
    if (!node->cond.has_b && node->cond.rel != CsRel::kExists &&
        node->cond.rel != CsRel::kHasSister) {
      return Error("relation requires a second argument");
    }
    return node;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<CsQuery> ParseCsQuery(std::string_view text) {
  Parser parser(text);
  return parser.Parse();
}

}  // namespace cs
}  // namespace lpath
