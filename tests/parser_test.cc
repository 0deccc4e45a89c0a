// Tests for the LPath parser: the full 23-query benchmark suite, every
// Figure 2 query, axis spellings, quoting, scoping/alignment syntax, error
// cases, and ToString round-trips.

#include "lpath/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "lpath/ast.h"

namespace lpath {
namespace {

LocationPath MustParse(const std::string& q) {
  Result<LocationPath> r = ParseLPath(q);
  EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
  return r.ok() ? std::move(r).value() : LocationPath{};
}

TEST(ParserTest, SimpleDescendant) {
  LocationPath p = MustParse("//S");
  EXPECT_TRUE(p.absolute);
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].axis, Axis::kDescendant);
  EXPECT_EQ(p.steps[0].test.name, "S");
}

TEST(ParserTest, RootChild) {
  LocationPath p = MustParse("/S/NP");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].axis, Axis::kChild);
  EXPECT_EQ(p.steps[1].axis, Axis::kChild);
}

TEST(ParserTest, HorizontalAxes) {
  LocationPath p = MustParse("//V->NP");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[1].axis, Axis::kImmediateFollowing);

  p = MustParse("//V-->N");
  EXPECT_EQ(p.steps[1].axis, Axis::kFollowing);

  p = MustParse("//V==>NP");
  EXPECT_EQ(p.steps[1].axis, Axis::kFollowingSibling);

  p = MustParse("//V=>NP");
  EXPECT_EQ(p.steps[1].axis, Axis::kImmediateFollowingSibling);

  p = MustParse("//NP<-V");
  EXPECT_EQ(p.steps[1].axis, Axis::kImmediatePreceding);

  p = MustParse("//NP<--V");
  EXPECT_EQ(p.steps[1].axis, Axis::kPreceding);

  p = MustParse("//NP<=V");
  EXPECT_EQ(p.steps[1].axis, Axis::kImmediatePrecedingSibling);

  p = MustParse("//NP<==V");
  EXPECT_EQ(p.steps[1].axis, Axis::kPrecedingSibling);
}

TEST(ParserTest, VerticalAxes) {
  LocationPath p = MustParse("//N\\NP");
  EXPECT_EQ(p.steps[1].axis, Axis::kParent);
  p = MustParse("//N\\\\S");
  EXPECT_EQ(p.steps[1].axis, Axis::kAncestor);
  p = MustParse("//N\\ancestor::S");
  EXPECT_EQ(p.steps[1].axis, Axis::kAncestor);
  p = MustParse("//VP/descendant::N");
  EXPECT_EQ(p.steps[1].axis, Axis::kDescendant);
  p = MustParse("//VP//N");
  EXPECT_EQ(p.steps[1].axis, Axis::kDescendant);
}

TEST(ParserTest, FullAxisNames) {
  LocationPath p = MustParse("//V/following-sibling::NP");
  EXPECT_EQ(p.steps[1].axis, Axis::kFollowingSibling);
  p = MustParse("//V/immediate-following::NP");
  EXPECT_EQ(p.steps[1].axis, Axis::kImmediateFollowing);
  p = MustParse("//V/following-sibling-or-self::NP");
  EXPECT_EQ(p.steps[1].axis, Axis::kFollowingSiblingOrSelf);
  p = MustParse("//V/ancestor-or-self::_");
  EXPECT_EQ(p.steps[1].axis, Axis::kAncestorOrSelf);
  EXPECT_TRUE(p.steps[1].test.is_wildcard());

  // Every axis: its name:: spelling and its abbreviation parse to it, and
  // the printed form parses back to the same path, as a later step and as
  // an absolute start. Self's '.' has its own tests (a lone '.' is a whole
  // step).
  for (int a = 0; a < kAxisCount; ++a) {
    const Axis axis = static_cast<Axis>(a);
    const std::string name(AxisName(axis));
    for (const std::string& named :
         {"//V/" + name + "::NP", "/" + name + "::NP"}) {
      p = MustParse(named);
      ASSERT_FALSE(p.steps.empty()) << named;
      EXPECT_EQ(p.steps.back().axis, axis) << named;
      const std::string printed = ToString(p);
      LocationPath reparsed = MustParse(printed);
      ASSERT_EQ(reparsed.steps.size(), p.steps.size()) << printed;
      EXPECT_EQ(reparsed.steps.back().axis, axis) << printed;
      EXPECT_EQ(ToString(reparsed), printed) << named;
    }

    const std::string abbreviation(AxisAbbreviation(axis));
    if (abbreviation.empty() || abbreviation == ".") continue;
    p = MustParse("//V" + abbreviation + "NP");
    ASSERT_EQ(p.steps.size(), 2u) << abbreviation;
    EXPECT_EQ(p.steps[1].axis, axis) << abbreviation;
  }

  // Abbreviations that prefix one another: the longest match wins.
  const std::pair<const char*, Axis> kPrefixPairs[] = {
      {"-->", Axis::kFollowing},
      {"->", Axis::kImmediateFollowing},
      {"<--", Axis::kPreceding},
      {"<-", Axis::kImmediatePreceding},
      {"<==", Axis::kPrecedingSibling},
      {"<=", Axis::kImmediatePrecedingSibling},
      {"==>", Axis::kFollowingSibling},
      {"=>", Axis::kImmediateFollowingSibling},
      {"\\\\", Axis::kAncestor},
      {"\\", Axis::kParent},
      {"//", Axis::kDescendant},
      {"/", Axis::kChild},
  };
  for (const auto& [symbol, axis] : kPrefixPairs) {
    const std::string q = std::string("//V") + symbol + "NP";
    p = MustParse(q);
    ASSERT_EQ(p.steps.size(), 2u) << q;
    EXPECT_EQ(p.steps[1].axis, axis) << q;
  }
}

TEST(ParserTest, WildcardAndQuoting) {
  LocationPath p = MustParse("//_");
  EXPECT_TRUE(p.steps[0].test.is_wildcard());
  p = MustParse("//*");
  EXPECT_TRUE(p.steps[0].test.is_wildcard());
  p = MustParse("//'PRP$'");
  EXPECT_EQ(p.steps[0].test.name, "PRP$");
  p = MustParse("//\".\"");
  EXPECT_EQ(p.steps[0].test.name, ".");
  p = MustParse("//-NONE-");
  EXPECT_EQ(p.steps[0].test.name, "-NONE-");
  p = MustParse("//-DFL-");
  EXPECT_EQ(p.steps[0].test.name, "-DFL-");
  p = MustParse("//NP-SBJ");
  EXPECT_EQ(p.steps[0].test.name, "NP-SBJ");
}

TEST(ParserTest, TagVsArrowAmbiguity) {
  // '-' belongs to the tag unless it begins "->" or "-->".
  LocationPath p = MustParse("//ADVP-LOC-CLR");
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].test.name, "ADVP-LOC-CLR");

  p = MustParse("//X->Y");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].test.name, "X");
  EXPECT_EQ(p.steps[1].axis, Axis::kImmediateFollowing);

  p = MustParse("//X-->Y");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].test.name, "X");
  EXPECT_EQ(p.steps[1].axis, Axis::kFollowing);
}

TEST(ParserTest, ScopingAndAlignment) {
  LocationPath p = MustParse("//VP{/NP$}");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].opens_scopes, 1);
  EXPECT_TRUE(p.steps[1].right_align);
  EXPECT_FALSE(p.steps[1].left_align);

  p = MustParse("//VP{//^NP}");
  EXPECT_TRUE(p.steps[1].left_align);
  EXPECT_EQ(p.steps[1].axis, Axis::kDescendant);
}

TEST(ParserTest, PredicateWithAttrCompare) {
  LocationPath p = MustParse("//S[//_[@lex=saw]]");
  ASSERT_EQ(p.steps.size(), 1u);
  ASSERT_EQ(p.steps[0].predicates.size(), 1u);
  const PredExpr& e = *p.steps[0].predicates[0];
  ASSERT_EQ(e.kind, PredExpr::Kind::kPath);
  ASSERT_EQ(e.path.steps.size(), 1u);
  const Step& inner = e.path.steps[0];
  EXPECT_TRUE(inner.test.is_wildcard());
  ASSERT_EQ(inner.predicates.size(), 1u);
  const PredExpr& cmp = *inner.predicates[0];
  ASSERT_EQ(cmp.kind, PredExpr::Kind::kCompare);
  EXPECT_EQ(cmp.literal, "saw");
  EXPECT_EQ(cmp.cmp, CmpOp::kEq);
  ASSERT_EQ(cmp.path.steps.size(), 1u);
  EXPECT_EQ(cmp.path.steps[0].axis, Axis::kAttribute);
  EXPECT_EQ(cmp.path.steps[0].test.name, "lex");
}

TEST(ParserTest, PredicateNotAndBoolean) {
  LocationPath p = MustParse("//NP[not(//JJ)]");
  const PredExpr& e = *p.steps[0].predicates[0];
  EXPECT_EQ(e.kind, PredExpr::Kind::kNot);
  EXPECT_EQ(e.lhs->kind, PredExpr::Kind::kPath);

  p = MustParse("//NP[//JJ and not(//DT) or //CD]");
  const PredExpr& b = *p.steps[0].predicates[0];
  EXPECT_EQ(b.kind, PredExpr::Kind::kOr);
  EXPECT_EQ(b.lhs->kind, PredExpr::Kind::kAnd);
}

TEST(ParserTest, PredicateScopedPathWithAlignment) {
  // Q7: //VP[{//^VB->NP->PP$}]
  LocationPath p = MustParse("//VP[{//^VB->NP->PP$}]");
  const PredExpr& e = *p.steps[0].predicates[0];
  ASSERT_EQ(e.kind, PredExpr::Kind::kPath);
  EXPECT_EQ(e.path.leading_scopes, 1);
  ASSERT_EQ(e.path.steps.size(), 3u);
  EXPECT_TRUE(e.path.steps[0].left_align);
  EXPECT_EQ(e.path.steps[0].test.name, "VB");
  EXPECT_EQ(e.path.steps[1].axis, Axis::kImmediateFollowing);
  EXPECT_TRUE(e.path.steps[2].right_align);
}

TEST(ParserTest, PredicatePathStartingWithHorizontalAxis) {
  // Q10: //NP[->PP[//IN[@lex=of]]=>VP]
  LocationPath p = MustParse("//NP[->PP[//IN[@lex=of]]=>VP]");
  const PredExpr& e = *p.steps[0].predicates[0];
  ASSERT_EQ(e.kind, PredExpr::Kind::kPath);
  ASSERT_EQ(e.path.steps.size(), 2u);
  EXPECT_EQ(e.path.steps[0].axis, Axis::kImmediateFollowing);
  EXPECT_EQ(e.path.steps[0].test.name, "PP");
  EXPECT_EQ(e.path.steps[0].predicates.size(), 1u);
  EXPECT_EQ(e.path.steps[1].axis, Axis::kImmediateFollowingSibling);
  EXPECT_EQ(e.path.steps[1].test.name, "VP");
}

TEST(ParserTest, PositionalPredicates) {
  LocationPath p = MustParse("//V/following-sibling::_[position()=1][self::NP]");
  ASSERT_EQ(p.steps.size(), 2u);
  ASSERT_EQ(p.steps[1].predicates.size(), 2u);
  EXPECT_EQ(p.steps[1].predicates[0]->kind, PredExpr::Kind::kPosition);
  EXPECT_EQ(p.steps[1].predicates[0]->number, 1);
  EXPECT_EQ(p.steps[1].predicates[1]->kind, PredExpr::Kind::kPath);

  p = MustParse("//VP/_[last()][self::NP]");
  EXPECT_EQ(p.steps[1].predicates[0]->kind, PredExpr::Kind::kLast);

  p = MustParse("//VP/_[2]");
  EXPECT_EQ(p.steps[1].predicates[0]->kind, PredExpr::Kind::kNumber);
  EXPECT_EQ(p.steps[1].predicates[0]->number, 2);

  p = MustParse("//VP/_[position()=last()]");
  EXPECT_TRUE(p.steps[1].predicates[0]->vs_last);
}

TEST(ParserTest, BareNameInPredicateIsChild) {
  LocationPath p = MustParse("//VP[NP]");
  const PredExpr& e = *p.steps[0].predicates[0];
  ASSERT_EQ(e.kind, PredExpr::Kind::kPath);
  ASSERT_EQ(e.path.steps.size(), 1u);
  EXPECT_EQ(e.path.steps[0].axis, Axis::kChild);
  EXPECT_EQ(e.path.steps[0].test.name, "NP");
}

TEST(ParserTest, ParentStepAbbreviation) {
  LocationPath p = MustParse("//NP/..");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[1].axis, Axis::kParent);
  EXPECT_TRUE(p.steps[1].test.is_wildcard());
}

TEST(ParserTest, ValueLiteralForms) {
  LocationPath p = MustParse("//_[@lex='saw']");
  EXPECT_EQ(p.steps[0].predicates[0]->literal, "saw");
  p = MustParse("//_[@lex=\"a b\"]");
  EXPECT_EQ(p.steps[0].predicates[0]->literal, "a b");
  p = MustParse("//_[@lex=1929]");
  EXPECT_EQ(p.steps[0].predicates[0]->literal, "1929");
  p = MustParse("//_[@lex!=saw]");
  EXPECT_EQ(p.steps[0].predicates[0]->cmp, CmpOp::kNe);
}

TEST(ParserTest, WhitespaceTolerated) {
  LocationPath p = MustParse("  //VP { / V --> N }  ");
  ASSERT_EQ(p.steps.size(), 3u);
  EXPECT_EQ(p.steps[0].opens_scopes, 1);
  EXPECT_EQ(p.steps[2].axis, Axis::kFollowing);
}

TEST(ParserTest, The23QuerySuiteParses) {
  const char* kQueries[] = {
      "//S[//_[@lex=saw]]",
      "//VB->NP",
      "//VP/VB-->NN",
      "//VP{/VB-->NN}",
      "//VP{/NP$}",
      "//VP{//NP$}",
      "//VP[{//^VB->NP->PP$}]",
      "//S[//NP/ADJP]",
      "//NP[not(//JJ)]",
      "//NP[->PP[//IN[@lex=of]]=>VP]",
      "//S[{//_[@lex=what]->_[@lex=building]}]",
      "//_[@lex=rapprochement]",
      "//_[@lex=1929]",
      "//ADVP-LOC-CLR",
      "//WHPP",
      "//RRC/PP-TMP",
      "//UCP-PRD/ADJP-PRD",
      "//NP/NP/NP/NP/NP",
      "//VP/VP/VP",
      "//PP=>SBAR",
      "//ADVP=>ADJP",
      "//NP=>NP=>NP",
      "//VP=>VP",
  };
  for (const char* q : kQueries) {
    Result<LocationPath> r = ParseLPath(q);
    EXPECT_TRUE(r.ok()) << q << " -> " << r.status();
  }
}

TEST(ParserTest, ToStringRoundTrips) {
  const char* kQueries[] = {
      "//S[//_[@lex=saw]]",
      "//VB->NP",
      "//VP/VB-->NN",
      "//VP{/VB-->NN}",
      "//VP{/NP$}",
      "//VP{//NP$}",
      "//VP[{//^VB->NP->PP$}]",
      "//NP[not(//JJ)]",
      "//NP[->PP[//IN[@lex=of]]=>VP]",
      "//S[{//_[@lex=what]->_[@lex=building]}]",
      "//NP=>NP=>NP",
      "//V==>NP",
      "//N\\NP",
      "//N\\\\S",
  };
  for (const char* q : kQueries) {
    LocationPath p1 = MustParse(q);
    std::string s1 = ToString(p1);
    LocationPath p2 = MustParse(s1);
    EXPECT_EQ(s1, ToString(p2)) << "original: " << q;
  }
}

TEST(ParserTest, ExpressibilityClassification) {
  // The 11 XPath-expressible queries of Figure 10.
  EXPECT_TRUE(IsXPathExpressible(MustParse("//S[//_[@lex=saw]]")));
  EXPECT_TRUE(IsXPathExpressible(MustParse("//S[//NP/ADJP]")));
  EXPECT_TRUE(IsXPathExpressible(MustParse("//NP[not(//JJ)]")));
  EXPECT_TRUE(IsXPathExpressible(MustParse("//NP/NP/NP/NP/NP")));
  // Immediate axes, scopes and alignment are not XPath-expressible.
  EXPECT_FALSE(IsXPathExpressible(MustParse("//VB->NP")));
  EXPECT_FALSE(IsXPathExpressible(MustParse("//VP{/VB-->NN}")));
  EXPECT_FALSE(IsXPathExpressible(MustParse("//VP{/NP$}")));
  EXPECT_FALSE(IsXPathExpressible(MustParse("//PP=>SBAR")));
  EXPECT_FALSE(IsXPathExpressible(MustParse("//NP[->PP=>VP]")));
}

TEST(ParserTest, PositionalDetection) {
  EXPECT_TRUE(UsesPositionalPredicates(
      MustParse("//V/following-sibling::_[position()=1]")));
  EXPECT_TRUE(UsesPositionalPredicates(MustParse("//VP/_[last()]")));
  EXPECT_TRUE(UsesPositionalPredicates(MustParse("//VP/_[2]")));
  EXPECT_FALSE(UsesPositionalPredicates(MustParse("//VP[//NP]")));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseLPath("").ok());
  EXPECT_FALSE(ParseLPath("NP").ok());            // must be absolute
  EXPECT_FALSE(ParseLPath("//").ok());            // missing node test
  EXPECT_FALSE(ParseLPath("//VP{").ok());         // unclosed scope
  EXPECT_FALSE(ParseLPath("//VP}").ok());         // unopened close... trailing
  EXPECT_FALSE(ParseLPath("//VP{/V}/N").ok());    // step after '}'
  EXPECT_FALSE(ParseLPath("//VP[").ok());         // unclosed predicate
  EXPECT_FALSE(ParseLPath("//VP[]").ok());        // empty predicate
  EXPECT_FALSE(ParseLPath("//@lex/NP").ok());     // attribute mid-path
  EXPECT_FALSE(ParseLPath("//_[NP=saw]").ok());   // compare on element path
  EXPECT_FALSE(ParseLPath("//_[@lex=]").ok());    // missing literal
  EXPECT_FALSE(ParseLPath("//VP extra").ok());    // trailing garbage
  EXPECT_FALSE(ParseLPath("//'unterminated").ok());
  // Numbers past INT64_MAX are InvalidArgument, not an exception.
  for (const char* q :
       {"//NP[9223372036854775808]", "//NP[position()=9223372036854775808]",
        "//NP[1234567890123456789012345678901234567890]"}) {
    Result<LocationPath> r = ParseLPath(q);
    ASSERT_FALSE(r.ok()) << q;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
  EXPECT_TRUE(ParseLPath("//NP[9223372036854775807]").ok());
  // A digit run that begins a tag is no number, whatever its length.
  EXPECT_TRUE(
      ParseLPath("//NP[1234567890123456789012345678901234567890X]").ok());
}

/// `//S` followed by `depth` nested `[//NP` predicates, closed when `close`.
std::string NestedPredicates(int depth, bool close = true) {
  std::string q = "//S";
  for (int i = 0; i < depth; ++i) q += "[//NP";
  if (close) q.append(static_cast<size_t>(depth), ']');
  return q;
}

/// `//S[` + `open` repeated `depth` times + `//NP` + the closers.
std::string Wrapped(const std::string& open, char close, int depth) {
  std::string q = "//S[";
  for (int i = 0; i < depth; ++i) q += open;
  q += "//NP";
  q.append(static_cast<size_t>(depth), close);
  return q + "]";
}

TEST(ParserTest, NestingDepthIsBounded) {
  EXPECT_TRUE(ParseLPath(NestedPredicates(kMaxLPathNesting)).ok());
  EXPECT_TRUE(ParseLPath(Wrapped("not(", ')', kMaxLPathNesting - 1)).ok());
  std::string chain = "//S[//NP";
  for (int i = 1; i < kMaxLPathNesting; ++i) chain += " and //NP";
  EXPECT_TRUE(ParseLPath(chain + "]").ok());

  // Past the limit the parse fails cleanly instead of exhausting the
  // stack: 20,000 levels used to crash the parser, and a 300,000-operand
  // chain the code that recurses over its left-deep tree.
  std::string long_chain = "//S[not(//NP";
  for (int i = 0; i < 300000; ++i) long_chain += " and //NP";
  const std::string too_deep[] = {
      NestedPredicates(kMaxLPathNesting + 1),
      NestedPredicates(20000),
      NestedPredicates(20000, /*close=*/false),
      Wrapped("not(", ')', 20000),
      Wrapped("(", ')', 20000),
      chain + " and //NP]",
      long_chain + ")]",
  };
  for (const std::string& q : too_deep) {
    Result<LocationPath> r = ParseLPath(q);
    ASSERT_FALSE(r.ok()) << q.substr(0, 40);
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
}

}  // namespace
}  // namespace lpath
