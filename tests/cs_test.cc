// Tests for the CorpusSearch-style baseline: query parsing, same-instance
// variable semantics, the relation set, and agreement with the LPath engine
// on translated queries.

#include "cs/engine.h"

#include <gtest/gtest.h>

#include "cs/parser.h"
#include "lpath/engines.h"
#include "test_util.h"

namespace lpath {
namespace {

using cs::CorpusSearchEngine;
using cs::CsRel;
using cs::ParseCsQuery;

TEST(CsParserTest, FullQueryFile) {
  Result<cs::CsQuery> q = ParseCsQuery(
      "node: IP*\n"
      "focus: NP=b\n"
      "query: (NP=a iDoms NP=b) AND NOT (NP=a Doms JJ)\n");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->boundary_glob, "IP*");
  EXPECT_EQ(q->focus, "b");
  ASSERT_EQ(q->expr->kind, cs::CsExpr::Kind::kAnd);
  EXPECT_EQ(q->expr->lhs->cond.rel, CsRel::kIDoms);
  EXPECT_EQ(q->expr->rhs->kind, cs::CsExpr::Kind::kNot);
}

TEST(CsParserTest, BareQueryDefaultsToRootBoundary) {
  Result<cs::CsQuery> q = ParseCsQuery("(NP iDoms Det)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->boundary_glob, "$ROOT");
  EXPECT_TRUE(q->focus.empty());
}

TEST(CsParserTest, CommentsAndGroups) {
  Result<cs::CsQuery> q = ParseCsQuery(
      "// find coordinations\n"
      "query: ((NP iDoms Det) OR (NP iDoms Adj)) AND (NP hasSister)\n");
  ASSERT_TRUE(q.ok()) << q.status();
}

TEST(CsParserTest, Errors) {
  EXPECT_FALSE(ParseCsQuery("").ok());
  EXPECT_FALSE(ParseCsQuery("(NP bogusRel VP)").ok());
  EXPECT_FALSE(ParseCsQuery("(NP iDoms)").ok());
  EXPECT_FALSE(ParseCsQuery("(NP iDoms VP").ok());
  EXPECT_FALSE(ParseCsQuery("(NP iDomsNumber x VP)").ok());
  // An ordinal past int, or one whose negation is, is InvalidArgument.
  for (const char* q :
       {"(NP iDomsNumber 99999999999 VP)", "(NP iDomsNumber -2147483648 VP)",
        "(NP iDomsNumber 2x VP)"}) {
    EXPECT_TRUE(ParseCsQuery(q).status().IsInvalidArgument()) << q;
  }
}

class CsFigure1Test : public ::testing::Test {
 protected:
  CsFigure1Test()
      : corpus_(testing::BuildFigure1Corpus()), engine_(corpus_) {}

  std::vector<int32_t> Ids(const std::string& query) {
    Result<QueryResult> r = engine_.Run(query);
    EXPECT_TRUE(r.ok()) << query << " -> " << r.status();
    std::vector<int32_t> ids;
    if (r.ok()) {
      for (const Hit& h : r->hits) ids.push_back(h.id);
    }
    return ids;
  }

  Corpus corpus_;
  CorpusSearchEngine engine_;
};

using V = std::vector<int32_t>;

TEST_F(CsFigure1Test, DominanceAndWords) {
  EXPECT_EQ(Ids("(S Doms saw)"), V({1}));
  EXPECT_EQ(Ids("(NP iDoms Det)"), V({6, 12}));
  EXPECT_EQ(Ids("(VP Doms dog)"), V({3}));
  EXPECT_EQ(Ids("focus: Det\nquery: (NP iDoms Det)"), V({7, 13}));
}

TEST_F(CsFigure1Test, PrecedenceRelations) {
  EXPECT_EQ(Ids("focus: NP\nquery: (NP iFollows V)"), V({5, 6}));
  EXPECT_EQ(Ids("focus: N\nquery: (N Follows V)"), V({9, 14, 15}));
  EXPECT_EQ(Ids("(V iPrecedes NP)"), V({4}));
}

TEST_F(CsFigure1Test, SameInstanceSharing) {
  // Q4 shape: N follows V, V child of VP, N inside the same VP.
  EXPECT_EQ(Ids("focus: N\n"
                "query: (N Follows V) AND (VP iDoms V) AND (VP Doms N)"),
            V({9, 14}));
  // Without the scope conjunct: all three.
  EXPECT_EQ(Ids("focus: N\nquery: (N Follows V) AND (VP iDoms V)"),
            V({9, 14, 15}));
}

TEST_F(CsFigure1Test, EdgeAlignmentRelations) {
  EXPECT_EQ(Ids("focus: NP\nquery: (VP iDomsLast NP)"), V({5}));
  EXPECT_EQ(Ids("focus: NP\nquery: (VP domsLast NP)"), V({5, 12}));
  EXPECT_EQ(Ids("focus: V\nquery: (VP domsFirst V)"), V({4}));
  EXPECT_EQ(Ids("focus: Adj\nquery: (NP iDomsNumber 2 Adj)"), V({8}));
  EXPECT_EQ(Ids("(NP iDomsOnly I)"), V({2}));
}

TEST_F(CsFigure1Test, SisterRelations) {
  EXPECT_EQ(Ids("focus: VP\nquery: (NP iSisterPrecedes VP)"), V({3}));
  EXPECT_EQ(Ids("focus: N\nquery: (Det sisterPrecedes N)"), V({9, 14}));
  EXPECT_EQ(Ids("(N hasSister)"), V({9, 14, 15}));
}

TEST_F(CsFigure1Test, BooleanAndNot) {
  EXPECT_EQ(Ids("(NP exists) AND NOT (NP Doms Det)"), V({2}));
  EXPECT_EQ(Ids("((NP iDoms Adj) OR (NP iDoms Prep))"), V({6}));
}

TEST_F(CsFigure1Test, NamedVariablesForSameTagChains) {
  // Q18 shape with three NPs.
  EXPECT_EQ(Ids("focus: NP=c\n"
                "query: (NP=a iDoms NP=b) AND (NP=b iDoms NP=c)"),
            V());
  // Two-level chain exists: NP6 iDoms NP7.
  EXPECT_EQ(Ids("focus: NP=b\nquery: (NP=a iDoms NP=b)"), V({6}));
}

TEST_F(CsFigure1Test, BoundaryRestriction) {
  // Boundary NP: Det must be found within an NP subtree.
  EXPECT_EQ(Ids("node: NP\nfocus: Det\nquery: (Det exists)"), V({7, 13}));
  // Boundary VP: N(today) is outside.
  EXPECT_EQ(Ids("node: VP\nfocus: N\nquery: (N exists)"), V({9, 14}));
}

TEST_F(CsFigure1Test, UnknownFocusIsAnError) {
  Result<QueryResult> r = engine_.Run("focus: z\nquery: (NP iDoms VP)");
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(CsFigure1Test, GlobPatterns) {
  EXPECT_EQ(Ids("focus: N*\nquery: (N* iFollows V)"), V({5, 6}));
  EXPECT_EQ(Ids("(* iDoms rapprochement)"), V());
  EXPECT_EQ(Ids("(* iDoms saw)"), V({4}));
}

// Differential: CS translations agree with the LPath engine.
TEST(CsDifferentialTest, AgreesWithLPathOnTranslations) {
  struct Pair {
    const char* lpath;
    const char* cs;
  };
  const Pair kPairs[] = {
      // Words are leaf nodes in the CorpusSearch view, so (S Doms saw) also
      // matches an S pre-terminal carrying the word itself.
      {"//S[@lex=saw or //_[@lex=saw]]", "(S Doms saw)"},
      {"//V->NP", "focus: NP\nquery: (NP iFollows V)"},
      {"//VP/V-->N", "focus: N\nquery: (N Follows V) AND (VP iDoms V)"},
      {"//VP{/V-->N}",
       "focus: N\nquery: (N Follows V) AND (VP iDoms V) AND (VP Doms N)"},
      {"//VP{/NP$}", "focus: NP\nquery: (VP iDomsLast NP)"},
      {"//VP{//NP$}", "focus: NP\nquery: (VP domsLast NP)"},
      {"//NP[not(//Det)]", "(NP exists) AND NOT (NP Doms Det)"},
      {"//PP=>X", "focus: X\nquery: (PP iSisterPrecedes X)"},
      {"//Det\\NP", "(NP iDoms Det)"},
      {"//S//N", "focus: N\nquery: (S Doms N)"},
  };
  for (uint64_t seed : {9u, 19u}) {
    Corpus corpus = testing::RandomCorpus(seed, /*trees=*/20);
    Result<NodeRelation> rel = NodeRelation::Build(corpus);
    ASSERT_TRUE(rel.ok());
    LPathEngine lpath(rel.value());
    CorpusSearchEngine cs_engine(corpus);
    for (const Pair& pair : kPairs) {
      Result<QueryResult> a = lpath.Run(pair.lpath);
      Result<QueryResult> b = cs_engine.Run(pair.cs);
      ASSERT_TRUE(a.ok()) << pair.lpath << ": " << a.status();
      ASSERT_TRUE(b.ok()) << pair.cs << ": " << b.status();
      EXPECT_EQ(a.value(), b.value())
          << pair.lpath << " vs " << pair.cs << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace lpath
