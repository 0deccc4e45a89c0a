// Unit tests for the SQL subset: the parser (lexical forms, grammar,
// nesting limit), the optimizer's orientation of literal-first comparisons
// and the executor, on hand-written SQL (the "RDBMS client" path).

#include <gtest/gtest.h>

#include <string>

#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "lpath/parser.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "test_util.h"

namespace lpath {
namespace {

constexpr char kSelectA[] = "SELECT DISTINCT a.tid, a.id FROM nodes AS a ";

TEST(SqlParserTest, LexicalForms) {
  // '' inside a string is one quote, <> is !=, and a number may be as
  // large as INT64_MAX.
  Result<ExecPlan> p = sql::ParseSql(
      std::string(kSelectA) +
      "WHERE a.value = 'it''s' AND a.id <> 42 AND (a.left <= 7) AND "
      "a.right != 1 AND a.depth < 2 AND a.depth > 0 AND a.pid >= 0 AND "
      "a.tid = 9223372036854775807");
  ASSERT_TRUE(p.ok()) << p.status();
  ASSERT_EQ(p->conjuncts.size(), 8u);
  const CmpOp want_ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLe, CmpOp::kNe,
                            CmpOp::kLt, CmpOp::kGt, CmpOp::kGe, CmpOp::kEq};
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(p->conjuncts[i].op, want_ops[i]) << i;
  }
  EXPECT_EQ(p->conjuncts[0].rhs.str, "it's");
  EXPECT_EQ(p->conjuncts[1].rhs.num, 42);
  EXPECT_EQ(p->conjuncts[7].rhs.num, INT64_MAX);
}

TEST(SqlParserTest, LexicalErrors) {
  // A lone '!', a character outside the language, an unterminated string
  // and a number past INT64_MAX are InvalidArgument errors naming an
  // offset.
  for (const char* where :
       {"WHERE a.id ! 1", "WHERE a.id # 1", "WHERE a.name = 'NP",
        "WHERE a.id = 1 #", "WHERE a.id = 9223372036854775808",
        "WHERE a.id = 1234567890123456789012345678901234567890"}) {
    Result<ExecPlan> r = sql::ParseSql(std::string(kSelectA) + where);
    ASSERT_FALSE(r.ok()) << where;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
    EXPECT_NE(r.status().ToString().find("offset"), std::string::npos)
        << r.status();
  }
}

TEST(SqlParserTest, MinimalSelect) {
  Result<ExecPlan> p =
      sql::ParseSql("SELECT DISTINCT a0.tid, a0.id FROM nodes AS a0");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->num_vars, 1);
  EXPECT_EQ(p->output_var, 0);
  EXPECT_TRUE(p->conjuncts.empty());
}

TEST(SqlParserTest, KeywordsAreCaseInsensitive) {
  Result<ExecPlan> p = sql::ParseSql(
      "select distinct x.tid, x.id from nodes as x where x.name = 'NP'");
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(p->conjuncts.size(), 1u);
}

TEST(SqlParserTest, LiteralOnLeftIsNormalized) {
  // The parser keeps the spelling; sql::Prepare orients it column-first.
  Result<ExecPlan> p =
      sql::ParseSql(std::string(kSelectA) + "WHERE 3 < a.depth");
  ASSERT_TRUE(p.ok()) << p.status();
  const Corpus corpus = testing::BuildFigure1Corpus();
  Result<NodeRelation> rel = NodeRelation::Build(corpus);
  ASSERT_TRUE(rel.ok()) << rel.status();
  Result<std::unique_ptr<sql::PreparedPlan>> pp =
      sql::Prepare(p.value(), rel.value(), {});
  ASSERT_TRUE(pp.ok()) << pp.status();
  ASSERT_EQ(pp.value()->plan.conjuncts.size(), 1u);
  const Conjunct& c = pp.value()->plan.conjuncts[0];
  EXPECT_FALSE(c.lhs.is_literal());
  EXPECT_EQ(c.lhs.col, PlanCol::kDepth);
  EXPECT_EQ(c.op, CmpOp::kGt);
  EXPECT_EQ(c.rhs.num, 3);
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(sql::ParseSql("").ok());
  EXPECT_FALSE(sql::ParseSql("SELECT a0.tid FROM nodes AS a0").ok());
  EXPECT_FALSE(
      sql::ParseSql("SELECT DISTINCT a0.tid, a1.id FROM nodes AS a0").ok());
  EXPECT_FALSE(sql::ParseSql("SELECT DISTINCT a0.tid, a0.id FROM nodes AS a0 "
                             "WHERE a0.bogus = 1")
                   .ok());
  EXPECT_FALSE(sql::ParseSql("SELECT DISTINCT a0.tid, a0.id FROM nodes AS a0 "
                             "WHERE a9.id = 1")
                   .ok());
  EXPECT_FALSE(sql::ParseSql("SELECT DISTINCT a0.tid, a0.id FROM nodes AS a0 "
                             "WHERE 1 = 1")
                   .ok());
  EXPECT_FALSE(sql::ParseSql("SELECT DISTINCT a0.tid, a0.id FROM nodes AS a0, "
                             "nodes AS a0")
                   .ok());
}

/// A statement whose WHERE clause nests `depth` correlated EXISTS
/// subqueries, each satisfied by its enclosing row. With the innermost
/// comparison that is depth + 1 nesting levels.
std::string NestedExists(int depth) {
  std::string q =
      "SELECT DISTINCT a0.tid, a0.id FROM nodes AS a0 WHERE a0.name = 'S'";
  for (int i = 1; i <= depth; ++i) {
    // += rather than "a" + std::to_string(i): gcc 12's -Wrestrict misfires
    // on the latter (GCC PR 105651).
    std::string a = "a";
    a += std::to_string(i);
    std::string outer = "a";
    outer += std::to_string(i - 1);
    q += " AND EXISTS (SELECT 1 FROM nodes AS " + a + " WHERE " + a +
         ".tid = " + outer + ".tid";
  }
  return q + std::string(static_cast<size_t>(depth), ')');
}

TEST(SqlParserTest, NestingDepthIsBounded) {
  Result<ExecPlan> at_limit =
      sql::ParseSql(NestedExists(sql::kMaxSqlNesting - 1));
  EXPECT_TRUE(at_limit.ok()) << at_limit.status();
  // Past the limit the parse fails cleanly instead of exhausting the
  // stack, for every construct that nests.
  std::string parens = "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE ";
  std::string nots = parens;
  for (int i = 0; i < 20000; ++i) {
    parens += "(";
    nots += "NOT (";
  }
  const std::string too_deep[] = {
      NestedExists(sql::kMaxSqlNesting),
      NestedExists(20000),
      parens + "a.id = 1" + std::string(20000, ')'),
      nots + "a.id = 1" + std::string(20000, ')'),
  };
  for (const std::string& q : too_deep) {
    Result<ExecPlan> r = sql::ParseSql(q);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  }
}

TEST(SqlParserTest, ChainsInsideNestingCountAsLevels) {
  // A long OR chain is a left-deep tree as deep as it is long: inside
  // NOT (...) its links count toward the nesting limit.
  std::string ors;
  for (int i = 0; i < 2000; ++i) ors += " OR a.id = " + std::to_string(i);
  Result<ExecPlan> r = sql::ParseSql(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name = 'NP' AND "
      "NOT (a.id = 0" + ors + ")");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  // So does an AND chain that an OR makes the first operand of a tree.
  std::string ands;
  for (int i = 0; i < 2000; ++i) ands += " AND a.id > 0";
  r = sql::ParseSql("SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
                    "a.name = 'NP'" + ands + " OR a.name = 'VP'");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  // A short chain inside NOT stays fine.
  EXPECT_TRUE(sql::ParseSql("SELECT DISTINCT a.tid, a.id FROM nodes AS a "
                            "WHERE NOT (a.id = 1 OR a.id = 2 AND a.id = 3)")
                  .ok());
}

class SqlExecTest : public ::testing::Test {
 protected:
  SqlExecTest() : corpus_(testing::BuildFigure1Corpus()) {
    Result<NodeRelation> rel = NodeRelation::Build(corpus_);
    EXPECT_TRUE(rel.ok());
    rel_ = std::make_unique<NodeRelation>(std::move(rel).value());
  }

  size_t Count(const std::string& sql_text) {
    Result<QueryResult> r = RunSql(*rel_, sql_text);
    EXPECT_TRUE(r.ok()) << sql_text << " -> " << r.status();
    return r.ok() ? r->count() : 0;
  }

  Corpus corpus_;
  std::unique_ptr<NodeRelation> rel_;
};

TEST_F(SqlExecTest, NameScan) {
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a "
                  "WHERE a.name = 'NP'"),
            4u);
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a "
                  "WHERE a.name = 'Nope'"),
            0u);
}

TEST_F(SqlExecTest, SelfJoinChild) {
  // NPs with an N child: NP7 and NP12.
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a, nodes AS b "
                  "WHERE a.name = 'NP' AND b.name = 'N' AND b.tid = a.tid "
                  "AND b.pid = a.id"),
            2u);
}

TEST_F(SqlExecTest, IntervalJoinFollowing) {
  // Nodes following V (left >= 3), counting elements only: everything from
  // NP6 onward = 11 element rows... NP6,NP7,Det,Adj,N,PP,Prep,NP,Det,N,N(today).
  EXPECT_EQ(Count("SELECT DISTINCT b.tid, b.id FROM nodes AS a, nodes AS b "
                  "WHERE a.name = 'V' AND b.kind = 0 AND b.tid = a.tid "
                  "AND b.left >= a.right"),
            11u);
}

TEST_F(SqlExecTest, ValueIndexLookup) {
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a "
                  "WHERE a.value = 'saw'"),
            1u);
}

TEST_F(SqlExecTest, ExistsAndNotExists) {
  // NPs containing a Det: NP6, NP7, NP12.
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
                  "a.name = 'NP' AND EXISTS (SELECT 1 FROM nodes AS b WHERE "
                  "b.tid = a.tid AND b.name = 'Det' AND b.left >= a.left AND "
                  "b.right <= a.right AND b.depth > a.depth)"),
            3u);
  // NPs with no Det inside: NP(I).
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
                  "a.name = 'NP' AND NOT (EXISTS (SELECT 1 FROM nodes AS b "
                  "WHERE b.tid = a.tid AND b.name = 'Det' AND b.left >= "
                  "a.left AND b.right <= a.right AND b.depth > a.depth))"),
            1u);
}

TEST_F(SqlExecTest, OrFilter) {
  // V or Det: 1 + 2.
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
                  "(a.name = 'V' OR a.name = 'Det')"),
            3u);
}

TEST_F(SqlExecTest, UnknownSymbolIsEmptyNotError) {
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
                  "a.value = 'neverseen'"),
            0u);
}

TEST_F(SqlExecTest, UnknownLiteralInsideOrDoesNotEmptyQuery) {
  // Regression: an unknown word in one OR leg used to mark the whole plan
  // always-empty. The V row must still match through the other leg.
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
                  "a.name = 'V' AND (a.value = 'zzz_unknown' OR "
                  "a.left >= 0)"),
            1u);
}

TEST_F(SqlExecTest, UnknownLiteralInsideNotIsSimplyFalse) {
  // NOT (value = unknown) holds for every row, so the name conjunct alone
  // decides: all four NPs.
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
                  "a.name = 'NP' AND NOT (a.value = 'zzz_unknown')"),
            4u);
}

TEST_F(SqlExecTest, UnknownLiteralInequalityMatchesLikeAbsentWord) {
  // `!= unknown-word` must answer like `!=` against a known word that the
  // rows don't carry, and like its De Morgan twin NOT (= unknown): all
  // four NPs (whose value column is empty) pass.
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
                  "a.name = 'NP' AND a.value != 'zzz_unknown'"),
            4u);
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
                  "a.name = 'NP' AND a.value != 'saw'"),
            4u);
}

TEST_F(SqlExecTest, UnknownValueEqualityMatchesNoElementRow) {
  // Element rows store kNoSymbol in the value column; an unknown literal
  // must not alias to that sentinel, or this OR would match all 15
  // elements instead of just V.
  EXPECT_EQ(Count("SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
                  "a.kind = 0 AND (a.value = 'zzz_unknown' OR "
                  "a.name = 'V')"),
            1u);
}

TEST_F(SqlExecTest, LiteralFirstSpellingUsesTheNameRun) {
  // `'NP' = a.name` must drive the same run-index access path as
  // `a.name = 'NP'` — identical results and identical candidate counts.
  sql::PlanExecutor executor(*rel_);
  ExecPlan var_first;
  var_first.num_vars = 1;
  var_first.conjuncts.push_back(Conjunct{Operand::Column(0, PlanCol::kName),
                                         CmpOp::kEq, Operand::String("NP")});
  ExecPlan lit_first;
  lit_first.num_vars = 1;
  lit_first.conjuncts.push_back(Conjunct{Operand::String("NP"), CmpOp::kEq,
                                         Operand::Column(0, PlanCol::kName)});
  sql::ExecStats var_stats, lit_stats;
  Result<QueryResult> var_result = executor.Execute(var_first, &var_stats);
  Result<QueryResult> lit_result = executor.Execute(lit_first, &lit_stats);
  ASSERT_TRUE(var_result.ok()) << var_result.status();
  ASSERT_TRUE(lit_result.ok()) << lit_result.status();
  EXPECT_EQ(var_result->count(), 4u);
  EXPECT_EQ(lit_result.value(), var_result.value());
  EXPECT_EQ(lit_stats.candidates, var_stats.candidates);
}

TEST_F(SqlExecTest, StringInequalityRejected) {
  Result<QueryResult> r =
      RunSql(*rel_,
             "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE "
             "a.name < 'NP'");
  EXPECT_TRUE(r.status().IsNotSupported());
}

TEST_F(SqlExecTest, RangeBoundsAtInt64MaxDoNotOverflow) {
  // The executor turns left/right bounds into half-open int32 ranges; a
  // bound at INT64_MAX lies above every position without overflowing.
  const std::string nps =
      std::string(kSelectA) + "WHERE a.tid = 0 AND a.name = 'NP'";
  const size_t all = Count(nps);
  EXPECT_GT(all, 0u);
  struct Case {
    const char* op;
    bool matches_all;
  };
  for (const char* col : {"left", "right"}) {
    for (const Case& c : {Case{"<=", true}, Case{"<", true}, Case{"!=", true},
                          Case{"=", false}, Case{">", false},
                          Case{">=", false}}) {
      const std::string q =
          nps + " AND a." + col + " " + c.op + " 9223372036854775807";
      EXPECT_EQ(Count(q), c.matches_all ? all : 0u) << q;
    }
  }
}

TEST_F(SqlExecTest, JoinOrderModesAgree) {
  const std::string q =
      "SELECT DISTINCT c.tid, c.id FROM nodes AS a, nodes AS b, nodes AS c "
      "WHERE a.name = 'VP' AND b.tid = a.tid AND b.pid = a.id AND "
      "b.name = 'V' AND c.tid = b.tid AND c.left >= b.right AND "
      "c.name = 'N'";
  sql::ExecOptions greedy;
  sql::ExecOptions ltr;
  ltr.join_order = sql::ExecOptions::JoinOrder::kLeftToRight;
  Result<QueryResult> r1 = RunSql(*rel_, q, greedy);
  Result<QueryResult> r2 = RunSql(*rel_, q, ltr);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
  EXPECT_EQ(r1->count(), 3u);
}

TEST_F(SqlExecTest, EarlyExitModesAgree) {
  const std::string q =
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'NP' AND b.tid = a.tid AND b.kind = 0 AND "
      "b.left >= a.right";
  sql::ExecOptions fast;
  sql::ExecOptions naive;
  naive.distinct_early_exit = false;
  Result<QueryResult> r1 = RunSql(*rel_, q, fast);
  Result<QueryResult> r2 = RunSql(*rel_, q, naive);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
}

TEST_F(SqlExecTest, LongTopLevelConjunctionRuns) {
  // The WHERE clause's own AND chain is flattened into conjuncts as it is
  // parsed, so its length is not limited and never recursed over: 200,000
  // terms once overflowed the stack of the recursive flattening.
  const std::string q =
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name = 'NP'";
  std::string ands;
  for (int i = 0; i < 200000; ++i) ands += " AND a.id > 0";
  Result<QueryResult> r = RunSql(*rel_, q + ands);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->count(), 4u);  // the four NPs of Figure 1
  // The same chain ending in a syntax error fails cleanly.
  Result<ExecPlan> bad = sql::ParseSql(q + ands + " AND");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST_F(SqlExecTest, QueriesAtTheNestingLimitExecute) {
  // The deepest statement the SQL parser accepts runs to the bottom of its
  // EXISTS chain (every level holds) without exhausting the stack.
  EXPECT_GT(Count(NestedExists(sql::kMaxSqlNesting - 1)), 0u);

  // LPath queries at their parser's limit, in the shapes that nest deepest:
  // satisfiable predicates inside predicates, and a not(...) tower as the
  // first operand of a maximal and-chain (the deepest AST, and the deepest
  // generated SQL). Each must agree with the navigational engine in every
  // translation mode, including the round trip through SQL text. (Self
  // steps keep the navigational engine, which does not memoize, linear.)
  std::string nested = "//S";
  for (int i = 0; i < kMaxLPathNesting; ++i) nested += "[self::S";
  nested.append(static_cast<size_t>(kMaxLPathNesting), ']');
  // An odd number of not(...) around a tag the corpus lacks holds.
  std::string tower = "//S[";
  for (int i = 0; i < kMaxLPathNesting - 1; ++i) tower += "not(";
  tower += "//NOSUCHTAG";
  tower.append(static_cast<size_t>(kMaxLPathNesting - 1), ')');
  for (int i = 1; i < kMaxLPathNesting; ++i) tower += " and //NP";
  tower += "]";

  NavigationalEngine nav(corpus_);
  for (const std::string& q : {nested, tower}) {
    Result<QueryResult> want = nav.Run(q);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_GT(want->count(), 0u);
    for (bool via_sql_text : {true, false}) {
      for (bool unnest : {true, false}) {
        LPathEngine::Options options;
        options.via_sql_text = via_sql_text;
        options.unnest_predicates = unnest;
        Result<QueryResult> got = LPathEngine(*rel_, options).Run(q);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(want.value(), got.value())
            << "via_sql_text=" << via_sql_text << " unnest=" << unnest;
      }
    }
  }
}

}  // namespace
}  // namespace lpath
