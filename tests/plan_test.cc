// Tests for the LPath → ExecPlan compiler and the SQL generator: plan
// shapes, Table 2 conjunct mapping, SQL text goldens, and the SQL → plan
// round trip.

#include "plan/compile.h"

#include <gtest/gtest.h>

#include "label/labeler.h"
#include "lpath/parser.h"
#include "plan/axis_map.h"
#include "plan/sql_gen.h"
#include "sql/parser.h"
#include "test_util.h"

namespace lpath {
namespace {

ExecPlan MustCompile(const std::string& q,
                     LabelScheme scheme = LabelScheme::kLPath) {
  Result<LocationPath> path = ParseLPath(q);
  EXPECT_TRUE(path.ok()) << q << ": " << path.status();
  CompileOptions opts;
  opts.scheme = scheme;
  Result<ExecPlan> plan = CompileLPath(path.value(), opts);
  EXPECT_TRUE(plan.ok()) << q << ": " << plan.status();
  return plan.ok() ? std::move(plan).value() : ExecPlan{};
}

bool HasConjunct(const ExecPlan& p, const std::string& rendered) {
  return p.DebugString().find(rendered) != std::string::npos;
}

TEST(CompileTest, SimpleDescendantScan) {
  ExecPlan p = MustCompile("//NP");
  EXPECT_EQ(p.num_vars, 1);
  EXPECT_EQ(p.output_var, 0);
  ASSERT_EQ(p.conjuncts.size(), 1u);
  EXPECT_TRUE(HasConjunct(p, "v0.name = 'NP'"));
}

TEST(CompileTest, RootStepConstrainsPid) {
  ExecPlan p = MustCompile("/S");
  EXPECT_TRUE(HasConjunct(p, "v0.pid = 0"));
  EXPECT_TRUE(HasConjunct(p, "v0.name = 'S'"));
}

TEST(CompileTest, ChildChainUsesPidJoin) {
  ExecPlan p = MustCompile("//VP/VB");
  EXPECT_EQ(p.num_vars, 2);
  EXPECT_EQ(p.output_var, 1);
  EXPECT_TRUE(HasConjunct(p, "v1.tid = v0.tid"));
  EXPECT_TRUE(HasConjunct(p, "v1.pid = v0.id"));
}

TEST(CompileTest, ImmediateFollowingIsAdjacency) {
  ExecPlan p = MustCompile("//VB->NP");
  EXPECT_TRUE(HasConjunct(p, "v1.left = v0.right"));
}

TEST(CompileTest, FollowingIsInterval) {
  ExecPlan p = MustCompile("//VB-->NP");
  EXPECT_TRUE(HasConjunct(p, "v1.left >= v0.right"));
}

TEST(CompileTest, SiblingAddsPidEquality) {
  ExecPlan p = MustCompile("//PP=>SBAR");
  EXPECT_TRUE(HasConjunct(p, "v1.pid = v0.pid"));
  EXPECT_TRUE(HasConjunct(p, "v1.left = v0.right"));
}

TEST(CompileTest, ScopeAddsContainment) {
  ExecPlan p = MustCompile("//VP{/VB-->NN}");
  // NN (v2) must be inside VP's (v0) subtree.
  EXPECT_TRUE(HasConjunct(p, "v2.left >= v0.left"));
  EXPECT_TRUE(HasConjunct(p, "v2.right <= v0.right"));
  EXPECT_TRUE(HasConjunct(p, "v2.depth >= v0.depth"));
  // The unscoped variant has none of that.
  ExecPlan q = MustCompile("//VP/VB-->NN");
  EXPECT_FALSE(HasConjunct(q, "v2.left >= v0.left"));
}

TEST(CompileTest, AlignmentUsesScopeEdges) {
  ExecPlan p = MustCompile("//VP{/NP$}");
  EXPECT_TRUE(HasConjunct(p, "v1.right = v0.right"));
  ExecPlan q = MustCompile("//VP{//^NP}");
  EXPECT_TRUE(HasConjunct(q, "v1.left = v0.left"));
}

TEST(CompileTest, AlignmentWithoutScopeBindsRoot) {
  ExecPlan p = MustCompile("//NP$");
  // An extra variable constrained to the root (pid = 0).
  EXPECT_EQ(p.num_vars, 2);
  EXPECT_TRUE(HasConjunct(p, "v1.pid = 0"));
  EXPECT_TRUE(HasConjunct(p, "v0.right = v1.right"));
  EXPECT_EQ(p.output_var, 0);
}

TEST(CompileTest, WildcardConstrainsKind) {
  ExecPlan p = MustCompile("//_");
  EXPECT_TRUE(HasConjunct(p, "v0.kind = 0"));
}

TEST(CompileTest, PositivePredicateIsUnnested) {
  // A positive path predicate joins in the same graph (a semi-join, sound
  // under the DISTINCT projection) — as in the paper's SQL translation.
  ExecPlan p = MustCompile("//S[//NP/ADJP]");
  EXPECT_TRUE(p.filters.empty());
  EXPECT_EQ(p.num_vars, 3);
  EXPECT_EQ(p.output_var, 0);  // still the S variable
  EXPECT_TRUE(HasConjunct(p, "v1.tid = v0.tid"));
  EXPECT_TRUE(HasConjunct(p, "v2.pid = v1.id"));
}

TEST(CompileTest, PredicateBecomesExistsWithoutUnnesting) {
  Result<LocationPath> path = ParseLPath("//S[//NP/ADJP]");
  ASSERT_TRUE(path.ok());
  CompileOptions opts;
  opts.unnest_predicates = false;
  Result<ExecPlan> plan = CompileLPath(path.value(), opts);
  ASSERT_TRUE(plan.ok());
  const ExecPlan& p = plan.value();
  ASSERT_EQ(p.filters.size(), 1u);
  EXPECT_EQ(p.filters[0]->kind, BoolExpr::Kind::kExists);
  const ExecPlan& sub = *p.filters[0]->sub;
  EXPECT_EQ(sub.num_vars, 2);
  // Correlation on the outer S.
  EXPECT_TRUE(HasConjunct(p, "v0.tid = outer0.tid"));
}

TEST(CompileTest, NotBecomesNotExists) {
  ExecPlan p = MustCompile("//NP[not(//JJ)]");
  ASSERT_EQ(p.filters.size(), 1u);
  EXPECT_EQ(p.filters[0]->kind, BoolExpr::Kind::kNot);
  EXPECT_EQ(p.filters[0]->lhs->kind, BoolExpr::Kind::kExists);
}

TEST(CompileTest, AttrCompareBecomesAttributeJoinVar) {
  // The value test becomes a join variable so the optimizer can anchor on
  // the {value, tid, id} index — the engine's big win on Q12/Q13.
  ExecPlan p = MustCompile("//_[@lex=saw]");
  EXPECT_TRUE(p.filters.empty());
  EXPECT_EQ(p.num_vars, 2);
  EXPECT_TRUE(HasConjunct(p, "v1.name = '@lex'"));
  EXPECT_TRUE(HasConjunct(p, "v1.value = 'saw'"));
  EXPECT_TRUE(HasConjunct(p, "v1.id = v0.id"));
}

TEST(CompileTest, NegatedPredicatesStayAsFilters) {
  // NOT cannot be unnested; neither can OR.
  ExecPlan p = MustCompile("//NP[not(//JJ)][//DT or //CD]");
  ASSERT_EQ(p.filters.size(), 2u);
  EXPECT_EQ(p.num_vars, 1);
}

TEST(CompileTest, OrSelfAxisBecomesDisjunctiveFilter) {
  ExecPlan p = MustCompile("//VP/descendant-or-self::VP");
  ASSERT_EQ(p.filters.size(), 1u);
  EXPECT_EQ(p.filters[0]->kind, BoolExpr::Kind::kOr);
}

TEST(CompileTest, PositionalRejected) {
  Result<LocationPath> path =
      ParseLPath("//V/following-sibling::_[position()=1]");
  ASSERT_TRUE(path.ok());
  Result<ExecPlan> plan = CompileLPath(path.value());
  EXPECT_TRUE(plan.status().IsNotSupported());
}

TEST(CompileTest, XPathSchemeRejectsImmediateAxes) {
  Result<LocationPath> path = ParseLPath("//VB->NP");
  ASSERT_TRUE(path.ok());
  CompileOptions opts;
  opts.scheme = LabelScheme::kXPath;
  EXPECT_TRUE(CompileLPath(path.value(), opts).status().IsNotSupported());
}

TEST(CompileTest, XPathSchemeRejectsAlignment) {
  Result<LocationPath> path = ParseLPath("//VP{/NP$}");
  ASSERT_TRUE(path.ok());
  CompileOptions opts;
  opts.scheme = LabelScheme::kXPath;
  EXPECT_TRUE(CompileLPath(path.value(), opts).status().IsNotSupported());
}

TEST(CompileTest, XPathSchemeAcceptsXPathFragment) {
  const char* kQueries[] = {
      "//S[//_[@lex=saw]]", "//S[//NP/ADJP]", "//NP[not(//JJ)]",
      "//_[@lex=rapprochement]", "//ADVP-LOC-CLR", "//RRC/PP-TMP",
      "//NP/NP/NP/NP/NP", "//VP/VP/VP",
  };
  for (const char* q : kQueries) {
    Result<LocationPath> path = ParseLPath(q);
    ASSERT_TRUE(path.ok());
    CompileOptions opts;
    opts.scheme = LabelScheme::kXPath;
    EXPECT_TRUE(CompileLPath(path.value(), opts).ok()) << q;
  }
}

TEST(SqlGenTest, SimpleQueryGolden) {
  ExecPlan p = MustCompile("//VP/VB");
  EXPECT_EQ(GenerateSql(p),
            "SELECT DISTINCT a1.tid, a1.id FROM nodes AS a0, nodes AS a1 "
            "WHERE a0.name = 'VP' AND a1.tid = a0.tid AND a1.pid = a0.id "
            "AND a1.name = 'VB'");
}

TEST(SqlGenTest, ValuePredicateGolden) {
  ExecPlan p = MustCompile("//_[@lex=saw]");
  EXPECT_EQ(GenerateSql(p),
            "SELECT DISTINCT a0.tid, a0.id FROM nodes AS a0, nodes AS a1 "
            "WHERE a0.kind = 0 AND a1.tid = a0.tid AND a1.id = a0.id "
            "AND a1.name = '@lex' AND a1.value = 'saw'");
}

TEST(SqlGenTest, ValuePredicateExistsFormWithoutUnnesting) {
  Result<LocationPath> path = ParseLPath("//_[@lex=saw]");
  ASSERT_TRUE(path.ok());
  CompileOptions opts;
  opts.unnest_predicates = false;
  Result<ExecPlan> plan = CompileLPath(path.value(), opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(GenerateSql(plan.value()),
            "SELECT DISTINCT a0.tid, a0.id FROM nodes AS a0 "
            "WHERE a0.kind = 0 AND EXISTS (SELECT 1 FROM nodes AS b0 "
            "WHERE b0.tid = a0.tid AND b0.id = a0.id AND b0.name = '@lex' "
            "AND b0.value = 'saw')");
}

TEST(SqlGenTest, QuotesAreEscaped) {
  // LPath double-quoted literal containing a single quote; the SQL
  // generator must double it, and the SQL parser must undo that.
  ExecPlan p = MustCompile("//_[@lex=\"don't\"]");
  std::string sql = GenerateSql(p);
  EXPECT_NE(sql.find("'don''t'"), std::string::npos);
  Result<ExecPlan> reparsed = sql::ParseSql(sql);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(GenerateSql(reparsed.value()), sql);
}

TEST(SqlRoundTripTest, The23QuerySuite) {
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
    ExecPlan p = MustCompile(q);
    std::string sql1 = GenerateSql(p);
    Result<ExecPlan> reparsed = sql::ParseSql(sql1);
    ASSERT_TRUE(reparsed.ok()) << q << "\n" << sql1 << "\n"
                               << reparsed.status();
    // The round trip is exact: regenerating yields identical SQL, and the
    // plan debug forms match.
    EXPECT_EQ(GenerateSql(reparsed.value()), sql1) << q;
    EXPECT_EQ(reparsed->DebugString(), p.DebugString()) << q;
  }
}

TEST(AxisMapTest, EveryLPathAxisMapsOrFilters) {
  for (int a = 0; a <= static_cast<int>(Axis::kAttribute); ++a) {
    Axis axis = static_cast<Axis>(a);
    std::vector<Conjunct> out;
    if (AxisIncludesSelf(axis) && axis != Axis::kSelf) {
      Result<std::unique_ptr<BoolExpr>> f =
          AxisFilter(LabelScheme::kLPath, axis, 0, 1);
      EXPECT_TRUE(f.ok()) << AxisName(axis);
    } else {
      EXPECT_TRUE(
          AppendAxisConjuncts(LabelScheme::kLPath, axis, 0, 1, &out).ok())
          << AxisName(axis);
      EXPECT_FALSE(out.empty()) << AxisName(axis);
    }
  }
}

// A label column of the node relation.
int64_t LabelColumn(const Label& label, PlanCol col) {
  switch (col) {
    case PlanCol::kLeft: return label.left;
    case PlanCol::kRight: return label.right;
    case PlanCol::kDepth: return label.depth;
    case PlanCol::kId: return label.id;
    case PlanCol::kPid: return label.pid;
    default:
      ADD_FAILURE() << "not a label column: " << PlanColName(col);
      return 0;
  }
}

// Evaluates a comparison over var 0 = `ctx` and var 1 = `cand`.
bool Holds(const Conjunct& c, const Label& ctx, const Label& cand) {
  auto value = [&](const Operand& o) {
    EXPECT_TRUE(o.var == 0 || o.var == 1) << "var " << o.var;
    return LabelColumn(o.var == 0 ? ctx : cand, o.col);
  };
  const int64_t a = value(c.lhs);
  const int64_t b = value(c.rhs);
  switch (c.op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

bool Holds(const BoolExpr& e, const Label& ctx, const Label& cand) {
  switch (e.kind) {
    case BoolExpr::Kind::kAnd:
      return Holds(*e.lhs, ctx, cand) && Holds(*e.rhs, ctx, cand);
    case BoolExpr::Kind::kOr:
      return Holds(*e.lhs, ctx, cand) || Holds(*e.rhs, ctx, cand);
    case BoolExpr::Kind::kCmp:
      return Holds(e.cmp, ctx, cand);
    default:
      ADD_FAILURE() << "unexpected filter node in an axis filter";
      return false;
  }
}

// What the compiler emits for "var 1 is on `axis` of var 0", evaluated over
// the labels of every node pair of random trees, must be the tree's own
// answer: under the LPath labeling for every axis, under the XPath labeling
// for every axis but the four immediate ones, which it refuses.
TEST(AxisTableTest, EmittedConjunctsAgreeWithStructure) {
  Rng rng(2029);
  Interner in;
  for (int iter = 0; iter < 20; ++iter) {
    const Tree t = testing::RandomTree(&rng, &in, 30);
    std::vector<Label> lpath_labels, xpath_labels;
    ComputeLPathLabels(t, &lpath_labels);
    ComputeXPathLabels(t, &xpath_labels);
    const NodeId n = static_cast<NodeId>(t.size());
    for (int a = 0; a < kAxisCount; ++a) {
      const Axis axis = static_cast<Axis>(a);
      const bool immediate = axis == Axis::kImmediateFollowing ||
                             axis == Axis::kImmediatePreceding ||
                             axis == Axis::kImmediateFollowingSibling ||
                             axis == Axis::kImmediatePrecedingSibling;
      for (const LabelScheme scheme : {LabelScheme::kLPath,
                                       LabelScheme::kXPath}) {
        const bool xpath = scheme == LabelScheme::kXPath;
        std::unique_ptr<BoolExpr> filter;
        std::vector<Conjunct> conjuncts;
        Status st;
        if (AxisIncludesSelf(axis) && axis != Axis::kSelf) {
          Result<std::unique_ptr<BoolExpr>> f = AxisFilter(scheme, axis, 0, 1);
          st = f.status();
          if (f.ok()) filter = std::move(f).value();
        } else {
          st = AppendAxisConjuncts(scheme, axis, 0, 1, &conjuncts);
        }
        if (xpath && immediate) {
          EXPECT_TRUE(st.IsNotSupported()) << AxisName(axis) << ": " << st;
          continue;
        }
        ASSERT_TRUE(st.ok()) << AxisName(axis) << ": " << st;
        const std::vector<Label>& labels = xpath ? xpath_labels : lpath_labels;
        for (NodeId x = 0; x < n; ++x) {
          for (NodeId y = 0; y < n; ++y) {
            bool emitted = true;
            if (filter) {
              emitted = Holds(*filter, labels[x], labels[y]);
            } else {
              for (const Conjunct& c : conjuncts) {
                emitted = emitted && Holds(c, labels[x], labels[y]);
              }
            }
            ASSERT_EQ(emitted,
                      testing::StructuralMatches(t, lpath_labels, axis, x, y))
                << AxisName(axis) << (xpath ? " (XPath labels)" : "")
                << " x=" << x << " y=" << y;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lpath
