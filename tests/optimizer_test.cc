// Unit tests for the plan preparation stage (sql/optimizer.h): literal
// resolution, cardinality-driven join ordering, conjunct scheduling and
// orientation, access-path choice and the implied/residual conjunct split.

#include "sql/optimizer.h"

#include <gtest/gtest.h>

#include "bench_util/suite.h"
#include "gen/generator.h"
#include "lpath/engines.h"
#include "sql/parser.h"
#include "test_util.h"

namespace lpath {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : corpus_(testing::BuildFigure1Corpus()) {
    Result<NodeRelation> rel = NodeRelation::Build(corpus_);
    EXPECT_TRUE(rel.ok());
    rel_ = std::make_unique<NodeRelation>(std::move(rel).value());
  }

  std::unique_ptr<sql::PreparedPlan> Prepare(const std::string& sql_text,
                                             sql::ExecOptions opts = {}) {
    Result<ExecPlan> plan = sql::ParseSql(sql_text);
    EXPECT_TRUE(plan.ok()) << plan.status();
    Result<std::unique_ptr<sql::PreparedPlan>> pp =
        sql::Prepare(plan.value(), *rel_, opts);
    EXPECT_TRUE(pp.ok()) << pp.status();
    return std::move(pp).value();
  }

  Corpus corpus_;
  std::unique_ptr<NodeRelation> rel_;
};

TEST_F(OptimizerTest, UnknownNameShortCircuitsToEmpty) {
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name = 'ZZZ'");
  EXPECT_TRUE(pp->always_empty);
}

TEST_F(OptimizerTest, UnknownNameInequalityIsNotEmpty) {
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name != 'ZZZ'");
  EXPECT_FALSE(pp->always_empty);
}

TEST_F(OptimizerTest, UnknownLiteralInsideOrIsNotAlwaysEmpty) {
  // Regression: resolution used to write the top-level always_empty flag
  // from inside filter trees, emptying `... OR <satisfiable>` plans.
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name = 'V' AND "
      "(a.value = 'zzz_unknown' OR a.left >= 0)");
  EXPECT_FALSE(pp->always_empty);
}

TEST_F(OptimizerTest, UnknownLiteralInsideNotIsNotAlwaysEmpty) {
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name = 'NP' AND "
      "NOT (a.value = 'zzz_unknown')");
  EXPECT_FALSE(pp->always_empty);
}

TEST_F(OptimizerTest, LiteralFirstConjunctIsOriented) {
  // A hand-built plan spelled literal-first must be flipped column-first
  // at prepare time so HarvestFacts and ChooseAccess see the name equality.
  ExecPlan plan;
  plan.num_vars = 1;
  plan.conjuncts.push_back(Conjunct{Operand::String("NP"), CmpOp::kEq,
                                    Operand::Column(0, PlanCol::kName)});
  Result<std::unique_ptr<sql::PreparedPlan>> pp =
      sql::Prepare(plan, *rel_, {});
  ASSERT_TRUE(pp.ok()) << pp.status();
  ASSERT_EQ(pp.value()->plan.conjuncts.size(), 1u);
  const Conjunct& c = pp.value()->plan.conjuncts[0];
  EXPECT_FALSE(c.lhs.is_literal());
  EXPECT_EQ(c.lhs.col, PlanCol::kName);
  EXPECT_TRUE(c.rhs.is_literal());
}

TEST_F(OptimizerTest, LiteralFirstOrderingOperatorIsMirrored) {
  // `5 < a.left` must become `a.left > 5`.
  ExecPlan plan;
  plan.num_vars = 1;
  plan.conjuncts.push_back(Conjunct{Operand::Number(5), CmpOp::kLt,
                                    Operand::Column(0, PlanCol::kLeft)});
  Result<std::unique_ptr<sql::PreparedPlan>> pp =
      sql::Prepare(plan, *rel_, {});
  ASSERT_TRUE(pp.ok()) << pp.status();
  const Conjunct& c = pp.value()->plan.conjuncts[0];
  EXPECT_FALSE(c.lhs.is_literal());
  EXPECT_EQ(c.lhs.col, PlanCol::kLeft);
  EXPECT_EQ(c.op, CmpOp::kGt);
  EXPECT_EQ(c.rhs.num, 5);
}

TEST_F(OptimizerTest, GreedyOrderAnchorsOnSmallestRun) {
  // S occurs once; NP four times; the wildcard var has no name. Greedy must
  // start from the S variable.
  auto pp = Prepare(
      "SELECT DISTINCT c.tid, c.id FROM nodes AS a, nodes AS b, nodes AS c "
      "WHERE a.name = 'NP' AND b.name = 'S' AND c.kind = 0 AND "
      "b.tid = a.tid AND c.tid = a.tid AND a.left >= b.left AND "
      "c.left >= a.right");
  ASSERT_EQ(pp->order.size(), 3u);
  EXPECT_EQ(pp->order[0], 1);  // the S variable
}

TEST_F(OptimizerTest, ValueEqualityWinsOverNames) {
  // The attribute variable with value='saw' (cardinality 1) must anchor.
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'NP' AND b.value = 'saw' AND b.tid = a.tid");
  ASSERT_EQ(pp->order.size(), 2u);
  EXPECT_EQ(pp->order[0], 1);
}

TEST_F(OptimizerTest, LeftToRightModeKeepsPlanOrder) {
  sql::ExecOptions opts;
  opts.join_order = sql::ExecOptions::JoinOrder::kLeftToRight;
  auto pp = Prepare(
      "SELECT DISTINCT b.tid, b.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'NP' AND b.name = 'S' AND b.tid = a.tid",
      opts);
  EXPECT_EQ(pp->order, std::vector<int>({0, 1}));
}

TEST_F(OptimizerTest, ConjunctsScheduledAtMaxPosition) {
  auto pp = Prepare(
      "SELECT DISTINCT b.tid, b.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'S' AND b.name = 'NP' AND b.tid = a.tid AND "
      "b.left >= a.left");
  // Single-variable conjuncts land at that variable's position; the two
  // cross-variable conjuncts land at the later position (1). Position 0
  // scans its name test's tag run (the test is implied, nothing is left
  // to check); position 1 enforces its name test by its tag, takes its
  // tree from the tid link and searches by the left bound.
  ASSERT_EQ(pp->access.size(), 2u);
  const sql::AccessPath& a0 = pp->access[0];
  const sql::AccessPath& a1 = pp->access[1];
  EXPECT_EQ(a0.kind, sql::AccessPath::Kind::kRun);
  EXPECT_NE(a0.tag, kNoSymbol);
  EXPECT_EQ(a0.bounds.size() + a0.residual.size(), 0u);
  EXPECT_EQ(a1.kind, sql::AccessPath::Kind::kLeftRange);
  EXPECT_NE(a1.tag, kNoSymbol);
  EXPECT_NE(a1.tag, a0.tag);
  EXPECT_EQ(a1.tid_source, sql::AccessPath::TidSource::kConjunct);
  ASSERT_EQ(a1.bounds.size(), 1u);
  EXPECT_EQ(a1.bounds[0].lhs.col, PlanCol::kLeft);
  EXPECT_TRUE(a1.residual.empty());
}

TEST_F(OptimizerTest, OrientationPutsLaterVarOnLhs) {
  auto pp = Prepare(
      "SELECT DISTINCT b.tid, b.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'S' AND b.name = 'NP' AND a.tid = b.tid AND "
      "a.right <= b.left");
  // Whatever side the SQL wrote them on, conjuncts checkable at position 1
  // must have the position-1 variable on the left: the range bound the
  // path searches by, anything residual, and the tid link it takes its
  // tree from (whose other side is the earlier variable).
  const int late_var = pp->order[1];
  const sql::AccessPath& a1 = pp->access[1];
  ASSERT_EQ(a1.bounds.size(), 1u);
  int checked = 0;
  for (const std::vector<Conjunct>* set : {&a1.bounds, &a1.residual}) {
    for (const Conjunct& c : *set) {
      if (!c.lhs.is_literal() && !c.rhs.is_literal()) {
        EXPECT_EQ(c.lhs.var, late_var);
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 1);
  EXPECT_EQ(a1.tid_source, sql::AccessPath::TidSource::kConjunct);
  EXPECT_EQ(a1.tid.var, pp->order[0]);
}

TEST_F(OptimizerTest, SubplansAreMovedIntoSlotsLeftToRight) {
  auto pp = Prepare(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name = 'VP' AND "
      "EXISTS (SELECT 1 FROM nodes AS b0 WHERE b0.tid = a.tid) AND "
      "NOT (EXISTS (SELECT 1 FROM nodes AS b0, nodes AS b1 WHERE "
      "b0.tid = a.tid AND b1.tid = b0.tid))");
  ASSERT_EQ(pp->plan.filters.size(), 2u);
  const BoolExpr& first = *pp->plan.filters[0];
  const BoolExpr& second = *pp->plan.filters[1]->lhs;
  ASSERT_EQ(first.kind, BoolExpr::Kind::kExists);
  ASSERT_EQ(second.kind, BoolExpr::Kind::kExists);
  EXPECT_EQ(first.sub_slot, 0);
  EXPECT_EQ(second.sub_slot, 1);
  EXPECT_EQ(first.sub, nullptr);  // moved into subs, reached by its slot
  ASSERT_EQ(pp->subs.size(), 2u);
  EXPECT_EQ(pp->subs[0]->plan.num_vars, 1);
  EXPECT_EQ(pp->subs[1]->plan.num_vars, 2);
}

TEST_F(OptimizerTest, StringComparisonWithOrderingRejected) {
  Result<ExecPlan> plan = sql::ParseSql(
      "SELECT DISTINCT a.tid, a.id FROM nodes AS a WHERE a.name < 'NP'");
  ASSERT_TRUE(plan.ok());
  sql::ExecOptions opts;
  Result<std::unique_ptr<sql::PreparedPlan>> pp =
      sql::Prepare(plan.value(), *rel_, opts);
  EXPECT_TRUE(pp.status().IsNotSupported());
}

/// ExplainAccess of each suite query over AccessPathTest's corpus, under
/// the default greedy order with unnesting on, each block headed by the
/// query's id and text. A change to the optimizer's cost model or access
/// rules shows here as a diff of this text.
constexpr char kSuiteAccessPaths[] =
    "Q1 //S[//_[@lex=saw]]\n"
    "v2 value-index tag=@lex bounds=1 residual=[v2.name = 5]\n"
    "v1 id-lookup tag=* bounds=1 residual=[v1.kind = 0]\n"
    "v0 left-range tag=S bounds=1 residual=[v0.right >= v1.right, "
    "v0.depth < v1.depth]\n"
    "\n"
    "Q2 //VB->NP\n"
    "v0 run tag=VB bounds=0 residual=[]\n"
    "v1 left-range tag=NP bounds=1 residual=[]\n"
    "\n"
    "Q3 //VP/VB-->NN\n"
    "v1 run tag=VB bounds=0 residual=[]\n"
    "v0 id-lookup tag=VP bounds=1 residual=[v0.name = 6]\n"
    "v2 left-range tag=NN bounds=1 residual=[]\n"
    "\n"
    "Q4 //VP{/VB-->NN}\n"
    "v1 run tag=VB bounds=0 residual=[]\n"
    "v0 id-lookup tag=VP bounds=1 residual=[v0.name = 6, v0.left <= v1.left, "
    "v0.right >= v1.right, v0.depth <= v1.depth]\n"
    "v2 left-range tag=NN bounds=2 residual=[v2.right <= v0.right, "
    "v2.depth >= v0.depth]\n"
    "\n"
    "Q5 //VP{/NP$}\n"
    "v0 run tag=VP bounds=0 residual=[]\n"
    "v1 pid-in-run tag=NP bounds=1 residual=[v1.left >= v0.left, "
    "v1.right <= v0.right, v1.depth >= v0.depth, v1.right = v0.right]\n"
    "\n"
    "Q6 //VP{//NP$}\n"
    "v0 run tag=VP bounds=0 residual=[]\n"
    "v1 left-range tag=NP bounds=2 residual=[v1.right <= v0.right, "
    "v1.depth > v0.depth, v1.right <= v0.right, v1.depth >= v0.depth, "
    "v1.right = v0.right]\n"
    "\n"
    "Q7 //VP[{//^VB->NP->PP$}]\n"
    "v1 run tag=VB bounds=0 residual=[]\n"
    "v0 left-range tag=VP bounds=3 residual=[v0.right >= v1.right, "
    "v0.depth < v1.depth, v0.right >= v1.right, v0.depth <= v1.depth]\n"
    "v3 left-range tag=PP bounds=1 residual=[v3.right <= v0.right, "
    "v3.depth >= v0.depth, v3.right = v0.right]\n"
    "v2 left-range tag=NP bounds=2 residual=[v2.tid = v1.tid, "
    "v2.right <= v0.right, v2.depth >= v0.depth, v2.right = v3.left]\n"
    "\n"
    "Q8 //S[//NP/ADJP]\n"
    "v2 run tag=ADJP bounds=0 residual=[]\n"
    "v1 id-lookup tag=NP bounds=1 residual=[v1.name = 11]\n"
    "v0 left-range tag=S bounds=1 residual=[v0.right >= v1.right, "
    "v0.depth < v1.depth]\n"
    "\n"
    "Q9 //NP[not(//JJ)]\n"
    "v0 run tag=NP bounds=0 residual=[]\n"
    "exists\n"
    "  v0 left-range tag=JJ bounds=1 residual=[v0.right <= outer0.right, "
    "v0.depth > outer0.depth]\n"
    "\n"
    "Q10 //NP[->PP[//IN[@lex=of]]=>VP]\n"
    "v3 value-index tag=@lex bounds=1 residual=[v3.name = 5]\n"
    "v2 id-lookup tag=IN bounds=1 residual=[v2.name = 37]\n"
    "v1 left-range tag=PP bounds=1 residual=[v1.right >= v2.right, "
    "v1.depth < v2.depth]\n"
    "v4 pid-in-run tag=VP bounds=1 residual=[v4.left = v1.right]\n"
    "v0 right-range tag=NP bounds=1 residual=[]\n"
    "\n"
    "Q11 //S[{//_[@lex=what]->_[@lex=building]}]\n"
    "v2 value-index tag=@lex bounds=1 residual=[v2.name = 5]\n"
    "v4 value-index tag=@lex bounds=1 residual=[v4.name = 5]\n"
    "v1 id-lookup tag=* bounds=1 residual=[v1.kind = 0]\n"
    "v0 left-range tag=S bounds=2 residual=[v0.right >= v1.right, "
    "v0.depth < v1.depth, v0.right >= v1.right, v0.depth <= v1.depth]\n"
    "v3 id-lookup tag=* bounds=1 residual=[v3.tid = v1.tid, "
    "v3.left = v1.right, v3.kind = 0, v3.left >= v0.left, "
    "v3.right <= v0.right, v3.depth >= v0.depth]\n"
    "\n"
    "Q12 //_[@lex=rapprochement]\n"
    "v1 value-index tag=@lex bounds=1 residual=[v1.name = 5]\n"
    "v0 id-lookup tag=* bounds=1 residual=[v0.kind = 0]\n"
    "\n"
    "Q13 //_[@lex=1929]\n"
    "v1 value-index tag=@lex bounds=1 residual=[v1.name = 5]\n"
    "v0 id-lookup tag=* bounds=1 residual=[v0.kind = 0]\n"
    "\n"
    "Q14 //ADVP-LOC-CLR\n"
    "v0 run tag=ADVP-LOC-CLR bounds=0 residual=[]\n"
    "\n"
    "Q15 //WHPP\n"
    "v0 run tag=WHPP bounds=0 residual=[]\n"
    "\n"
    "Q16 //RRC/PP-TMP\n"
    "v0 run tag=4294967295 bounds=0 residual=[v0.name = -1]\n"
    "v1 pid-in-run tag=4294967295 bounds=1 residual=[v1.name = -1]\n"
    "\n"
    "Q17 //UCP-PRD/ADJP-PRD\n"
    "v0 run tag=4294967295 bounds=0 residual=[v0.name = -1]\n"
    "v1 pid-in-run tag=ADJP-PRD bounds=1 residual=[]\n"
    "\n"
    "Q18 //NP/NP/NP/NP/NP\n"
    "v0 run tag=NP bounds=0 residual=[]\n"
    "v1 pid-in-run tag=NP bounds=1 residual=[]\n"
    "v2 pid-in-run tag=NP bounds=1 residual=[]\n"
    "v3 pid-in-run tag=NP bounds=1 residual=[]\n"
    "v4 pid-in-run tag=NP bounds=1 residual=[]\n"
    "\n"
    "Q19 //VP/VP/VP\n"
    "v0 run tag=VP bounds=0 residual=[]\n"
    "v1 pid-in-run tag=VP bounds=1 residual=[]\n"
    "v2 pid-in-run tag=VP bounds=1 residual=[]\n"
    "\n"
    "Q20 //PP=>SBAR\n"
    "v1 run tag=SBAR bounds=0 residual=[]\n"
    "v0 pid-in-run tag=PP bounds=1 residual=[v0.right = v1.left]\n"
    "\n"
    "Q21 //ADVP=>ADJP\n"
    "v0 run tag=ADVP bounds=0 residual=[]\n"
    "v1 pid-in-run tag=ADJP bounds=1 residual=[v1.left = v0.right]\n"
    "\n"
    "Q22 //NP=>NP=>NP\n"
    "v0 run tag=NP bounds=0 residual=[]\n"
    "v1 pid-in-run tag=NP bounds=1 residual=[v1.left = v0.right]\n"
    "v2 pid-in-run tag=NP bounds=1 residual=[v2.left = v1.right]\n"
    "\n"
    "Q23 //VP=>VP\n"
    "v0 run tag=VP bounds=0 residual=[]\n"
    "v1 pid-in-run tag=VP bounds=1 residual=[v1.left = v0.right]\n"
    "\n";

/// Access paths the optimizer picks for the paper's queries over a
/// generated WSJ corpus, compiled from LPath as the engine compiles them.
class AccessPathTest : public ::testing::Test {
 protected:
  AccessPathTest() {
    Result<Corpus> corpus = gen::GenerateWsj(300);
    EXPECT_TRUE(corpus.ok());
    corpus_ = std::move(corpus).value();
    Result<NodeRelation> rel = NodeRelation::Build(corpus_);
    EXPECT_TRUE(rel.ok());
    rel_ = std::make_unique<NodeRelation>(std::move(rel).value());
  }

  std::unique_ptr<sql::PreparedPlan> Prepare(const std::string& lpath) {
    Result<ExecPlan> plan = LPathEngine(*rel_).Translate(lpath);
    EXPECT_TRUE(plan.ok()) << plan.status();
    Result<std::unique_ptr<sql::PreparedPlan>> pp =
        sql::Prepare(plan.value(), *rel_, {});
    EXPECT_TRUE(pp.ok()) << pp.status();
    return std::move(pp).value();
  }

  Symbol Tag(const char* name) const { return corpus_.Lookup(name); }

  /// True when some conjunct of `cs` compares column `col` of its lhs.
  static bool HasCol(const std::vector<Conjunct>& cs, PlanCol col) {
    for (const Conjunct& c : cs) {
      if (c.lhs.col == col) return true;
    }
    return false;
  }

  Corpus corpus_;
  std::unique_ptr<NodeRelation> rel_;
};

using Kind = sql::AccessPath::Kind;
using TidSource = sql::AccessPath::TidSource;

TEST_F(AccessPathTest, Q14RootScansTheTagRun) {
  auto pp = Prepare("//ADVP-LOC-CLR");
  ASSERT_FALSE(pp->always_empty);
  ASSERT_EQ(pp->access.size(), 1u);
  const sql::AccessPath& root = pp->access[0];
  EXPECT_EQ(root.kind, Kind::kRun);
  EXPECT_EQ(root.tag, Tag("ADVP-LOC-CLR"));
  EXPECT_EQ(root.tid_source, TidSource::kNone);
  EXPECT_TRUE(root.bounds.empty());
  EXPECT_TRUE(root.residual.empty());  // the tag equality is implied
}

TEST_F(AccessPathTest, Q18ChildStepsArePidSearchesWithNoResidual) {
  auto pp = Prepare("//NP/NP/NP/NP/NP");
  ASSERT_EQ(pp->access.size(), 5u);
  EXPECT_EQ(pp->access[0].kind, Kind::kRun);
  for (size_t pos = 1; pos < 5; ++pos) {
    const sql::AccessPath& step = pp->access[pos];
    EXPECT_EQ(step.kind, Kind::kPidInRun) << pos;
    EXPECT_EQ(step.tag, Tag("NP")) << pos;
    EXPECT_EQ(step.tid_source, TidSource::kConjunct) << pos;
    ASSERT_EQ(step.bounds.size(), 1u) << pos;
    EXPECT_EQ(step.bounds[0].lhs.col, PlanCol::kPid) << pos;
    EXPECT_TRUE(step.residual.empty()) << pos;
  }
  const std::string explain = sql::ExplainAccess(*pp, &rel_->interner());
  EXPECT_NE(explain.find("pid-in-run tag=NP bounds=1 residual=[]"),
            std::string::npos)
      << explain;
}

TEST_F(AccessPathTest, Q6LeftRangeLeavesRightAndDepthResidual) {
  auto pp = Prepare("//VP{//NP$}");
  ASSERT_EQ(pp->access.size(), 2u);
  EXPECT_EQ(pp->access[0].kind, Kind::kRun);
  const sql::AccessPath& np = pp->access[1];
  EXPECT_EQ(np.kind, Kind::kLeftRange);
  EXPECT_EQ(np.tag, Tag("NP"));
  EXPECT_EQ(np.bounds.size(), 2u);  // the two scope/axis left bounds
  EXPECT_TRUE(HasCol(np.residual, PlanCol::kRight));  // incl. the $ edge
  EXPECT_TRUE(HasCol(np.residual, PlanCol::kDepth));
  EXPECT_FALSE(HasCol(np.residual, PlanCol::kLeft));
  EXPECT_FALSE(HasCol(np.residual, PlanCol::kTid));
  EXPECT_FALSE(HasCol(np.residual, PlanCol::kName));
}

TEST_F(AccessPathTest, Q9SubplanIsResolvedBySlotAndReadsItsOuterTree) {
  auto pp = Prepare("//NP[not(//JJ)]");
  ASSERT_EQ(pp->subs.size(), 1u);
  ASSERT_EQ(pp->plan.filters.size(), 1u);
  const BoolExpr& negation = *pp->plan.filters[0];
  ASSERT_EQ(negation.kind, BoolExpr::Kind::kNot);
  ASSERT_EQ(negation.lhs->kind, BoolExpr::Kind::kExists);
  EXPECT_EQ(negation.lhs->sub_slot, 0);
  const sql::PreparedPlan& sub = *pp->subs[0];
  ASSERT_EQ(sub.access.size(), 1u);
  EXPECT_EQ(sub.access[0].kind, Kind::kLeftRange);
  EXPECT_EQ(sub.access[0].tid_source, TidSource::kConjunct);
  EXPECT_TRUE(sub.access[0].tid.is_outer());
  EXPECT_TRUE(HasCol(sub.access[0].residual, PlanCol::kRight));
}

TEST_F(AccessPathTest, TidFromTheClassLeavesEveryTidConjunctResidual) {
  // b's only tid link is to c, which is bound after b; b takes its tree
  // from a, an earlier member of its class, so b.tid = c.tid stays to be
  // checked at c's position and nothing at b's is implied by the tree.
  sql::ExecOptions opts;
  opts.join_order = sql::ExecOptions::JoinOrder::kLeftToRight;
  Result<ExecPlan> plan = sql::ParseSql(
      "SELECT DISTINCT c.tid, c.id FROM nodes AS a, nodes AS b, nodes AS c "
      "WHERE a.name = 'VP' AND b.name = 'NP' AND c.name = 'DT' AND "
      "c.tid = a.tid AND b.tid = c.tid AND b.depth > a.depth");
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<std::unique_ptr<sql::PreparedPlan>> pp =
      sql::Prepare(plan.value(), *rel_, opts);
  ASSERT_TRUE(pp.ok()) << pp.status();
  const sql::AccessPath& b = (*pp)->access[1];
  EXPECT_EQ(b.kind, Kind::kTreeSlice);
  EXPECT_EQ(b.tid_source, TidSource::kClassMember);
  EXPECT_EQ(b.tid.var, 0);
  ASSERT_EQ(b.residual.size(), 1u);  // b.depth > a.depth
  EXPECT_EQ(b.residual[0].lhs.col, PlanCol::kDepth);
  const sql::AccessPath& c = (*pp)->access[2];
  EXPECT_EQ(c.tid_source, TidSource::kConjunct);
  EXPECT_TRUE(HasCol(c.residual, PlanCol::kTid));  // the unused tid link
}

TEST_F(AccessPathTest, SuiteAccessPathsArePinned) {
  std::string got;
  for (const bench::BenchmarkQuery& q : bench::The23Queries()) {
    auto pp = Prepare(q.lpath);
    got += 'Q';
    got += std::to_string(q.id);
    got += ' ';
    got += q.lpath;
    got += '\n';
    got += sql::ExplainAccess(*pp, &rel_->interner());
    got += '\n';
  }
  EXPECT_EQ(got, kSuiteAccessPaths);
}

}  // namespace
}  // namespace lpath
