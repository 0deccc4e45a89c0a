// Unit tests for the plan preparation stage (sql/optimizer.h): literal
// resolution, cardinality-driven join ordering, conjunct scheduling and
// orientation, subplan correlation analysis.

#include "sql/optimizer.h"

#include <gtest/gtest.h>

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
  // at prepare time so HarvestFacts/StaticFacts see the name equality.
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
  // cross-variable conjuncts land at the later position (1).
  size_t at0 = pp->conjuncts_at[0].size();
  size_t at1 = pp->conjuncts_at[1].size();
  EXPECT_EQ(at0, 1u);  // the anchor's name test
  EXPECT_EQ(at1, 3u);  // the other name test + tid link + left bound
}

TEST_F(OptimizerTest, OrientationPutsLaterVarOnLhs) {
  auto pp = Prepare(
      "SELECT DISTINCT b.tid, b.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'S' AND b.name = 'NP' AND a.tid = b.tid AND "
      "a.right <= b.left");
  // Whatever side the SQL wrote them on, conjuncts checkable at position 1
  // must have the position-1 variable on the left.
  const int late_var = pp->order[1];
  for (const Conjunct& c : pp->conjuncts_at[1]) {
    if (!c.lhs.is_literal() && !c.rhs.is_literal()) {
      EXPECT_EQ(c.lhs.var, late_var);
    }
  }
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

}  // namespace
}  // namespace lpath
