// Differential fuzzing: generate random LPath queries (random axes, node
// tests, scopes, alignment, predicates — including unknown tags/words and
// OR/NOT combinations over them, the shape of the filter-tree literal
// resolution bug) and random corpora, then require the relational engine
// (through the full SQL round trip) to agree exactly with the navigational
// reference evaluator. This sweeps query shapes the hand-written batteries
// never enumerate. The generator itself lives in test_util.h, shared with
// the shard and service differentials. Both join orders run: each gives
// every position a different bound set, so a different access path and a
// different split of its conjuncts into implied and residual ones.

#include <gtest/gtest.h>

#include <string>

#include "gen/generator.h"
#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "lpath/parser.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::QueryGen;

class FuzzDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzDifferentialTest, RelationalAgreesWithNavigational) {
  Rng rng(GetParam() * 7919 + 1);
  Corpus corpus = testing::RandomCorpus(GetParam() * 31 + 7, /*trees=*/15,
                                        /*max_nodes=*/25);
  Result<NodeRelation> rel = NodeRelation::Build(corpus);
  ASSERT_TRUE(rel.ok());
  LPathEngine relational(rel.value());
  LPathEngine::Options nested;
  nested.unnest_predicates = false;
  LPathEngine relational_nested(rel.value(), nested);
  LPathEngine::Options plan_order;
  plan_order.exec.join_order = sql::ExecOptions::JoinOrder::kLeftToRight;
  LPathEngine relational_plan_order(rel.value(), plan_order);
  NavigationalEngine nav(corpus);

  QueryGen gen(&rng);
  int evaluated = 0;
  for (int i = 0; i < 250; ++i) {
    const std::string q = gen.Query();
    // Every generated query must parse.
    Result<LocationPath> parsed = ParseLPath(q);
    ASSERT_TRUE(parsed.ok()) << q << " -> " << parsed.status();

    Result<QueryResult> expected = nav.Run(q);
    ASSERT_TRUE(expected.ok()) << q << " -> " << expected.status();
    for (const LPathEngine* engine :
         {&relational, &relational_nested, &relational_plan_order}) {
      Result<QueryResult> got = engine->Run(q);
      ASSERT_TRUE(got.ok()) << q << " -> " << got.status();
      ASSERT_EQ(got.value(), expected.value())
          << "query: " << q << "\nseed: " << GetParam()
          << "\nexpected " << expected->count() << " hits, got "
          << got->count();
    }
    ++evaluated;
  }
  EXPECT_EQ(evaluated, 250);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(ResidualDifferentialTest, NonImpliedConjunctsMatchUnderBothJoinOrders) {
  // Queries whose answer hangs on a conjunct the access path does not
  // imply: edge alignment (a right equality left to check on a left-range
  // path), depth, and conjuncts inside correlated EXISTS subplans.
  Result<Corpus> corpus = gen::GenerateWsj(300, /*seed=*/17);
  ASSERT_TRUE(corpus.ok());
  Result<NodeRelation> rel = NodeRelation::Build(corpus.value());
  ASSERT_TRUE(rel.ok());
  NavigationalEngine nav(corpus.value());
  for (const auto order : {sql::ExecOptions::JoinOrder::kGreedy,
                           sql::ExecOptions::JoinOrder::kLeftToRight}) {
    for (const bool unnest : {true, false}) {
      LPathEngine::Options options;
      options.exec.join_order = order;
      options.unnest_predicates = unnest;
      LPathEngine relational(rel.value(), options);
      for (const char* q :
           {"//VP{/NP$}", "//VP{//NP$}", "//VP[{//^VB->NP->PP$}]",
            "//NP[not(//JJ)]", "//VP{//^VB}", "//S{/VP$}",
            "//NP[not(/NN$)]", "//VP[//NP{/DT->NN$}]", "//PP[{//NP$}]/IN"}) {
        Result<QueryResult> want = nav.Run(q);
        ASSERT_TRUE(want.ok()) << q;
        ASSERT_GT(want->count(), 0u) << q;
        Result<QueryResult> got = relational.Run(q);
        ASSERT_TRUE(got.ok()) << q << ": " << got.status();
        EXPECT_EQ(got.value(), want.value())
            << q << " order " << static_cast<int>(order) << " unnest "
            << unnest;
      }
    }
  }
}

}  // namespace
}  // namespace lpath
