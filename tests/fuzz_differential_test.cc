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

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/suite.h"
#include "gen/generator.h"
#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "lpath/parser.h"
#include "plan/compile.h"
#include "plan/sql_gen.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
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

/// Appends every prefix of `text` and its single-bit flips at every offset.
void AppendTruncationsAndFlips(const std::string& text,
                               std::vector<std::string>* out) {
  for (size_t i = 0; i <= text.size(); ++i) out->push_back(text.substr(0, i));
  for (size_t i = 0; i < text.size(); ++i) {
    for (const int mask : {0x01, 0x02, 0x04, 0x10, 0x20, 0x40, 0x80}) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      out->push_back(std::move(flipped));
    }
  }
}

/// Hostile inputs derived from the 23 suite queries: truncation at every
/// offset, byte flips, positional predicates of 19 to 40 digits (around
/// and past INT64_MAX), token splices between queries, 200-deep nests of
/// every bracket kind (closed and unclosed), and 1 MiB identifiers.
std::vector<std::string> MutatedSuiteQueries() {
  std::vector<std::string> suite;
  for (const bench::BenchmarkQuery& q : bench::The23Queries()) {
    suite.emplace_back(q.lpath);
  }
  std::vector<std::string> out;
  for (const std::string& q : suite) {
    AppendTruncationsAndFlips(q, &out);
    for (const std::string& digits :
         {std::string("9223372036854775807"),
          std::string("9223372036854775808"), std::string(20, '9'),
          std::string(40, '9')}) {
      out.push_back(q + "[" + digits + "]");
    }
  }
  // A prefix of one query ending where a token starts, joined to the
  // suffix of another starting at a token.
  const auto token_starts = [](const std::string& q) {
    std::vector<size_t> cuts;
    for (size_t i = 0; i < q.size(); ++i) {
      if (std::strchr("/[]{}=-", q[i]) != nullptr) cuts.push_back(i);
    }
    return cuts;
  };
  for (const std::string& a : suite) {
    for (const std::string& b : suite) {
      for (const size_t cut_a : token_starts(a)) {
        for (const size_t cut_b : token_starts(b)) {
          out.push_back(a.substr(0, cut_a) + b.substr(cut_b));
        }
      }
    }
  }
  constexpr int kDepth = 200;
  const auto repeat = [](const std::string& piece, int n) {
    std::string r;
    for (int i = 0; i < n; ++i) r += piece;
    return r;
  };
  for (const auto& [open, close] :
       {std::pair<std::string, std::string>{"[//NP", "]"},
        {"{//NP", "}"},
        {"[(//NP", ")]"},
        {"[not(//NP", ")]"},
        {"[//NP[", "]]"}}) {
    out.push_back("//S" + repeat(open, kDepth) + repeat(close, kDepth));
    out.push_back("//S" + repeat(open, kDepth));
    out.push_back("//S" + repeat(close, kDepth));
  }
  out.push_back("//S[" + repeat("(", kDepth) + "//NP" + repeat(")", kDepth) +
                "]");
  out.push_back("//S[" + repeat("not(", kDepth) + "//NP" +
                repeat(")", kDepth) + "]");
  const std::string huge(size_t{1} << 20, 'N');
  out.push_back("//" + huge);
  out.push_back("//VP/" + huge + "->NP");
  out.push_back("//_[@lex=" + huge + "]");
  out.push_back("//_[@" + huge + "=saw]");
  out.push_back("//'" + huge + "'");
  return out;
}

// Every stage a query text meets before execution — parse, compile, SQL
// generation, SQL re-parse and prepare — must return a value or a Status
// on hostile input: no crash, no unbounded recursion, no hang. A query
// that compiles must also survive the SQL round trip.
TEST(FrontEndRobustnessTest, MutatedSuiteQueriesReturnAValueOrAStatus) {
  Result<Corpus> corpus = gen::GenerateWsj(50, /*seed=*/3);
  ASSERT_TRUE(corpus.ok());
  Result<NodeRelation> rel = NodeRelation::Build(corpus.value());
  ASSERT_TRUE(rel.ok());
  int parsed_count = 0;
  int prepared_count = 0;
  for (const std::string& text : MutatedSuiteQueries()) {
    const std::string shown = text.substr(0, 60);
    Result<LocationPath> parsed = ParseLPath(text);
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.status().message().empty()) << shown;
      continue;
    }
    ++parsed_count;
    Result<ExecPlan> plan = CompileLPath(parsed.value());
    if (!plan.ok()) continue;
    Result<ExecPlan> reparsed = sql::ParseSql(GenerateSql(plan.value()));
    ASSERT_TRUE(reparsed.ok()) << shown << ": " << reparsed.status();
    Result<std::unique_ptr<sql::PreparedPlan>> prepared =
        sql::Prepare(reparsed.value(), rel.value(), sql::ExecOptions{});
    if (prepared.ok()) ++prepared_count;
  }
  // The mutations must reach the deeper stages, not just the parser.
  EXPECT_GT(parsed_count, 1000);
  EXPECT_GT(prepared_count, 1000);

  // The SQL parser meets the same truncations and flips of the suite's
  // generated SQL.
  std::vector<std::string> sql_texts;
  for (const bench::BenchmarkQuery& q : bench::The23Queries()) {
    Result<LocationPath> parsed = ParseLPath(q.lpath);
    ASSERT_TRUE(parsed.ok()) << q.lpath;
    Result<ExecPlan> plan = CompileLPath(parsed.value());
    ASSERT_TRUE(plan.ok()) << q.lpath;
    AppendTruncationsAndFlips(GenerateSql(plan.value()), &sql_texts);
  }
  int sql_parsed_count = 0;
  for (const std::string& text : sql_texts) {
    Result<ExecPlan> reparsed = sql::ParseSql(text);
    if (reparsed.ok()) {
      ++sql_parsed_count;
    } else {
      EXPECT_TRUE(reparsed.status().IsInvalidArgument())
          << text << ": " << reparsed.status();
    }
  }
  EXPECT_GT(sql_parsed_count, 1000);
}

}  // namespace
}  // namespace lpath
