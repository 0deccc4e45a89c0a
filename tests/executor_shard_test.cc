// Shard execution tests: ExecuteShard over any partition of the tid space
// must merge to exactly ExecutePrepared's result (differential over the
// fuzz corpus/query generator), shards must respect their boundaries,
// concurrent shard execution over one shared PreparedPlan must be free of
// data races (this suite runs under ThreadSanitizer in CI), and the
// executor's tree-slice cache must answer right when its keys alias.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "sql/executor.h"
#include "sql/optimizer.h"
#include "sql/parser.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::QueryGen;

/// Merges per-shard results over an even partition into `shards` slices.
QueryResult MergeShards(const sql::PlanExecutor& executor,
                        const sql::PreparedPlan& pp, int32_t trees,
                        int shards, sql::ExecStats* stats = nullptr) {
  QueryResult merged;
  for (int i = 0; i < shards; ++i) {
    const int32_t lo = static_cast<int32_t>(int64_t{trees} * i / shards);
    const int32_t hi = static_cast<int32_t>(int64_t{trees} * (i + 1) / shards);
    Result<QueryResult> part = executor.ExecuteShard(pp, lo, hi, stats);
    EXPECT_TRUE(part.ok()) << part.status();
    if (!part.ok()) return merged;
    merged.hits.insert(merged.hits.end(), part->hits.begin(),
                       part->hits.end());
  }
  merged.Normalize();
  return merged;
}

class ShardDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardDifferentialTest, ShardsMergeToSerialResult) {
  Rng rng(GetParam() * 104729 + 13);
  Corpus corpus = testing::RandomCorpus(GetParam() * 97 + 3, /*trees=*/17,
                                        /*max_nodes=*/25);
  Result<NodeRelation> rel = NodeRelation::Build(corpus);
  ASSERT_TRUE(rel.ok());
  LPathEngine engine(rel.value());
  sql::PlanExecutor executor(rel.value());
  const int32_t trees = rel.value().tree_count();

  QueryGen gen(&rng);
  for (int i = 0; i < 120; ++i) {
    const std::string q = gen.Query();
    Result<ExecPlan> plan = engine.Translate(q);
    ASSERT_TRUE(plan.ok()) << q << " -> " << plan.status();
    Result<std::unique_ptr<sql::PreparedPlan>> pp =
        sql::Prepare(plan.value(), rel.value(), {});
    ASSERT_TRUE(pp.ok()) << q << " -> " << pp.status();

    Result<QueryResult> serial = executor.ExecutePrepared(*pp.value());
    ASSERT_TRUE(serial.ok()) << q << " -> " << serial.status();
    for (int shards : {2, 4, 7}) {
      const QueryResult merged =
          MergeShards(executor, *pp.value(), trees, shards);
      ASSERT_EQ(merged, serial.value())
          << "query: " << q << "\nshards: " << shards
          << "\nseed: " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferentialTest,
                         ::testing::Range<uint64_t>(1, 5));

class ShardBoundaryTest : public ::testing::Test {
 protected:
  ShardBoundaryTest() : corpus_(testing::RandomCorpus(42, 9, 20)) {
    Result<NodeRelation> rel = NodeRelation::Build(corpus_);
    EXPECT_TRUE(rel.ok());
    rel_ = std::make_unique<NodeRelation>(std::move(rel).value());
  }

  std::unique_ptr<sql::PreparedPlan> PrepareQuery(const std::string& q) {
    LPathEngine engine(*rel_);
    Result<ExecPlan> plan = engine.Translate(q);
    EXPECT_TRUE(plan.ok()) << plan.status();
    Result<std::unique_ptr<sql::PreparedPlan>> pp =
        sql::Prepare(plan.value(), *rel_, {});
    EXPECT_TRUE(pp.ok()) << pp.status();
    return std::move(pp).value();
  }

  Corpus corpus_;
  std::unique_ptr<NodeRelation> rel_;
};

TEST_F(ShardBoundaryTest, EmptyAndOutOfRangeShardsYieldNothing) {
  auto pp = PrepareQuery("//NP");
  sql::PlanExecutor executor(*rel_);
  EXPECT_EQ(executor.ExecuteShard(*pp, 3, 3)->count(), 0u);
  const int32_t trees = rel_->tree_count();
  EXPECT_EQ(executor.ExecuteShard(*pp, trees, 2 * trees)->count(), 0u);
}

TEST_F(ShardBoundaryTest, FullRangeShardEqualsSerial) {
  auto pp = PrepareQuery("//NP[//N or @lex=zzzunknown]");
  sql::PlanExecutor executor(*rel_);
  Result<QueryResult> serial = executor.ExecutePrepared(*pp);
  Result<QueryResult> full =
      executor.ExecuteShard(*pp, 0, rel_->tree_count());
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value(), serial.value());
}

TEST_F(ShardBoundaryTest, ShardHitsStayInsideTheShard) {
  auto pp = PrepareQuery("//_");
  sql::PlanExecutor executor(*rel_);
  Result<QueryResult> part = executor.ExecuteShard(*pp, 2, 5);
  ASSERT_TRUE(part.ok());
  ASSERT_GT(part->count(), 0u);
  for (const Hit& h : part->hits) {
    EXPECT_GE(h.tid, 2);
    EXPECT_LT(h.tid, 5);
  }
}

TEST_F(ShardBoundaryTest, UntiedOutputIsFlaggedAndItsShardsOverlap) {
  // A hand-written cross product: the output b has no tid link to the root
  // a. The LPath compiler never emits this shape, but SQL text can. A shard
  // clamps a, not b, so two shards return the same b rows: this is why the
  // service runs a plan that is not OutputTiedToRoot() as one morsel.
  const std::string cross =
      "SELECT DISTINCT b.tid, b.id FROM nodes AS a, nodes AS b "
      "WHERE a.name = 'NP' AND b.name = 'N'";
  sql::ExecOptions left_to_right;
  left_to_right.join_order = sql::ExecOptions::JoinOrder::kLeftToRight;
  for (bool linked : {false, true}) {
    Result<ExecPlan> plan =
        sql::ParseSql(linked ? cross + " AND b.tid = a.tid" : cross);
    ASSERT_TRUE(plan.ok()) << plan.status();
    Result<std::unique_ptr<sql::PreparedPlan>> pp =
        sql::Prepare(plan.value(), *rel_, left_to_right);
    ASSERT_TRUE(pp.ok()) << pp.status();
    ASSERT_EQ(pp.value()->order[0], 0);
    EXPECT_EQ(pp.value()->OutputTiedToRoot(), linked);

    sql::PlanExecutor executor(*rel_);
    const int32_t mid = rel_->tree_count() / 2;
    Result<QueryResult> lower = executor.ExecuteShard(*pp.value(), 0, mid);
    Result<QueryResult> upper =
        executor.ExecuteShard(*pp.value(), mid, rel_->tree_count());
    ASSERT_TRUE(lower.ok());
    ASSERT_TRUE(upper.ok());
    ASSERT_GT(lower->count(), 0u);
    ASSERT_GT(upper->count(), 0u);
    std::vector<Hit> both;
    std::set_intersection(lower->hits.begin(), lower->hits.end(),
                          upper->hits.begin(), upper->hits.end(),
                          std::back_inserter(both));
    EXPECT_EQ(both.empty(), linked);
  }
}

TEST(ShardConcurrencyTest, ConcurrentShardsOnSharedPlanAgree) {
  Corpus corpus = testing::RandomCorpus(271828, /*trees=*/24, /*max_nodes=*/30);
  Result<NodeRelation> rel = NodeRelation::Build(corpus);
  ASSERT_TRUE(rel.ok());
  LPathEngine engine(rel.value());
  sql::PlanExecutor executor(rel.value());
  const int32_t trees = rel.value().tree_count();

  const std::string q = "//NP[@lex=dog or @lex=zzzunknown]//_";
  Result<ExecPlan> plan = engine.Translate(q);
  ASSERT_TRUE(plan.ok());
  Result<std::unique_ptr<sql::PreparedPlan>> pp =
      sql::Prepare(plan.value(), rel.value(), {});
  ASSERT_TRUE(pp.ok());
  Result<QueryResult> serial = executor.ExecutePrepared(*pp.value());
  ASSERT_TRUE(serial.ok());

  // Eight workers repeatedly run overlapping shard sweeps of one shared
  // prepared plan; each sweep must reproduce the serial result.
  constexpr int kWorkers = 8;
  std::vector<QueryResult> merged(kWorkers);
  std::vector<sql::ExecStats> stats(kWorkers);
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      const int shards = 2 + (w % 5);
      merged[w] =
          MergeShards(executor, *pp.value(), trees, shards, &stats[w]);
    });
  }
  for (std::thread& t : workers) t.join();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(merged[w], serial.value()) << "worker " << w;
    EXPECT_GT(stats[w].candidates, 0u);
  }
}

/// Symbol-id and tree-id stride of the aliasing corpus: keys (A, t),
/// (B, t) and (A, t + kAliasStride) collide under any (tag + tree) mod
/// 256 hashing of (tag, tree) keys.
constexpr size_t kAliasStride = 256;

/// A corpus whose tags A and B have symbol ids kAliasStride apart. Each
/// tree is an S over a few NPs over a seeded mix of A, B and X leaves.
Corpus AliasingCorpus(int trees, Symbol* a, Symbol* b) {
  Corpus corpus;
  Interner* in = corpus.mutable_interner();
  *a = in->Intern("A");
  for (size_t i = 1; i < kAliasStride; ++i) {
    std::string filler = "filler";
    filler += std::to_string(i);
    in->Intern(filler);
  }
  *b = in->Intern("B");
  const Symbol s = in->Intern("S");
  const Symbol np = in->Intern("NP");
  const Symbol x = in->Intern("X");
  Rng rng(314159);
  for (int t = 0; t < trees; ++t) {
    Tree tree;
    const NodeId root = tree.AddRoot(s);
    const int nps = 1 + static_cast<int>(rng.Below(3));
    for (int i = 0; i < nps; ++i) {
      const NodeId phrase = tree.AddChild(root, np);
      const int leaves = 1 + static_cast<int>(rng.Below(3));
      for (int j = 0; j < leaves; ++j) {
        const uint64_t pick = rng.Below(10);
        tree.AddChild(phrase, pick < 5 ? *a : pick < 8 ? *b : x);
      }
    }
    corpus.Add(std::move(tree));
  }
  return corpus;
}

TEST(TagDirectoryTest, AliasingKeysVisitedAlternatelyMatchNavigational) {
  constexpr int kTrees = 320;
  Symbol a = kNoSymbol, b = kNoSymbol;
  const Corpus corpus = AliasingCorpus(kTrees, &a, &b);
  ASSERT_EQ(b - a, kAliasStride);
  Result<NodeRelation> rel = NodeRelation::Build(corpus);
  ASSERT_TRUE(rel.ok());
  LPathEngine engine(rel.value());
  NavigationalEngine nav(corpus);
  sql::PlanExecutor executor(rel.value());

  // Each outer row probes A and then, when A is there, B in its own tree:
  // the probes alternate between two aliasing keys, tree after tree.
  // The descendant, child and preceding axes reach the slice through its
  // left, pid and right searches.
  for (const char* q : {"//S[not(//A) or //B]", "//NP[not(/A) or /B]",
                        "//X[not(<--A) or <--B]",
                        "//S[not(//NP[not(/A) or /B])]"}) {
    Result<QueryResult> want = nav.Run(q);
    ASSERT_TRUE(want.ok()) << q;
    ASSERT_GT(want->count(), 0u) << q;
    Result<ExecPlan> plan = engine.Translate(q);
    ASSERT_TRUE(plan.ok()) << q;
    Result<std::unique_ptr<sql::PreparedPlan>> pp =
        sql::Prepare(plan.value(), rel.value(), {});
    ASSERT_TRUE(pp.ok()) << q;
    sql::ExecStats stats;
    Result<QueryResult> serial = executor.ExecutePrepared(*pp.value(), &stats);
    ASSERT_TRUE(serial.ok()) << q;
    EXPECT_GT(stats.subqueries, kAliasStride) << q;
    EXPECT_EQ(serial.value(), want.value()) << q;
    EXPECT_EQ(MergeShards(executor, *pp.value(), kTrees, 7), want.value())
        << q;
  }
}

}  // namespace
}  // namespace lpath
