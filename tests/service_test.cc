// QueryService tests: the serving layer must be a drop-in equivalent of
// the serial LPathEngine (differential over the fuzz corpus/generator with
// a 4-thread pool), the plan cache must hit on normalized respellings and
// evict LRU, and concurrent clients must see consistent results and stats.
// This suite runs under ThreadSanitizer in CI.

#include "service/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lpath/engines.h"
#include "plan/exec_plan.h"
#include "service/plan_cache.h"
#include "sql/fingerprint.h"
#include "service/thread_pool.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::QueryGen;

TEST(ThreadPoolTest, RunsEveryTask) {
  std::atomic<int> counter{0};
  {
    service::ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Post([&counter] { counter.fetch_add(1); });
    }
    service::ThreadPool inner(2);
    for (int i = 0; i < 100; ++i) {
      inner.Post([&counter] { counter.fetch_add(1); });
    }
    // Destructors drain the queues before joining, so a dropped task shows
    // up as an assertion failure below, not a hang.
  }
  EXPECT_EQ(counter.load(), 1100);
}

TEST(ThreadPoolTest, BulkPostRunsEveryTaskOfEveryBatch) {
  std::atomic<int> counter{0};
  {
    service::ThreadPool pool(3);
    // Mixed batch sizes, including empty (a no-op) and larger than the
    // pool, interleaved with single posts — both enqueue paths share the
    // FIFO and the drain-on-destruction contract.
    for (int round = 0; round < 50; ++round) {
      std::vector<std::function<void()>> batch;
      for (int i = 0; i < round % 7; ++i) {
        batch.push_back([&counter] { counter.fetch_add(1); });
      }
      pool.Post(std::move(batch));
      pool.Post([&counter] { counter.fetch_add(1); });
    }
    pool.Post(std::vector<std::function<void()>>{});
  }
  // 50 rounds of (round % 7) batch tasks + 50 singles.
  int expected = 50;
  for (int round = 0; round < 50; ++round) expected += round % 7;
  EXPECT_EQ(counter.load(), expected);
}

TEST(PlanCacheTest, NormalizeCollapsesWhitespace) {
  EXPECT_EQ(service::NormalizeQueryText("  //NP  [ @lex = 'saw' ]  "),
            "//NP [ @lex = 'saw' ]");
  EXPECT_EQ(service::NormalizeQueryText("//NP\n\t//VP"), "//NP //VP");
  EXPECT_EQ(service::NormalizeQueryText(""), "");
}

TEST(PlanCacheTest, NormalizePreservesQuotedLiterals) {
  // The normalized text is what gets parsed, and LPath literals may
  // contain any character — whitespace inside quotes must survive.
  EXPECT_EQ(service::NormalizeQueryText("//V[ @lex = 'a  b' ]"),
            "//V[ @lex = 'a  b' ]");
  EXPECT_EQ(service::NormalizeQueryText("//V[@lex=\"a\tb\"]  "),
            "//V[@lex=\"a\tb\"]");
  EXPECT_EQ(service::NormalizeQueryText("'  x  '"), "'  x  '");
  // Regression: a run of spaces inside a quoted value must not collapse —
  // 'VB  NN' and 'VB NN' are different literals and different cache keys.
  EXPECT_EQ(service::NormalizeQueryText("//V[@lex='VB  NN']"),
            "//V[@lex='VB  NN']");
  EXPECT_NE(service::NormalizeQueryText("//V[@lex='VB  NN']"),
            service::NormalizeQueryText("//V[@lex='VB NN']"));
}

namespace {

// A structurally distinct plan per tag: one variable whose name column is
// pinned to a tag-specific literal.
ExecPlan TaggedPlan(const std::string& tag) {
  ExecPlan plan;
  plan.num_vars = 1;
  Conjunct c;
  c.lhs = Operand::Column(0, PlanCol::kName);
  c.rhs = Operand::String(tag);
  plan.conjuncts.push_back(std::move(c));
  return plan;
}

service::CachedPlanPtr MakeBundle(uint64_t fp) {
  auto entry = std::make_shared<service::CachedPlan>();
  entry->fingerprint = fp;
  entry->plan = std::make_shared<sql::PreparedPlan>();
  return entry;
}

}  // namespace

TEST(PlanCacheTest, LruEvictsOldestAndCountsStats) {
  service::PlanCache cache(2);
  auto put = [&cache](const std::string& key) {
    ExecPlan rep = TaggedPlan(key);
    const uint64_t fp = sql::PlanFingerprint(rep);
    cache.Put(key, fp, std::move(rep), MakeBundle(fp));
  };
  EXPECT_EQ(cache.Get("a"), nullptr);
  put("a");
  put("b");
  EXPECT_NE(cache.Get("a"), nullptr);  // "a" now most recent
  put("c");                            // evicts "b"
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  const service::PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.negative_hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.texts, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(PlanCacheTest, NegativeEntriesShareTheLruAndCountHits) {
  service::PlanCache cache(2);
  cache.PutNegative("bad", Status::InvalidArgument("parse error"));
  service::CachedPlanPtr hit = cache.Get("bad");
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->negative());
  EXPECT_TRUE(hit->error.IsInvalidArgument());
  const service::PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.negative_hits, 1u);
}

TEST(PlanCacheTest, RespellingsBindToOneEntryByFingerprint) {
  service::PlanCache cache(4);
  ExecPlan rep = TaggedPlan("NP");
  const uint64_t fp = sql::PlanFingerprint(rep);
  service::CachedPlanPtr first =
      cache.Put("//NP", fp, rep.Clone(), MakeBundle(fp));

  // A differently spelled query compiling to the same structure binds to
  // the existing entry without a Put.
  ExecPlan respelled = TaggedPlan("NP");
  service::CachedPlanPtr shared =
      cache.GetByFingerprint("//'NP'", fp, respelled);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared.get(), first.get());
  // And the spelling is now a front-map hit.
  EXPECT_EQ(cache.Get("//'NP'").get(), first.get());

  // A genuinely different plan presented under the same hash is refused.
  ExecPlan other = TaggedPlan("VP");
  EXPECT_EQ(cache.GetByFingerprint("//VP", fp, other), nullptr);

  const service::PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.shared_prepare_hits, 1u);
  EXPECT_EQ(stats.fingerprint_collisions, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.texts, 2u);
  EXPECT_EQ(stats.fingerprints, 1u);
}

TEST(PlanCacheTest, RacingPutAdoptsThePublishedEntry) {
  service::PlanCache cache(4);
  ExecPlan rep = TaggedPlan("NP");
  const uint64_t fp = sql::PlanFingerprint(rep);
  service::CachedPlanPtr winner =
      cache.Put("//NP", fp, rep.Clone(), MakeBundle(fp));
  // Same text raced: the loser's bundle is dropped, the winner returned.
  service::CachedPlanPtr same_text =
      cache.Put("//NP", fp, rep.Clone(), MakeBundle(fp));
  EXPECT_EQ(same_text.get(), winner.get());
  // Different text, structurally equal plan: bound to the same entry.
  service::CachedPlanPtr same_structure =
      cache.Put("//'NP'", fp, rep.Clone(), MakeBundle(fp));
  EXPECT_EQ(same_structure.get(), winner.get());
  EXPECT_EQ(cache.stats().size, 1u);
}

class QueryServiceTest : public ::testing::Test {
 protected:
  QueryServiceTest() {
    Result<SnapshotPtr> snap =
        CorpusSnapshot::Build(testing::RandomCorpus(9001, 20, 28));
    EXPECT_TRUE(snap.ok());
    snap_ = std::move(snap).value();
    serial_ = std::make_unique<LPathEngine>(snap_->relation());
  }

  std::unique_ptr<service::QueryService> MakeService(
      service::QueryServiceOptions opts = {}) {
    return std::make_unique<service::QueryService>(snap_, opts);
  }

  SnapshotPtr snap_;
  std::unique_ptr<LPathEngine> serial_;
};

TEST_F(QueryServiceTest, AgreesWithSerialEngineOnFuzzQueries) {
  service::QueryServiceOptions opts;
  opts.threads = 4;
  opts.adaptive_serial_rows = 0;  // the point here is the sharded path
  auto service = MakeService(opts);
  Rng rng(77);
  QueryGen gen(&rng);
  for (int i = 0; i < 150; ++i) {
    const std::string q = gen.Query();
    Result<QueryResult> got = service->Query(q);
    Result<QueryResult> expected = serial_->Run(q);
    ASSERT_TRUE(got.ok()) << q << " -> " << got.status();
    ASSERT_TRUE(expected.ok()) << q << " -> " << expected.status();
    ASSERT_EQ(got.value(), expected.value()) << "query: " << q;
  }
}

TEST_F(QueryServiceTest, BatchMatchesIndividualQueries) {
  service::QueryServiceOptions opts;
  opts.threads = 4;
  auto service = MakeService(opts);
  Rng rng(1234);
  QueryGen gen(&rng);
  std::vector<std::string> queries;
  for (int i = 0; i < 60; ++i) queries.push_back(gen.Query());
  std::vector<Result<QueryResult>> batch = service->QueryBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<QueryResult> expected = serial_->Run(queries[i]);
    ASSERT_TRUE(batch[i].ok()) << queries[i] << " -> " << batch[i].status();
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(batch[i].value(), expected.value()) << "query: " << queries[i];
  }
}

TEST_F(QueryServiceTest, PlanCacheHitsOnRespellings) {
  // Normalization collapses whitespace runs and trims; it cannot remove
  // whitespace outright (the and/or/not keywords need separators).
  auto service = MakeService();
  ASSERT_TRUE(service->Query("//NP[@lex='dog' or @lex='saw']").ok());
  ASSERT_TRUE(service->Query("//NP[@lex='dog'   or   @lex='saw']").ok());
  ASSERT_TRUE(service->Query("  //NP[@lex='dog' \t or @lex='saw']  ").ok());
  const service::ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.cache.size, 1u);
}

TEST_F(QueryServiceTest, UnknownWordInsideOrIsServedNotEmptied) {
  // The service must inherit the literal-resolution fix end to end.
  auto service = MakeService();
  Result<QueryResult> with_or =
      service->Query("//_[@lex='dog' or @lex='zzzunknown']");
  Result<QueryResult> plain = service->Query("//_[@lex='dog']");
  ASSERT_TRUE(with_or.ok());
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(with_or.value(), plain.value());
}

TEST_F(QueryServiceTest, StatsCountLatencyAndWork) {
  auto service = MakeService();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(service->Query("//NP//_").ok());
  }
  const service::ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.queries, 10u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.latency.samples, 10u);
  EXPECT_LE(stats.latency.p50_ms, stats.latency.p90_ms);
  EXPECT_LE(stats.latency.p90_ms, stats.latency.p99_ms);
  EXPECT_LE(stats.latency.p99_ms, stats.latency.max_ms);
  EXPECT_GT(stats.exec.candidates, 0u);
  EXPECT_GT(stats.total_seconds, 0.0);
  service->ResetStats();
  EXPECT_EQ(service->Stats().queries, 0u);
  EXPECT_EQ(service->Stats().latency.samples, 0u);
}

TEST_F(QueryServiceTest, ParseErrorsAreReturnedAndCounted) {
  auto service = MakeService();
  Result<QueryResult> r = service->Query("///[[");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(service->Stats().errors, 1u);
  EXPECT_EQ(service->Stats().queries, 1u);
}

TEST_F(QueryServiceTest, NegativeCacheServesRepeatedBadQueries) {
  auto service = MakeService();
  const std::string bad = "///[[";
  Result<QueryResult> first = service->Query(bad);
  ASSERT_FALSE(first.ok());
  // Resubmissions (including respellings) answer from the cache with the
  // same Status instead of re-parsing.
  Result<QueryResult> second = service->Query(bad);
  Result<QueryResult> third = service->Query("  ///[[  ");
  ASSERT_FALSE(second.ok());
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(second.status().ToString(), first.status().ToString());
  EXPECT_EQ(third.status().ToString(), first.status().ToString());
  const service::ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.cache.misses, 1u);  // parsed exactly once
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.cache.negative_hits, 2u);
  EXPECT_EQ(stats.cache.size, 1u);
  EXPECT_EQ(stats.errors, 3u);
}

TEST_F(QueryServiceTest, AdaptiveShardingPicksSerialForTinyQueries) {
  // The fixture corpus is tiny, so with the default threshold every query
  // should be executed serially — visible both in the decision counters
  // and in the executor's shard count.
  service::QueryServiceOptions adaptive;
  adaptive.threads = 4;
  auto service = MakeService(adaptive);
  ASSERT_TRUE(service->Query("//NP//_").ok());
  service::ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.serial_queries, 1u);
  EXPECT_EQ(stats.sharded_queries, 0u);
  EXPECT_EQ(stats.exec.shards, 1u);

  // Disabling the heuristic shards the same query across the pool.
  service::QueryServiceOptions forced;
  forced.threads = 4;
  forced.adaptive_serial_rows = 0;
  auto sharded = MakeService(forced);
  Result<QueryResult> a = sharded->Query("//NP//_");
  ASSERT_TRUE(a.ok());
  stats = sharded->Stats();
  EXPECT_EQ(stats.sharded_queries, 1u);
  EXPECT_EQ(stats.serial_queries, 0u);
  EXPECT_GT(stats.exec.shards, 1u);

  // Both decisions return the same rows.
  Result<QueryResult> b = service->Query("//NP//_");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST_F(QueryServiceTest, UpdateSnapshotServesTheNewCorpus) {
  auto service = MakeService();
  const std::string q = "//NP//_";
  Result<QueryResult> before = service->Query(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(service->snapshot()->id(), snap_->id());

  Result<SnapshotPtr> other =
      CorpusSnapshot::Build(testing::RandomCorpus(31337, 35, 30));
  ASSERT_TRUE(other.ok());
  service->UpdateSnapshot(other.value());
  EXPECT_EQ(service->snapshot()->id(), (*other)->id());

  Result<QueryResult> after = service->Query(q);
  ASSERT_TRUE(after.ok());
  LPathEngine other_engine((*other)->relation());
  Result<QueryResult> expected = other_engine.Run(q);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(after.value(), expected.value());
  // A fresh cache: the old snapshot's plans (symbols!) were dropped.
  EXPECT_EQ(service->Stats().cache.misses, 1u);
}

TEST_F(QueryServiceTest, ViaSqlTextPreparesIdenticalResults) {
  service::QueryServiceOptions direct;
  service::QueryServiceOptions roundtrip;
  roundtrip.via_sql_text = true;
  auto a = MakeService(direct);
  auto b = MakeService(roundtrip);
  Rng rng(5150);
  QueryGen gen(&rng);
  for (int i = 0; i < 40; ++i) {
    const std::string q = gen.Query();
    Result<QueryResult> ra = a->Query(q);
    Result<QueryResult> rb = b->Query(q);
    ASSERT_TRUE(ra.ok()) << q;
    ASSERT_TRUE(rb.ok()) << q;
    ASSERT_EQ(ra.value(), rb.value()) << "query: " << q;
  }
}

TEST_F(QueryServiceTest, ConcurrentClientsSeeConsistentResults) {
  service::QueryServiceOptions opts;
  opts.threads = 4;
  opts.plan_cache_capacity = 8;   // force eviction churn under load
  opts.adaptive_serial_rows = 0;  // keep intra-query sharding in the mix
  auto service = MakeService(opts);

  // A mixed workload per client: shared hot queries (cache hits) plus
  // client-unique ones (misses + evictions), half through the batch path.
  constexpr int kClients = 6;
  std::vector<std::string> hot = {"//NP//_", "//VP[//N]", "//S",
                                  "//_[@lex='dog' or @lex='zzzunknown']"};
  std::vector<QueryResult> expected;
  for (const std::string& q : hot) {
    Result<QueryResult> r = serial_->Run(q);
    ASSERT_TRUE(r.ok());
    expected.push_back(std::move(r).value());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1000 + c);
      QueryGen gen(&rng);
      for (int round = 0; round < 25; ++round) {
        const size_t qi = (c + round) % hot.size();
        Result<QueryResult> r = service->Query(hot[qi]);
        if (!r.ok() || !(r.value() == expected[qi])) failures.fetch_add(1);
        // Unique query: exercises miss + prepare + eviction concurrently.
        (void)service->Query(gen.Query());
        if (round % 5 == 0) {
          std::vector<Result<QueryResult>> batch =
              service->QueryBatch({hot[0], hot[1]});
          if (!(batch[0].ok() && batch[0].value() == expected[0])) {
            failures.fetch_add(1);
          }
          if (!(batch[1].ok() && batch[1].value() == expected[1])) {
            failures.fetch_add(1);
          }
        }
        (void)service->Stats();  // stats reads race with recording
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const service::ServiceStats stats = service->Stats();
  EXPECT_GT(stats.queries, static_cast<uint64_t>(kClients * 50));
  EXPECT_GT(stats.cache.evictions, 0u);
}

}  // namespace
}  // namespace lpath
