// QueryService tests: the serving layer must be a drop-in equivalent of
// the serial LPathEngine (differential over the fuzz corpus/generator with
// a 4-thread pool, base-only and base+delta chains), the plan cache must
// hit on normalized respellings and evict LRU, concurrent misses of one
// text must prepare once, concurrent Submit()s must each match the
// navigational oracle, and concurrent clients must see consistent results
// and stats.
// This suite runs under ThreadSanitizer in CI.

#include "service/query_service.h"

#include <gtest/gtest.h>
#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cctype>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "plan/exec_plan.h"
#include "service/plan_cache.h"
#include "service/thread_pool.h"
#include "sql/optimizer.h"
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

service::CachedPlanPtr MakeBundle() {
  auto entry = std::make_shared<service::CachedPlan>();
  entry->plan = std::make_shared<sql::PreparedPlan>();
  return entry;
}

SnapshotPtr MustBuild(Corpus corpus) {
  Result<SnapshotPtr> snap = CorpusSnapshot::Build(std::move(corpus));
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  return std::move(snap).value();
}

/// A base snapshot with one appended delta (a two-source chain).
SnapshotPtr MustBuildChain(uint64_t seed) {
  Result<SnapshotPtr> chain = MustBuild(testing::RandomCorpus(seed, 18))
                                  ->Append(testing::RandomCorpus(seed + 1, 9));
  EXPECT_TRUE(chain.ok()) << chain.status().ToString();
  return std::move(chain).value();
}

/// Respells `q` by single-quoting every maximal letter run that starts
/// uppercase. The fuzz grammar (test_util.h) draws tags from a capitalized
/// alphabet and everything else (axes, keywords, @lex words) lowercase, so
/// this quotes exactly the node tests — a different normalized text with
/// the same answer.
std::string QuoteTags(const std::string& q) {
  std::string out;
  size_t i = 0;
  while (i < q.size()) {
    if (std::isupper(static_cast<unsigned char>(q[i]))) {
      size_t j = i;
      while (j < q.size() &&
             std::isalpha(static_cast<unsigned char>(q[j]))) {
        ++j;
      }
      out += '\'';
      out.append(q, i, j - i);
      out += '\'';
      i = j;
    } else {
      out += q[i++];
    }
  }
  return out;
}

std::vector<std::string> FuzzQueries(uint64_t seed, int n) {
  Rng rng(seed);
  QueryGen gen(&rng);
  std::vector<std::string> queries;
  for (int i = 0; i < n; ++i) queries.push_back(gen.Query());
  return queries;
}

}  // namespace

TEST(PlanCacheTest, LruEvictsOldestAndCountsStats) {
  service::PlanCache cache(2);
  EXPECT_EQ(cache.Get("a"), nullptr);
  cache.Put("a", MakeBundle());
  cache.Put("b", MakeBundle());
  EXPECT_NE(cache.Get("a"), nullptr);  // "a" now most recent
  cache.Put("c", MakeBundle());        // evicts "b"
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  // Re-probes after a counted miss count nothing.
  EXPECT_EQ(cache.Get("b", /*count=*/false), nullptr);
  EXPECT_NE(cache.Get("c", /*count=*/false), nullptr);
  const service::PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.negative_hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
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

TEST(PlanCacheTest, RacingPutAdoptsThePublishedEntry) {
  service::PlanCache cache(4);
  service::CachedPlanPtr winner = cache.Put("//NP", MakeBundle());
  // Same text raced: the loser's bundle is dropped, the winner returned.
  service::CachedPlanPtr same_text = cache.Put("//NP", MakeBundle());
  EXPECT_EQ(same_text.get(), winner.get());
  // A different text gets its own entry, whatever its plan.
  service::CachedPlanPtr other_text = cache.Put("//'NP'", MakeBundle());
  EXPECT_NE(other_text.get(), winner.get());
  EXPECT_EQ(cache.stats().size, 2u);
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

TEST_F(QueryServiceTest, FlatPathPastAThousandStepsMatchesTheOracle) {
  // 1,201 variables. An outer reference carries a marker rather than a
  // number past the local variables, so variable 1000 stays local through
  // the compiler, the SQL text and its parser.
  std::string q = "//S";
  for (int i = 0; i < 1200; ++i) q += "/self::S";
  NavigationalEngine nav(snap_->corpus());
  Result<QueryResult> want = nav.Run(q);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_GT(want->count(), 0u);
  Result<QueryResult> served = MakeService()->Query(q);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(served.value(), want.value());
  for (const bool via_sql_text : {true, false}) {
    LPathEngine::Options options;
    options.via_sql_text = via_sql_text;
    Result<QueryResult> got = LPathEngine(snap_->relation(), options).Run(q);
    ASSERT_TRUE(got.ok()) << "via_sql_text " << via_sql_text << ": "
                          << got.status();
    EXPECT_EQ(got.value(), want.value()) << "via_sql_text " << via_sql_text;
  }
}

#if defined(__SANITIZE_ADDRESS__)
/// Runs `fn` on a new thread with a `stack_bytes` stack and joins it.
void RunWithStack(size_t stack_bytes, std::function<void()> fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  const auto run = [](void* f) -> void* {
    (*static_cast<std::function<void()>*>(f))();
    return nullptr;
  };
  pthread_t thread;
  ASSERT_EQ(pthread_create(&thread, &attr, run, &fn), 0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}
#endif

TEST_F(QueryServiceTest, FlatPathAtThePlanSizeLimitMatchesTheOracle) {
  // kMaxPlanVars variables pass and match the oracle; one more step does
  // not prepare.
  const auto body = [this] {
    std::string q = "//S";
    for (int i = 1; i < sql::kMaxPlanVars; ++i) q += "/self::S";
    NavigationalEngine nav(snap_->corpus());
    Result<QueryResult> want = nav.Run(q);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_GT(want->count(), 0u);
    auto service = MakeService();
    Result<QueryResult> served = service->Query(q);
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(served.value(), want.value());

    q += "/self::S";
    const Status refused = service->Query(q).status();
    EXPECT_TRUE(refused.IsInvalidArgument()) << refused;
    EXPECT_NE(refused.message().find(std::to_string(sql::kMaxPlanVars)),
              std::string::npos)
        << refused;
  };
#if defined(__SANITIZE_ADDRESS__)
  // AddressSanitizer's redzones make each executor frame about 20 times
  // its release size: about 2,000 variables exhaust an 8 MiB stack.
  RunWithStack(size_t{64} << 20, body);
#else
  body();
#endif
}

TEST_F(QueryServiceTest, HugeFlatPathsAreRefusedWithoutACrash) {
  // 100,000 steps used to exhaust the executor's stack. They are refused
  // at prepare on every path in: Query, Submit on a pool thread, and the
  // LPath engine with and without the SQL text round trip.
  service::QueryServiceOptions opts;
  opts.threads = 2;
  auto service = MakeService(opts);
  for (const std::string step : {"/self::S", "/S"}) {
    std::string q = "//S";
    for (int i = 0; i < 100000; ++i) q += step;
    SCOPED_TRACE("step " + step);
    const Status queried = service->Query(q).status();
    EXPECT_TRUE(queried.IsInvalidArgument()) << queried;
    const Status submitted = service->Submit(q).Get().status();
    EXPECT_TRUE(submitted.IsInvalidArgument()) << submitted;
    for (const bool via_sql_text : {true, false}) {
      LPathEngine::Options options;
      options.via_sql_text = via_sql_text;
      const Status run =
          LPathEngine(snap_->relation(), options).Run(q).status();
      EXPECT_TRUE(run.IsInvalidArgument())
          << "via_sql_text " << via_sql_text << ": " << run;
    }
  }
  Result<QueryResult> after = service->Query("//S");
  ASSERT_TRUE(after.ok()) << after.status();
}

TEST_F(QueryServiceTest, BatchMatchesIndividualQueries) {
  // 60 queries in flight at once: each handle resolves to the navigational
  // oracle's answer, whatever the pool interleaving.
  service::QueryServiceOptions opts;
  opts.threads = 4;
  auto service = MakeService(opts);
  NavigationalEngine nav(snap_->corpus());
  std::vector<std::string> queries = FuzzQueries(1234, 60);
  std::vector<service::PendingQuery> pending;
  for (const std::string& q : queries) pending.push_back(service->Submit(q));
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<QueryResult> got = pending[i].Get();
    Result<QueryResult> expected = nav.Run(queries[i]);
    ASSERT_TRUE(got.ok()) << queries[i] << " -> " << got.status();
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(got.value(), expected.value()) << "query: " << queries[i];
  }
  EXPECT_EQ(service->Stats().queries, queries.size());
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

TEST_F(QueryServiceTest, ConcurrentClientsSeeConsistentResults) {
  service::QueryServiceOptions opts;
  opts.threads = 4;
  opts.plan_cache_capacity = 8;   // force eviction churn under load
  opts.adaptive_serial_rows = 0;  // keep intra-query sharding in the mix
  auto service = MakeService(opts);

  // A mixed workload per client: shared hot queries (cache hits) plus
  // client-unique ones (misses + evictions), some through Submit().
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
          service::PendingQuery p0 = service->Submit(hot[0]);
          service::PendingQuery p1 = service->Submit(hot[1]);
          Result<QueryResult> r0 = p0.Get();
          Result<QueryResult> r1 = p1.Get();
          if (!(r0.ok() && r0.value() == expected[0])) failures.fetch_add(1);
          if (!(r1.ok() && r1.value() == expected[1])) failures.fetch_add(1);
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

TEST_F(QueryServiceTest, ConcurrentMissesOfOneTextPrepareOnce) {
  // Eight clients released together miss one new text per round: the
  // text's prepare stripe lets exactly one of them prepare (one
  // sql::Prepare, whether the snapshot is plain or a chain), and every
  // query counts exactly one cache hit or miss.
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  for (SnapshotPtr snap : {snap_, MustBuildChain(4711)}) {
    service::QueryServiceOptions opts;
    opts.threads = 2;
    service::QueryService service(snap, opts);
    std::barrier sync(kThreads);
    std::atomic<int> failures{0};
    const uint64_t before = sql::PrepareCallCount();
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&] {
        for (int round = 0; round < kRounds; ++round) {
          std::string q = "//NP[@lex='w";
          q += std::to_string(round);
          q += "' or //N]";
          sync.arrive_and_wait();
          if (!service.Query(q).ok()) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(sql::PrepareCallCount() - before,
              static_cast<uint64_t>(kRounds));
    const service::ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.cache.hits + stats.cache.misses,
              static_cast<uint64_t>(kThreads * kRounds));
    EXPECT_GE(stats.cache.misses, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(stats.cache.size, static_cast<size_t>(kRounds));
  }
}

// The suite names below are kept from before the plan cache became one
// level, so their test ids stay stable.

TEST(FingerprintServiceTest, SharedExistsSubtreeAnswersMatchReference) {
  // `//_[...]` and `//NP[...]` carry structurally identical EXISTS
  // subtrees under different top-level plans. Each plan evaluates its
  // subqueries itself, and both must match the reference engine; the
  // narrow plan's rows are the NP rows of the wide plan's.
  SnapshotPtr snap = MustBuild(testing::RandomCorpus(55, 26));
  auto service = std::make_unique<service::QueryService>(snap);
  LPathEngine reference(snap->relation());
  const std::string wide = "//_[//N or @lex='zzzunknown']";
  const std::string narrow = "//NP[//N or @lex='zzzunknown']";
  Result<QueryResult> wide_rows = service->Query(wide);
  Result<QueryResult> narrow_rows = service->Query(narrow);
  ASSERT_TRUE(wide_rows.ok()) << wide_rows.status();
  ASSERT_TRUE(narrow_rows.ok()) << narrow_rows.status();
  Result<QueryResult> wide_ref = reference.Run(wide);
  Result<QueryResult> narrow_ref = reference.Run(narrow);
  ASSERT_TRUE(wide_ref.ok());
  ASSERT_TRUE(narrow_ref.ok());
  EXPECT_EQ(wide_rows.value(), wide_ref.value());
  EXPECT_EQ(narrow_rows.value(), narrow_ref.value());
  ASSERT_GT(narrow_rows->count(), 0u);
  EXPECT_LT(narrow_rows->count(), wide_rows->count());
  EXPECT_TRUE(std::includes(wide_rows->hits.begin(), wide_rows->hits.end(),
                            narrow_rows->hits.begin(),
                            narrow_rows->hits.end()));
}

/// Runs `queries` through `service` twice — original spelling, then the
/// quoted respelling (a distinct text, prepared on its own) — and checks
/// both against `reference`.
void RunRespellingDifferential(service::QueryService& service,
                               LPathEngine& reference,
                               const std::vector<std::string>& queries) {
  for (const std::string& q : queries) {
    Result<QueryResult> expected = reference.Run(q);
    ASSERT_TRUE(expected.ok()) << q << " -> " << expected.status();
    Result<QueryResult> verbatim = service.Query(q);
    ASSERT_TRUE(verbatim.ok()) << q << " -> " << verbatim.status();
    ASSERT_EQ(verbatim.value(), expected.value()) << q;
    const std::string respelled = QuoteTags(q);
    Result<QueryResult> quoted = service.Query(respelled);
    ASSERT_TRUE(quoted.ok()) << respelled << " -> " << quoted.status();
    ASSERT_EQ(quoted.value(), expected.value()) << respelled;
  }
}

TEST(FingerprintDifferentialTest, BaseOnly150Queries) {
  SnapshotPtr snap = MustBuild(testing::RandomCorpus(2026, 24));
  service::QueryServiceOptions opts;
  opts.threads = 4;
  opts.adaptive_serial_rows = 0;  // exercise the sharded path too
  service::QueryService service(snap, opts);
  LPathEngine reference(snap->relation());
  RunRespellingDifferential(service, reference, FuzzQueries(808, 150));
}

TEST(FingerprintDifferentialTest, BaseDeltaChain150Queries) {
  // The chain prepares every text twice (base + delta dictionaries), and
  // the rebuilt-combined corpus is the ground truth.
  Corpus base = testing::RandomCorpus(17, 18);
  Corpus combined;
  combined.ResetInterner(base.interner().Clone());
  combined.AppendFrom(base);
  combined.AppendFrom(testing::RandomCorpus(18, 9));
  SnapshotPtr base_snap = MustBuild(std::move(base));
  Result<SnapshotPtr> chain =
      base_snap->Append(testing::RandomCorpus(18, 9));
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_TRUE((*chain)->has_delta());
  SnapshotPtr reference_snap = MustBuild(std::move(combined));

  service::QueryService service(*chain);
  LPathEngine reference(reference_snap->relation());
  RunRespellingDifferential(service, reference, FuzzQueries(909, 150));
}

}  // namespace
}  // namespace lpath
