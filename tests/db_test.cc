// db::Database tests: catalog management, per-corpus query routing, and —
// the part this suite runs under ThreadSanitizer for — hot-swapping a
// snapshot while concurrent clients hammer Query(). Every concurrent
// result must be consistent with either the pre-swap or the post-swap
// snapshot, and nothing may block or tear.

#include "db/database.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lpath/engines.h"
#include "test_util.h"

namespace lpath {
namespace {

SnapshotPtr MustBuild(Corpus corpus) {
  Result<SnapshotPtr> snap = CorpusSnapshot::Build(std::move(corpus));
  EXPECT_TRUE(snap.ok());
  return std::move(snap).value();
}

QueryResult MustRun(const NodeRelation& rel, const std::string& q) {
  LPathEngine engine(rel);
  Result<QueryResult> r = engine.Run(q);
  EXPECT_TRUE(r.ok()) << q;
  return std::move(r).value();
}

TEST(DatabaseTest, CatalogAttachQueryDetach) {
  db::Database database;
  ASSERT_TRUE(database.OpenCorpus("wsj", testing::RandomCorpus(1, 10)).ok());
  ASSERT_TRUE(database.OpenCorpus("swb", testing::RandomCorpus(2, 16)).ok());

  EXPECT_TRUE(database.Has("wsj"));
  EXPECT_FALSE(database.Has("brown"));
  EXPECT_EQ(database.CorpusNames(),
            (std::vector<std::string>{"swb", "wsj"}));  // sorted

  // Duplicate and invalid attaches are rejected.
  EXPECT_TRUE(
      database.OpenCorpus("wsj", testing::RandomCorpus(3, 4)).IsAlreadyExists());
  EXPECT_FALSE(database.Attach("", MustBuild(testing::RandomCorpus(4, 4))).ok());
  EXPECT_FALSE(database.Attach("x", nullptr).ok());

  // Routing: each corpus answers from its own snapshot.
  const std::string q = "//NP//_";
  Result<QueryResult> wsj = database.Query("wsj", q);
  Result<QueryResult> swb = database.Query("swb", q);
  ASSERT_TRUE(wsj.ok());
  ASSERT_TRUE(swb.ok());
  EXPECT_EQ(wsj.value(), MustRun(database.snapshot("wsj")->relation(), q));
  EXPECT_EQ(swb.value(), MustRun(database.snapshot("swb")->relation(), q));

  // Unknown names are NotFound everywhere.
  EXPECT_TRUE(database.Query("brown", q).status().IsNotFound());
  EXPECT_TRUE(database.Submit("brown", q).status().IsNotFound());
  EXPECT_TRUE(database.Swap("brown", database.snapshot("wsj")).IsNotFound());
  EXPECT_TRUE(database.Reload("brown").IsNotFound());
  EXPECT_EQ(database.snapshot("brown"), nullptr);
  EXPECT_EQ(database.service("brown"), nullptr);

  // List reports real sizes.
  std::vector<db::CorpusInfo> infos = database.List();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "swb");
  EXPECT_EQ(infos[1].name, "wsj");
  EXPECT_GT(infos[0].trees, 0u);
  EXPECT_GT(infos[1].nodes, 0u);
  EXPECT_GT(infos[1].relation_bytes, 0u);

  ASSERT_TRUE(database.Detach("swb").ok());
  EXPECT_TRUE(database.Detach("swb").IsNotFound());
  EXPECT_TRUE(database.Query("swb", q).status().IsNotFound());
  EXPECT_TRUE(database.Has("wsj"));
}

TEST(DatabaseTest, SwapPublishesADifferentCorpus) {
  db::Database database;
  SnapshotPtr a = MustBuild(testing::RandomCorpus(100, 8, 20));
  SnapshotPtr b = MustBuild(testing::RandomCorpus(200, 24, 30));
  ASSERT_TRUE(database.Attach("x", a).ok());

  const std::string q = "//NP//_";
  const QueryResult expected_a = MustRun(a->relation(), q);
  const QueryResult expected_b = MustRun(b->relation(), q);
  ASSERT_NE(expected_a, expected_b) << "corpora too similar for the test";

  Result<QueryResult> before = database.Query("x", q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value(), expected_a);

  ASSERT_TRUE(database.Swap("x", b).ok());
  EXPECT_EQ(database.snapshot("x")->id(), b->id());
  Result<QueryResult> after = database.Query("x", q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), expected_b);

  // The swapped-out snapshot is untouched and still directly queryable.
  EXPECT_EQ(MustRun(a->relation(), q), expected_a);
}

TEST(DatabaseTest, ReloadRebuildsInPlace) {
  db::Database database;
  ASSERT_TRUE(database.OpenCorpus("x", testing::RandomCorpus(300, 12)).ok());
  const uint64_t id_before = database.snapshot("x")->id();
  const std::string q = "//VP[//N]";
  Result<QueryResult> before = database.Query("x", q);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(database.Reload("x").ok());
  EXPECT_NE(database.snapshot("x")->id(), id_before);
  Result<QueryResult> after = database.Query("x", q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value());  // same corpus, same answers
}

TEST(DatabaseTest, SubmitAndStreamRouteLikeQuery) {
  db::Database database;
  ASSERT_TRUE(database.OpenCorpus("x", testing::RandomCorpus(400, 18, 26)).ok());
  const std::string q = "//NP//_";
  Result<QueryResult> sync = database.Query("x", q);
  ASSERT_TRUE(sync.ok());

  Result<service::PendingQuery> pending = database.Submit("x", q);
  ASSERT_TRUE(pending.ok());
  Result<QueryResult> async = pending->Get();
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async.value(), sync.value());

  QueryResult streamed;
  Result<service::PendingQuery> sinking =
      database.Submit("x", q, [&streamed](std::span<const Hit> rows) {
        streamed.hits.insert(streamed.hits.end(), rows.begin(), rows.end());
      });
  ASSERT_TRUE(sinking.ok());
  Result<QueryResult> drained = sinking->Get();
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->count(), 0u);  // the sink took the rows
  streamed.Normalize();
  EXPECT_EQ(streamed, sync.value());
}

// The hot-swap satellite: N clients hammer Query() while the main thread
// republishes alternating snapshots. Every result must match exactly the
// old or the new snapshot's answer (no blend, no tear, no use-after-free —
// the latter is what TSan/ASan verify when CI runs this suite).
TEST(DatabaseTest, HotSwapUnderConcurrentQueriesStaysConsistent) {
  db::Database database;
  SnapshotPtr a = MustBuild(testing::RandomCorpus(600, 10, 24));
  SnapshotPtr b = MustBuild(testing::RandomCorpus(700, 26, 30));
  ASSERT_TRUE(database.Attach("x", a).ok());

  const std::vector<std::string> queries = {"//NP//_", "//VP[//N]", "//S",
                                            "//_[@lex='dog' or @lex='saw']"};
  std::vector<QueryResult> expected_a, expected_b;
  for (const std::string& q : queries) {
    expected_a.push_back(MustRun(a->relation(), q));
    expected_b.push_back(MustRun(b->relation(), q));
  }
  // At least one query must distinguish the snapshots, or the consistency
  // check would be vacuous.
  ASSERT_NE(expected_a, expected_b);

  constexpr int kClients = 4;
  constexpr int kRounds = 40;
  constexpr int kSwaps = 60;
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds && !stop.load(); ++round) {
        const size_t qi = static_cast<size_t>(c + round) % queries.size();
        Result<QueryResult> r = database.Query("x", queries[qi]);
        const bool consistent =
            r.ok() && (r.value() == expected_a[qi] || r.value() == expected_b[qi]);
        if (!consistent) failures.fetch_add(1);
        // Exercise the streaming path under swaps too.
        QueryResult streamed;
        Result<service::PendingQuery> submitted = database.Submit(
            "x", queries[qi], [&streamed](std::span<const Hit> rows) {
              streamed.hits.insert(streamed.hits.end(), rows.begin(),
                                   rows.end());
            });
        Result<QueryResult> handle =
            submitted.ok() ? submitted->Get() : submitted.status();
        streamed.Normalize();
        if (!handle.ok() || handle->count() != 0 ||
            !(streamed == expected_a[qi] || streamed == expected_b[qi])) {
          failures.fetch_add(1);
        }
      }
    });
  }

  for (int i = 0; i < kSwaps; ++i) {
    ASSERT_TRUE(database.Swap("x", (i % 2 == 0) ? b : a).ok());
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // After the dust settles the published snapshot answers consistently.
  const SnapshotPtr final_snap = database.snapshot("x");
  const std::vector<QueryResult>& expected =
      final_snap->id() == a->id() ? expected_a : expected_b;
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<QueryResult> r = database.Query("x", queries[i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), expected[i]) << queries[i];
  }
}

}  // namespace
}  // namespace lpath
