// Async/streaming differential tests: rows a Submit() sink receives per
// morsel, once collected, must be bit-identical to the synchronous Query()
// result (and to the reference engines) over the fuzz corpus, and the
// handle of a query with a sink resolves to an empty result — the rows go
// to the sink or into the result, never both. Submit() handles without a
// sink must resolve to the full results. This suite runs under
// ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "service/query_service.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::QueryGen;

class ServiceStreamTest : public ::testing::Test {
 protected:
  ServiceStreamTest() {
    Result<SnapshotPtr> snap =
        CorpusSnapshot::Build(testing::RandomCorpus(4242, 24, 30));
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

TEST_F(ServiceStreamTest, StreamedRowsEqualSynchronousResults) {
  service::QueryServiceOptions opts;
  opts.threads = 4;
  opts.adaptive_serial_rows = 0;  // force fan-out so shards really stream
  auto service = MakeService(opts);
  Rng rng(99);
  QueryGen gen(&rng);
  for (int i = 0; i < 120; ++i) {
    const std::string q = gen.Query();
    std::vector<std::vector<Hit>> batches;
    Result<QueryResult> handle =
        service
            ->Submit(q,
                     [&batches](std::span<const Hit> rows) {
                       batches.emplace_back(rows.begin(), rows.end());
                     })
            .Get();
    ASSERT_TRUE(handle.ok()) << q << " -> " << handle.status();
    ASSERT_EQ(handle->count(), 0u) << q << ": rows kept besides the sink";

    // Delivery contract: batches internally sorted, disjoint across the
    // stream, never empty.
    std::set<Hit> seen;
    QueryResult streamed;
    for (const std::vector<Hit>& batch : batches) {
      ASSERT_FALSE(batch.empty()) << q;
      ASSERT_TRUE(std::is_sorted(batch.begin(), batch.end())) << q;
      for (const Hit& h : batch) {
        ASSERT_TRUE(seen.insert(h).second) << "duplicate row streamed: " << q;
        streamed.hits.push_back(h);
      }
    }
    streamed.Normalize();

    Result<QueryResult> sync = service->Query(q);
    Result<QueryResult> expected = serial_->Run(q);
    ASSERT_TRUE(sync.ok()) << q;
    ASSERT_TRUE(expected.ok()) << q;
    ASSERT_EQ(streamed, sync.value()) << "query: " << q;
    ASSERT_EQ(streamed, expected.value()) << "query: " << q;
  }
}

TEST_F(ServiceStreamTest, StreamingReportsErrorsWithoutRows) {
  auto service = MakeService();
  int batches = 0;
  Result<QueryResult> r =
      service->Submit("///[[", [&batches](std::span<const Hit>) { ++batches; })
          .Get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(batches, 0);
}

TEST_F(ServiceStreamTest, SubmittedQueriesResolveToSynchronousResults) {
  service::QueryServiceOptions opts;
  opts.threads = 4;
  auto service = MakeService(opts);
  Rng rng(555);
  QueryGen gen(&rng);
  std::vector<std::string> queries;
  std::vector<service::PendingQuery> pending;
  for (int i = 0; i < 50; ++i) {
    queries.push_back(gen.Query());
    pending.push_back(service->Submit(queries.back()));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<QueryResult> got = pending[i].Get();
    Result<QueryResult> expected = serial_->Run(queries[i]);
    ASSERT_TRUE(got.ok()) << queries[i] << " -> " << got.status();
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(got.value(), expected.value()) << "query: " << queries[i];
    EXPECT_TRUE(pending[i].ready());  // resolved handles stay readable
  }
}

TEST_F(ServiceStreamTest, SubmitWithSinkStreamsAndResolves) {
  // A fanned-out query over one relation, then the same over a two-source
  // chain (base + delta): the sink receives every row, the handle resolves
  // to an empty result, and the normalized sink rows equal the
  // navigational oracle over the whole corpus.
  Result<SnapshotPtr> base =
      CorpusSnapshot::Build(testing::RandomCorpus(4343, 16, 30));
  Corpus combined = testing::RandomCorpus(4343, 16, 30);  // the same trees
  const Corpus delta = testing::RandomCorpus(4344, 8, 30);
  ASSERT_TRUE(base.ok());
  Result<SnapshotPtr> chain = (*base)->Append(delta);
  ASSERT_TRUE(chain.ok());
  combined.AppendFrom(delta);
  NavigationalEngine nav_base((*base)->corpus());
  NavigationalEngine nav_chain(combined);

  service::QueryServiceOptions opts;
  opts.threads = 4;
  opts.adaptive_serial_rows = 0;
  for (const auto& [snap, nav] :
       {std::pair<SnapshotPtr, const NavigationalEngine*>{*base, &nav_base},
        {*chain, &nav_chain}}) {
    service::QueryService service(snap, opts);
    for (const std::string q : {"//NP//_", "//VP[//N]", "//S//NP"}) {
      QueryResult streamed;
      service::PendingQuery pending =
          service.Submit(q, [&streamed](std::span<const Hit> rows) {
            streamed.hits.insert(streamed.hits.end(), rows.begin(),
                                 rows.end());
          });
      Result<QueryResult> got = pending.Get();  // also fences the sink writes
      ASSERT_TRUE(got.ok()) << q << " -> " << got.status();
      EXPECT_EQ(got->count(), 0u) << q;
      streamed.Normalize();
      Result<QueryResult> expected = nav->Run(q);
      ASSERT_TRUE(expected.ok());
      ASSERT_GT(expected->count(), 0u) << q;
      EXPECT_EQ(streamed, expected.value()) << q;
    }
    const service::ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.sharded_queries, 3u);
    EXPECT_EQ(stats.exec.sources, snap->has_delta() ? 2u : 1u);
  }
}

TEST_F(ServiceStreamTest, SubmittedErrorsSurfaceThroughTheHandle) {
  auto service = MakeService();
  service::PendingQuery bad = service->Submit("///[[");
  Result<QueryResult> r = bad.Get();
  EXPECT_FALSE(r.ok());

  service::PendingQuery empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.ready());
  EXPECT_TRUE(empty.Get().status().IsInvalidArgument());
}

TEST_F(ServiceStreamTest, HandlesOutliveTheService) {
  // Queued tasks are drained by the pool destructor; a handle held past
  // service destruction must still resolve.
  service::PendingQuery pending;
  Result<QueryResult> expected = serial_->Run("//VP[//N]");
  ASSERT_TRUE(expected.ok());
  {
    auto service = MakeService();
    pending = service->Submit("//VP[//N]");
  }
  Result<QueryResult> got = pending.Get();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), expected.value());
}

TEST_F(ServiceStreamTest, ThrowingSinkEndsTheQueryWithAStatus) {
  // Serial on one thread, then fanned out on four: the throw becomes the
  // query's Status, `done` fires once with it, the handle resolves to it,
  // and the service keeps serving.
  for (const int threads : {1, 4}) {
    service::QueryServiceOptions opts;
    opts.threads = threads;
    opts.adaptive_serial_rows = 0;
    auto service = MakeService(opts);
    int batches = 0;
    int done_calls = 0;
    Status done_status;
    service::SubmitOptions submit;
    submit.done = [&](const Status& st) {
      done_status = st;
      ++done_calls;
    };
    Result<QueryResult> r =
        service
            ->Submit(
                "//NP//_",
                [&batches](std::span<const Hit>) {
                  if (batches++ == 0) throw std::runtime_error("sink failed");
                },
                submit)
            .Get();
    ASSERT_FALSE(r.ok()) << threads << " threads";
    EXPECT_TRUE(r.status().IsInternal()) << r.status();
    EXPECT_NE(r.status().message().find("sink failed"), std::string::npos)
        << r.status();
    EXPECT_EQ(done_calls, 1) << threads << " threads";
    EXPECT_EQ(done_status, r.status());
    EXPECT_GE(batches, 1);

    const service::ServiceStats stats = service->Stats();
    EXPECT_EQ(stats.sharded_queries, threads > 1 ? 1u : 0u);
    EXPECT_EQ(stats.errors, 1u);
    Result<QueryResult> after = service->Query("//NP//_");
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(after.value(), serial_->Run("//NP//_").value());
  }
}

}  // namespace
}  // namespace lpath
