// Morsel-driven execution tests, all over the skewed corpus profile (a few
// huge clause-chain trees among many tiny ones — the input that breaks
// tree-count-based work splitting):
//   - the planner's row-balanced carving must bound per-worker work where
//     the old even-by-tid split provably does not;
//   - morsel execution (sync Query and Submit with a sink) must be result-
//     identical to serial ExecutePrepared — differential over the fuzz
//     query generator;
//   - EXISTS-heavy queries (Q9 and its variants) fanned out over many
//     morsels must equal the serial run and the navigational engine, on a
//     plain snapshot and on a two-source chain, and survive concurrent
//     morsels plus snapshot hot swaps without races (this suite runs under
//     ThreadSanitizer in CI);
//   - the hash-free DISTINCT: every compiled plan ties its output to the
//     root variable's tree (the premise of the concatenating merge), and
//     queries with many bindings per output row stay sorted, duplicate-free
//     and equal to the navigational engine, serially and over >=16
//     morsels, on a plain snapshot and on a two-source chain.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/suite.h"
#include "gen/generator.h"
#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "service/query_service.h"
#include "sql/optimizer.h"
#include "storage/snapshot.h"
#include "test_util.h"

namespace lpath {
namespace {

using testing::QueryGen;

/// Row masses of an even-by-tid split into `shards` slices — the old
/// scheduler's partition, kept here as the baseline under test.
std::vector<uint64_t> EvenSplitMasses(const NodeRelation& rel, int shards) {
  std::vector<uint64_t> masses;
  const int64_t trees = rel.tree_count();
  for (int i = 0; i < shards; ++i) {
    const int32_t lo = static_cast<int32_t>(trees * i / shards);
    const int32_t hi = static_cast<int32_t>(trees * (i + 1) / shards);
    masses.push_back(rel.TreeRowsBefore(hi) - rel.TreeRowsBefore(lo));
  }
  return masses;
}

/// Deterministic model of the shared claim cursor: morsels are claimed in
/// order by whichever worker is least loaded (list scheduling) — per-worker
/// totals under dynamic claiming are bounded by this assignment's shape.
std::vector<uint64_t> ListSchedule(const std::vector<TidRange>& morsels,
                                   int workers) {
  std::vector<uint64_t> load(workers, 0);
  for (const TidRange& m : morsels) {
    *std::min_element(load.begin(), load.end()) += m.rows;
  }
  return load;
}

double MaxOverMin(const std::vector<uint64_t>& masses) {
  const auto [mn, mx] = std::minmax_element(masses.begin(), masses.end());
  return static_cast<double>(*mx) /
         static_cast<double>(std::max<uint64_t>(1, *mn));
}

TEST(MorselPlannerTest, CarveBalancesSkewWhereEvenByTidSplitDoesNot) {
  // 128 skewed sentences: a handful of clause-chain giants (~900 rows)
  // among medians of ~15 rows (seed chosen for a stable shape).
  Result<Corpus> corpus = gen::GenerateSkewed(128, /*seed=*/41);
  ASSERT_TRUE(corpus.ok());
  Result<NodeRelation> rel = NodeRelation::Build(std::move(corpus).value());
  ASSERT_TRUE(rel.ok());
  const NodeRelation& r = rel.value();
  const uint64_t total = r.TreeRowsBefore(r.tree_count());
  ASSERT_EQ(total, r.row_count());
  uint64_t max_tree = 0;
  for (int32_t t = 0; t < r.tree_count(); ++t) {
    max_tree = std::max(max_tree, r.TreeRowCount(t));
  }
  ASSERT_GT(max_tree, total / 16)  // the profile really is skewed
      << "skew profile regressed: no dominant tree";

  constexpr int kWorkers = 8;
  const std::vector<TidRange> morsels = r.CarveTidRanges(4 * kWorkers);

  // The carve is a contiguous partition of the tid space covering every row.
  ASSERT_GT(morsels.size(), 1u);
  ASSERT_LE(morsels.size(), static_cast<size_t>(4 * kWorkers));
  int32_t expect_lo = 0;
  uint64_t covered = 0;
  const uint64_t target = (total + 4 * kWorkers - 1) / (4 * kWorkers);
  for (const TidRange& m : morsels) {
    EXPECT_EQ(m.tid_lo, expect_lo);
    EXPECT_LT(m.tid_lo, m.tid_hi);
    EXPECT_EQ(m.rows, r.TreeRowsBefore(m.tid_hi) - r.TreeRowsBefore(m.tid_lo));
    // Balance invariant: a slice stops at the tree that crosses the
    // target, so it can overshoot by at most one (possibly giant) tree.
    EXPECT_LE(m.rows, target + max_tree);
    expect_lo = m.tid_hi;
    covered += m.rows;
  }
  EXPECT_EQ(expect_lo, r.tree_count());
  EXPECT_EQ(covered, total);

  // The point of the rework: per-worker row mass under the claim cursor is
  // bounded, while the old even-by-tid split concentrates the giants.
  const double even_ratio = MaxOverMin(EvenSplitMasses(r, kWorkers));
  const double morsel_ratio = MaxOverMin(ListSchedule(morsels, kWorkers));
  EXPECT_GT(even_ratio, 4.0) << "even split should be provably imbalanced";
  EXPECT_LT(morsel_ratio, 3.0);
  EXPECT_GT(even_ratio, 2.0 * morsel_ratio);
}

TEST(MorselPlannerTest, CarveRespectsMinimumMorselRows) {
  Result<Corpus> corpus = gen::GenerateSkewed(64, /*seed=*/123);
  ASSERT_TRUE(corpus.ok());
  Result<NodeRelation> rel = NodeRelation::Build(std::move(corpus).value());
  ASSERT_TRUE(rel.ok());
  const NodeRelation& r = rel.value();
  const uint64_t total = r.TreeRowsBefore(r.tree_count());

  // A minimum above the whole corpus collapses to one slice.
  EXPECT_EQ(r.CarveTidRanges(16, total + 1).size(), 1u);

  // Otherwise every slice but the last reaches the minimum.
  const std::vector<TidRange> morsels = r.CarveTidRanges(64, /*min_rows=*/100);
  ASSERT_GT(morsels.size(), 1u);
  for (size_t i = 0; i + 1 < morsels.size(); ++i) {
    EXPECT_GE(morsels[i].rows, 100u);
  }
}

TEST(MorselPlannerTest, CarveOfEmptyRelationIsEmpty) {
  Corpus corpus;  // no trees
  Result<NodeRelation> rel = NodeRelation::Build(corpus);
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel.value().CarveTidRanges(8).empty());
}

class MorselServiceTest : public ::testing::Test {
 protected:
  MorselServiceTest() {
    Result<Corpus> corpus = gen::GenerateSkewed(64, /*seed=*/123);
    EXPECT_TRUE(corpus.ok());
    Result<SnapshotPtr> snap = CorpusSnapshot::Build(std::move(corpus).value());
    EXPECT_TRUE(snap.ok());
    snap_ = std::move(snap).value();
    serial_ = std::make_unique<LPathEngine>(snap_->relation());
  }

  std::unique_ptr<service::QueryService> MakeMorselService(int threads = 4) {
    service::QueryServiceOptions opts;
    opts.threads = threads;
    opts.adaptive_serial_rows = 0;  // always fan out: the point is morsels
    return std::make_unique<service::QueryService>(snap_, opts);
  }

  SnapshotPtr snap_;
  std::unique_ptr<LPathEngine> serial_;
};

TEST_F(MorselServiceTest, MorselQueriesMatchSerialOnSkewedCorpus) {
  auto service = MakeMorselService();
  Rng rng(20260730);
  QueryGen gen(&rng);
  for (int i = 0; i < 150; ++i) {
    const std::string q = gen.Query();
    Result<QueryResult> got = service->Query(q);
    Result<QueryResult> expected = serial_->Run(q);
    ASSERT_TRUE(got.ok()) << q << " -> " << got.status();
    ASSERT_TRUE(expected.ok()) << q << " -> " << expected.status();
    ASSERT_EQ(got.value(), expected.value()) << "query: " << q;
  }
  // The workload really exercised the morsel path: fan-outs recorded more
  // than one morsel per sharded query on average.
  const service::ServiceStats stats = service->Stats();
  EXPECT_GT(stats.sharded_queries, 0u);
  EXPECT_GT(stats.exec.morsels, stats.queries);
}

TEST_F(MorselServiceTest, OneThreadServiceRunsEveryQueryAsOneMorsel) {
  // Fan-out is the pool size, so a 1-thread service is the serial
  // service: every query, synchronous or submitted, is one morsel on one
  // thread, with the same answers as the serial engine.
  auto service = MakeMorselService(/*threads=*/1);
  Rng rng(8086);
  QueryGen gen(&rng);
  for (int i = 0; i < 60; ++i) {
    const std::string q = gen.Query();
    Result<QueryResult> got =
        i % 2 == 0 ? service->Query(q) : service->Submit(q).Get();
    Result<QueryResult> expected = serial_->Run(q);
    ASSERT_TRUE(got.ok()) << q << " -> " << got.status();
    ASSERT_TRUE(expected.ok()) << q << " -> " << expected.status();
    ASSERT_EQ(got.value(), expected.value()) << "query: " << q;
  }
  const service::ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.queries, 60u);
  EXPECT_EQ(stats.exec.morsels, stats.queries);
  EXPECT_EQ(stats.sharded_queries, 0u);
  EXPECT_EQ(stats.exec.steal_count, 0u);
}

TEST_F(MorselServiceTest, StreamedMorselBatchesMatchSerialOnSkewedCorpus) {
  auto service = MakeMorselService();
  Rng rng(424242);
  QueryGen gen(&rng);
  for (int i = 0; i < 100; ++i) {
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

    // Delivery contract unchanged by morsel scheduling: batches internally
    // sorted, disjoint, never empty; union = the serial DISTINCT result.
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
    Result<QueryResult> expected = serial_->Run(q);
    ASSERT_TRUE(expected.ok()) << q;
    ASSERT_EQ(streamed, expected.value()) << "query: " << q;
  }
}

// The morsel merge concatenates per-morsel results with no DISTINCT pass.
// That is sound because a morsel clamps the root variable's tids, and the
// output variable shares the root's tid class. The LPath compiler links
// every step (predicate steps and the alignment root included) to its
// context with a tid = tid conjunct, so no LPath input can break this; the
// check below is the witness. The service still runs any plan that is not
// tied as one morsel.
TEST(MorselContractTest, OutputSharesRootTidClassOnBaseAndDelta) {
  Result<Corpus> base_corpus = gen::GenerateWsj(120, /*seed=*/5);
  Result<Corpus> delta_corpus = gen::GenerateWsj(40, /*seed=*/6);
  ASSERT_TRUE(base_corpus.ok());
  ASSERT_TRUE(delta_corpus.ok());
  Result<SnapshotPtr> base =
      CorpusSnapshot::Build(std::move(base_corpus).value());
  ASSERT_TRUE(base.ok());
  Result<SnapshotPtr> chain = (*base)->Append(delta_corpus.value());
  ASSERT_TRUE(chain.ok());

  std::vector<std::string> queries;
  for (const bench::BenchmarkQuery& bq : bench::The23Queries()) {
    queries.emplace_back(bq.lpath);
  }
  // The 150 queries of MorselQueriesMatchSerialOnSkewedCorpus.
  Rng rng(20260730);
  QueryGen gen(&rng);
  for (int i = 0; i < 150; ++i) queries.push_back(gen.Query());

  for (const NodeRelation* rel :
       {&(*chain)->relation(), (*chain)->delta_relation()}) {
    ASSERT_NE(rel, nullptr);
    for (bool unnest : {true, false}) {
      LPathEngine::Options options;
      options.unnest_predicates = unnest;
      LPathEngine engine(*rel, options);
      for (const std::string& q : queries) {
        Result<ExecPlan> plan = engine.Translate(q);
        ASSERT_TRUE(plan.ok()) << q << " -> " << plan.status();
        Result<std::unique_ptr<sql::PreparedPlan>> pp =
            sql::Prepare(plan.value(), *rel, {});
        ASSERT_TRUE(pp.ok()) << q << " -> " << pp.status();
        const sql::PreparedPlan& p = *pp.value();
        ASSERT_FALSE(p.order.empty()) << q;
        EXPECT_EQ(p.tid_class[p.order[0]], p.tid_class[p.plan.output_var])
            << q << " (unnest=" << unnest << ")";
        EXPECT_TRUE(p.OutputTiedToRoot()) << q;
      }
    }
  }
}

/// Queries whose output is not the root variable and is reached through
/// many bindings per output row (every ancestor of a node, every NP before
/// a node): the per-run DISTINCT buffer must absorb the repeats, and the
/// larger ones overflow its first in-place compaction threshold.
class ManyBindingsDistinctTest : public ::testing::Test {
 protected:
  static constexpr const char* kQueries[] = {"//_//_", "//N<--NP",
                                             "//NP-->_", "//CHAIN//_"};

  ManyBindingsDistinctTest() {
    Result<Corpus> base = gen::GenerateSkewed(96, /*seed=*/123);
    Result<Corpus> delta = gen::GenerateSkewed(32, /*seed=*/77);
    EXPECT_TRUE(base.ok());
    EXPECT_TRUE(delta.ok());
    combined_.AppendFrom(base.value());
    combined_.AppendFrom(delta.value());
    Result<SnapshotPtr> plain = CorpusSnapshot::Build(std::move(base).value());
    EXPECT_TRUE(plain.ok());
    plain_ = std::move(plain).value();
    Result<SnapshotPtr> chain = plain_->Append(delta.value());
    EXPECT_TRUE(chain.ok());
    chain_ = std::move(chain).value();
  }

  /// Runs every query through Query() and a sinking Submit() of a service over
  /// `snap` and checks both against the navigational engine over `corpus`.
  /// `min_morsels` is the fan-out each query must have had (1 = serial).
  void Check(const SnapshotPtr& snap, const Corpus& corpus,
             service::QueryServiceOptions opts, uint64_t min_morsels) {
    NavigationalEngine nav(corpus);
    service::QueryService service(snap, opts);
    for (const char* q : kQueries) {
      Result<std::shared_ptr<const sql::PreparedPlan>> pp = service.GetPlan(q);
      ASSERT_TRUE(pp.ok()) << q;
      ASSERT_NE((*pp)->order[0], (*pp)->plan.output_var)
          << q << ": output is the root variable";
      Result<QueryResult> expected = nav.Run(q);
      ASSERT_TRUE(expected.ok()) << q;
      ASSERT_GT(expected->count(), 0u) << q;

      service.ResetStats();
      Result<QueryResult> got = service.Query(q);
      ASSERT_TRUE(got.ok()) << q << " -> " << got.status();
      const service::ServiceStats stats = service.Stats();
      if (min_morsels == 1) {
        EXPECT_EQ(stats.exec.morsels, 1u) << q;
      } else {
        EXPECT_GE(stats.exec.morsels, min_morsels) << q;
      }
      // Many bindings per output row, or the test proves nothing.
      EXPECT_GT(stats.exec.bindings, 2 * got->count()) << q;
      EXPECT_TRUE(std::adjacent_find(got->hits.begin(), got->hits.end(),
                                     [](const Hit& a, const Hit& b) {
                                       return !(a < b);
                                     }) == got->hits.end())
          << q << ": Query() result not sorted or not distinct";
      EXPECT_EQ(got.value(), expected.value()) << q;

      std::vector<std::vector<Hit>> batches;
      Result<QueryResult> handle =
          service
              .Submit(q,
                      [&batches](std::span<const Hit> rows) {
                        batches.emplace_back(rows.begin(), rows.end());
                      })
              .Get();
      ASSERT_TRUE(handle.ok()) << q << " -> " << handle.status();
      ASSERT_EQ(handle->count(), 0u) << q;
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
      EXPECT_EQ(streamed, expected.value()) << q;
    }
  }

  static service::QueryServiceOptions Serial() {
    service::QueryServiceOptions opts;
    opts.threads = 4;
    opts.adaptive_serial_rows = 1u << 30;  // every query runs as one morsel
    return opts;
  }

  static service::QueryServiceOptions FannedOut() {
    service::QueryServiceOptions opts;
    opts.threads = 8;
    opts.adaptive_serial_rows = 0;  // always fan out, down to 1-tree morsels
    return opts;
  }

  Corpus combined_;
  SnapshotPtr plain_;
  SnapshotPtr chain_;
};

TEST_F(ManyBindingsDistinctTest, SerialOnPlainSnapshot) {
  Check(plain_, plain_->corpus(), Serial(), /*min_morsels=*/1);
}

TEST_F(ManyBindingsDistinctTest, SerialOnTwoSourceChain) {
  Check(chain_, combined_, Serial(), /*min_morsels=*/1);
}

TEST_F(ManyBindingsDistinctTest, MorselsOnPlainSnapshot) {
  Check(plain_, plain_->corpus(), FannedOut(), /*min_morsels=*/16);
}

TEST_F(ManyBindingsDistinctTest, MorselsOnTwoSourceChain) {
  Check(chain_, combined_, FannedOut(), /*min_morsels=*/16);
}

/// Q9 `//NP[not(//JJ)]` and three variants: the shapes whose predicates
/// stay correlated EXISTS subqueries after unnesting (negation, a
/// disjunction, a nested negation, a child-axis negation). Every
/// evaluation reruns its subquery inside the outer row's tree, in whichever
/// morsel the row falls.
class FannedOutExistsTest : public ::testing::Test {
 protected:
  static constexpr const char* kQueries[] = {
      "//NP[not(//JJ)]", "//NP[not(//JJ) or //DT]", "//S[not(//NP[not(//JJ)])]",
      "//VP[not(/NP)]"};

  FannedOutExistsTest() {
    Result<Corpus> base = gen::GenerateWsj(400, /*seed=*/16);
    Result<Corpus> delta = gen::GenerateWsj(100, /*seed=*/61);
    EXPECT_TRUE(base.ok());
    EXPECT_TRUE(delta.ok());
    combined_.AppendFrom(base.value());
    combined_.AppendFrom(delta.value());
    Result<SnapshotPtr> plain = CorpusSnapshot::Build(std::move(base).value());
    EXPECT_TRUE(plain.ok());
    plain_ = std::move(plain).value();
    Result<SnapshotPtr> chain = plain_->Append(delta.value());
    EXPECT_TRUE(chain.ok());
    chain_ = std::move(chain).value();
  }

  /// Runs every query fanned out (8 threads, no adaptive serial pick) and
  /// on a 1-thread service (one morsel each), and checks both against the
  /// navigational engine over `corpus`.
  void Check(const SnapshotPtr& snap, const Corpus& corpus) {
    NavigationalEngine nav(corpus);
    service::QueryServiceOptions fanned;
    fanned.threads = 8;
    fanned.adaptive_serial_rows = 0;
    service::QueryServiceOptions serial;
    serial.threads = 1;
    serial.adaptive_serial_rows = 0;
    service::QueryService fanned_service(snap, fanned);
    service::QueryService serial_service(snap, serial);
    for (const char* q : kQueries) {
      Result<QueryResult> expected = nav.Run(q);
      ASSERT_TRUE(expected.ok()) << q;
      ASSERT_GT(expected->count(), 0u) << q;

      fanned_service.ResetStats();
      Result<QueryResult> got = fanned_service.Query(q);
      ASSERT_TRUE(got.ok()) << q << " -> " << got.status();
      const service::ServiceStats stats = fanned_service.Stats();
      EXPECT_GE(stats.exec.morsels, 16u) << q;
      EXPECT_GT(stats.exec.subqueries, expected->count()) << q;
      EXPECT_EQ(stats.exec.memo_hits + stats.exec.shared_memo_hits +
                    stats.exec.subplan_memo_hits,
                0u)
          << q;

      serial_service.ResetStats();
      Result<QueryResult> one = serial_service.Query(q);
      ASSERT_TRUE(one.ok()) << q << " -> " << one.status();
      EXPECT_EQ(serial_service.Stats().exec.morsels, 1u) << q;
      EXPECT_EQ(got.value(), one.value()) << q;
      EXPECT_EQ(got.value(), expected.value()) << q;
    }
  }

  Corpus combined_;
  SnapshotPtr plain_;
  SnapshotPtr chain_;
};

TEST_F(FannedOutExistsTest, MatchesSerialAndNavigationalOnPlainSnapshot) {
  Check(plain_, plain_->corpus());
}

TEST_F(FannedOutExistsTest, MatchesSerialAndNavigationalOnTwoSourceChain) {
  Check(chain_, combined_);
}

TEST(MorselMemoHammerTest, ConcurrentMorselsAndHotSwapsStayConsistent) {
  // Clients hammer EXISTS-heavy queries fanned out over morsels while a
  // swapper republishes alternating snapshots; every answer must match one
  // of the two snapshots' truths. TSan runs this in CI.
  Result<Corpus> corpus_a = gen::GenerateSkewed(48, /*seed=*/7);
  Result<Corpus> corpus_b = gen::GenerateSkewed(56, /*seed=*/99);
  ASSERT_TRUE(corpus_a.ok());
  ASSERT_TRUE(corpus_b.ok());
  Result<SnapshotPtr> snap_a = CorpusSnapshot::Build(std::move(corpus_a).value());
  Result<SnapshotPtr> snap_b = CorpusSnapshot::Build(std::move(corpus_b).value());
  ASSERT_TRUE(snap_a.ok());
  ASSERT_TRUE(snap_b.ok());

  const std::vector<std::string> queries = {
      "//VP[//N or @lex='zzzunknown']",
      "//S[not(//X)]",
      "//VP[//N or //Det]",
      "//NP[not(//V[@lex='saw'])]",
  };
  LPathEngine engine_a((*snap_a)->relation());
  LPathEngine engine_b((*snap_b)->relation());
  std::vector<QueryResult> truth_a, truth_b;
  for (const std::string& q : queries) {
    Result<QueryResult> ra = engine_a.Run(q);
    Result<QueryResult> rb = engine_b.Run(q);
    ASSERT_TRUE(ra.ok()) << q;
    ASSERT_TRUE(rb.ok()) << q;
    truth_a.push_back(std::move(ra).value());
    truth_b.push_back(std::move(rb).value());
  }

  service::QueryServiceOptions opts;
  opts.threads = 4;
  opts.adaptive_serial_rows = 0;
  service::QueryService service(*snap_a, opts);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread swapper([&] {
    bool use_b = true;
    for (int i = 0; i < 40; ++i) {
      service.UpdateSnapshot(use_b ? *snap_b : *snap_a);
      use_b = !use_b;
      std::this_thread::yield();
    }
    stop.store(true);
  });

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int round = 0;
      while (!stop.load() || round < 8) {
        const size_t qi = (c + round) % queries.size();
        Result<QueryResult> r = service.Query(queries[qi]);
        if (!r.ok() ||
            !(r.value() == truth_a[qi] || r.value() == truth_b[qi])) {
          failures.fetch_add(1);
        }
        QueryResult streamed;
        Result<QueryResult> handle =
            service
                .Submit(queries[(qi + 1) % queries.size()],
                        [&streamed](std::span<const Hit> rows) {
                          streamed.hits.insert(streamed.hits.end(),
                                               rows.begin(), rows.end());
                        })
                .Get();
        streamed.Normalize();
        const size_t si = (qi + 1) % queries.size();
        if (!handle.ok() || handle->count() != 0 ||
            !(streamed == truth_a[si] || streamed == truth_b[si])) {
          failures.fetch_add(1);
        }
        ++round;
      }
    });
  }
  swapper.join();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const service::ServiceStats stats = service.Stats();
  EXPECT_GT(stats.queries, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

}  // namespace
}  // namespace lpath
