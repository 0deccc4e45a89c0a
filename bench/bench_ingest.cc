// Live-corpus ingestion benchmark: the snapshot-chain shapes behind
// Database::Ingest, measured at three delta sizes over the WSJ profile
// corpus.
//
//   Append  — mean seconds to Append() one 32-tree batch onto a chain
//             whose delta already holds D trees. Only the 32 incoming
//             trees are labeled; they are merged onto the delta by a
//             linear copy, and the dictionary is an overlay on the base's,
//             so the cost is O(32) labeling plus an O(D) copy regardless
//             of base size; the trees_per_second counter is the append
//             throughput.
//   Query   — mean seconds per 23-query suite pass routed through
//             db::Database while the corpus carries a live delta of D
//             trees: the two-source (base + delta) execution path, merged
//             at the DISTINCT stage.
//   Compact — mean seconds to fold a delta of D trees back into one
//             base-only snapshot (the background compactor's unit of
//             work; in-memory base, so no image rewrite is timed here).
//   live    — Query only: suite QPS while one ingest thread continuously
//             appends 8-tree batches into the same corpus, the background
//             compactor folds past-threshold deltas, and a periodic Swap
//             resets the corpus to its base so the working set stays
//             bounded. Noisier than the static rows by construction.
//
// Expected shape: Append flat in base size and nearly flat in D (only the
// Merge copy grows with the delta); Query within a small factor of the
// delta-free path at small D; Compact linear in base+delta merge size;
// live QPS between the delta:16 and delta:1024 Query points.
//
// Machine-readable output: set LPATHDB_BENCH_JSON=<path> to dump the table
// as the BENCH_ingest.json trajectory (bench_diff.py diffs it, warn-only);
// --benchmark_out gives the raw dump. CI runs both through the
// bench_ingest_report ctest entry.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "db/database.h"
#include "gen/generator.h"
#include "storage/snapshot.h"

namespace lpath {
namespace bench {
namespace {

/// Delta sizes (trees) the static rows measure.
constexpr int kDeltaSizes[] = {16, 128, 1024};
/// Trees per timed Append in the Append column.
constexpr int kAppendBatch = 32;

/// Base-corpus scale: a fraction of the fixture default keeps the fixture
/// builds (one snapshot + one database per delta size) inside the smoke
/// budget (same arrangement as bench_multicorpus).
int IngestSentences() { return std::max(200, BenchmarkSentences() / 4); }

const std::vector<std::string>& SuiteQueries() {
  static const std::vector<std::string>* queries = [] {
    auto* q = new std::vector<std::string>();
    for (const BenchmarkQuery& bq : The23Queries()) q->push_back(bq.lpath);
    return q;
  }();
  return *queries;
}

/// Id-faithful copy: Database::Ingest consumes its corpus, so repeated
/// ingests of the same batch clone it — seeding the clone's interner from
/// the source keeps symbol ids (and thus relation bytes) identical.
Corpus CloneCorpus(const Corpus& src) {
  Corpus copy;
  copy.ResetInterner(src.interner().Clone());
  copy.AppendFrom(src);
  return copy;
}

Corpus MustGenerateWsj(int sentences, uint64_t seed) {
  Result<Corpus> corpus = gen::GenerateWsj(sentences, seed);
  if (!corpus.ok()) {
    std::fprintf(stderr, "cannot generate corpus: %s\n",
                 corpus.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(corpus).value();
}

/// Everything the static rows share, built once per process. Leaked-pointer
/// cache (no static destructor ordering games under LeakSanitizer);
/// main() frees it.
struct IngestFixture {
  SnapshotPtr base;                       ///< delta-free base snapshot
  std::map<int, SnapshotPtr> chains;      ///< delta size → base+delta chain
  std::map<int, Corpus> deltas;           ///< delta size → the delta trees
  Corpus append_batch;                    ///< the 32-tree Append payload
  Corpus live_batch;                      ///< 8-tree live-ingest payload
  std::map<int, db::Database*> databases; ///< delta size → db with live delta
};

IngestFixture*& FixtureSlot() {
  static IngestFixture* fixture = nullptr;
  return fixture;
}

IngestFixture& GetIngestFixture() {
  IngestFixture*& slot = FixtureSlot();
  if (slot != nullptr) return *slot;
  auto* fx = new IngestFixture();

  Corpus base_corpus = MustGenerateWsj(IngestSentences(), 2006);
  Result<SnapshotPtr> base = CorpusSnapshot::Build(std::move(base_corpus), {});
  if (!base.ok()) {
    std::fprintf(stderr, "cannot build base: %s\n",
                 base.status().ToString().c_str());
    std::exit(1);
  }
  fx->base = std::move(base).value();
  fx->append_batch = MustGenerateWsj(kAppendBatch, 4242);
  fx->live_batch = MustGenerateWsj(8, 4243);

  for (int delta : kDeltaSizes) {
    fx->deltas.emplace(delta,
                       MustGenerateWsj(delta, 7000 + static_cast<uint64_t>(
                                                        delta)));
    Result<SnapshotPtr> chain = fx->base->Append(fx->deltas.at(delta));
    if (!chain.ok()) {
      std::fprintf(stderr, "cannot append delta: %s\n",
                   chain.status().ToString().c_str());
      std::exit(1);
    }
    fx->chains.emplace(delta, std::move(chain).value());
  }
  slot = fx;
  return *fx;
}

/// Database with a live delta of `delta` trees, lazily built. Auto
/// compaction is disabled so the delta stays exactly `delta` trees for the
/// whole timed loop. `delta == 0` is the live-ingest database: delta-free
/// at start, compactor enabled.
db::Database* GetDatabase(int delta) {
  IngestFixture& fx = GetIngestFixture();
  db::Database*& slot = fx.databases[delta];
  if (slot == nullptr) {
    db::DatabaseOptions opts;
    opts.service.threads = 2;
    opts.compact_delta_trees = delta == 0 ? 64 : 0;
    auto* d = new db::Database(opts);
    Status s = d->OpenCorpus("wsj", CloneCorpus(fx.base->corpus()));
    if (s.ok() && delta > 0) {
      s = d->Ingest("wsj", CloneCorpus(fx.deltas.at(delta)));
    }
    if (!s.ok()) {
      std::fprintf(stderr, "cannot set up database: %s\n",
                   s.ToString().c_str());
      std::exit(1);
    }
    slot = d;
  }
  return slot;
}

void FreeFixture() {
  IngestFixture*& slot = FixtureSlot();
  if (slot == nullptr) return;
  for (auto& [delta, database] : slot->databases) delete database;
  delete slot;
  slot = nullptr;
}

ReportTable& IngestTable() {
  static ReportTable* table = new ReportTable(
      "Live corpora — append throughput, two-source query latency, and "
      "compaction cost vs. delta size (WSJ)");
  return *table;
}

std::string DeltaRow(int delta) {
  std::string row = "delta:";
  row += std::to_string(delta);
  return row;
}

/// Append of a 32-tree batch onto a chain carrying a D-tree delta.
void BenchAppend(benchmark::State& st, int delta) {
  IngestFixture& fx = GetIngestFixture();
  const SnapshotPtr& chain = fx.chains.at(delta);

  double total = 0.0;
  uint64_t iters = 0;
  for (auto _ : st) {
    Timer timer;
    Result<SnapshotPtr> appended = chain->Append(fx.append_batch);
    total += timer.ElapsedSeconds();
    if (!appended.ok()) {
      st.SkipWithError(appended.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*appended);
    ++iters;
  }
  st.SetItemsProcessed(static_cast<int64_t>(iters * kAppendBatch));
  if (iters > 0) {
    const double per_append = total / static_cast<double>(iters);
    st.counters["trees_per_second"] =
        per_append > 0.0 ? kAppendBatch / per_append : 0.0;
    IngestTable().Record(DeltaRow(delta), "Append",
                         Measurement{per_append, kAppendBatch, true});
  }
}

/// The 23-query suite through the routed db:: path with a D-tree delta
/// live — every query runs the two-source (base + delta) executor.
void BenchQuery(benchmark::State& st, int delta) {
  db::Database* database = GetDatabase(delta);
  const std::vector<std::string>& queries = SuiteQueries();

  double total = 0.0;
  uint64_t evaluated = 0;
  for (auto _ : st) {
    Timer timer;
    for (const std::string& q : queries) {
      Result<QueryResult> r = database->Query("wsj", q);
      if (!r.ok()) {
        st.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    total += timer.ElapsedSeconds();
    evaluated += queries.size();
  }
  st.SetItemsProcessed(static_cast<int64_t>(evaluated));
  if (evaluated > 0 && total > 0.0) {
    st.counters["qps"] = static_cast<double>(evaluated) / total;
    // Per-suite seconds with the suite size as the count (the fig11
    // convention): bench_diff's results/seconds then equals true QPS and
    // never depends on the iteration count.
    const double per_suite =
        total * static_cast<double>(queries.size()) /
        static_cast<double>(evaluated);
    IngestTable().Record(DeltaRow(delta), "Query",
                         Measurement{per_suite, queries.size(), true});
  }
}

/// Folding a D-tree delta back into a base-only snapshot (built base, so
/// the merge itself is timed, not an image rewrite).
void BenchCompact(benchmark::State& st, int delta) {
  IngestFixture& fx = GetIngestFixture();
  const SnapshotPtr& chain = fx.chains.at(delta);

  double total = 0.0;
  uint64_t iters = 0;
  for (auto _ : st) {
    Timer timer;
    Result<SnapshotPtr> compacted = chain->Compact();
    total += timer.ElapsedSeconds();
    if (!compacted.ok()) {
      st.SkipWithError(compacted.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(*compacted);
    ++iters;
  }
  st.SetItemsProcessed(static_cast<int64_t>(iters));
  if (iters > 0) {
    IngestTable().Record(
        DeltaRow(delta), "Compact",
        Measurement{total / static_cast<double>(iters),
                    static_cast<size_t>(delta), true});
  }
}

/// Routed Database::Ingest of the 32-tree batch with and without a
/// write-ahead log: the price of durability is one serialized batch
/// write plus a commit fsync per ingest (DatabaseOptions::wal_dir). The
/// corpus is swapped back to its base after every timed ingest so each
/// iteration pays O(batch), never O(accumulated delta).
void BenchDurableIngest(benchmark::State& st, bool durable) {
  namespace fs = std::filesystem;
  IngestFixture& fx = GetIngestFixture();
  db::DatabaseOptions opts;
  opts.service.threads = 2;
  opts.compact_delta_trees = 0;
  std::string wal_dir;
  if (durable) {
    wal_dir = (fs::temp_directory_path() /
               ("lpathdb_bench_ingest_wal_" + std::to_string(::getpid())))
                  .string();
    fs::remove_all(wal_dir);
    opts.wal_dir = wal_dir;
  }
  db::Database database(opts);
  Status setup = database.OpenCorpus("wsj", CloneCorpus(fx.base->corpus()));
  if (!setup.ok()) {
    st.SkipWithError(setup.ToString().c_str());
    return;
  }
  const SnapshotPtr base = database.snapshot("wsj");

  double total = 0.0;
  uint64_t iters = 0;
  for (auto _ : st) {
    Corpus batch = CloneCorpus(fx.append_batch);  // untimed
    Timer timer;
    Status s = database.Ingest("wsj", std::move(batch));
    total += timer.ElapsedSeconds();
    if (!s.ok()) {
      st.SkipWithError(s.ToString().c_str());
      if (durable) fs::remove_all(wal_dir);
      return;
    }
    (void)database.Swap("wsj", base);  // keep the next ingest O(batch)
    ++iters;
  }
  st.SetItemsProcessed(static_cast<int64_t>(iters * kAppendBatch));
  if (iters > 0) {
    const double per_ingest = total / static_cast<double>(iters);
    st.counters["trees_per_second"] =
        per_ingest > 0.0 ? kAppendBatch / per_ingest : 0.0;
    IngestTable().Record(durable ? "durable:on" : "durable:off", "Ingest",
                         Measurement{per_ingest, kAppendBatch, true});
  }
  if (durable) fs::remove_all(wal_dir);
}

/// Suite QPS while an ingest thread keeps appending into the same corpus.
/// The thread ingests 8-tree batches; past 64 delta trees the background
/// compactor folds them, and past ~192 ingested trees a Swap resets the
/// corpus to its base so the working set stays bounded across iterations.
void BenchQueryDuringIngest(benchmark::State& st) {
  db::Database* database = GetDatabase(0);
  IngestFixture& fx = GetIngestFixture();
  const std::vector<std::string>& queries = SuiteQueries();
  const SnapshotPtr base = database->snapshot("wsj");
  if (base == nullptr) {
    st.SkipWithError("no corpora attached");
    return;
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ingested{0};
  std::atomic<int> ingest_errors{0};
  std::thread ingester([&] {
    const int kBatch = static_cast<int>(fx.live_batch.size());
    int since_reset = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Status s = database->Ingest("wsj", CloneCorpus(fx.live_batch));
      if (!s.ok()) {
        ingest_errors.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      ingested.fetch_add(kBatch, std::memory_order_relaxed);
      since_reset += kBatch;
      if (since_reset >= 192) {
        (void)database->Swap("wsj", base);
        since_reset = 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  double total = 0.0;
  uint64_t evaluated = 0;
  for (auto _ : st) {
    Timer timer;
    for (const std::string& q : queries) {
      Result<QueryResult> r = database->Query("wsj", q);
      if (!r.ok()) {
        stop.store(true);
        ingester.join();
        st.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    total += timer.ElapsedSeconds();
    evaluated += queries.size();
  }
  stop.store(true);
  ingester.join();
  if (ingest_errors.load() != 0) {
    st.SkipWithError("ingest failed during query load");
    return;
  }
  // Leave the corpus delta-free so a later benchmark ordering never sees
  // leftover load-generator trees.
  (void)database->Swap("wsj", base);
  st.SetItemsProcessed(static_cast<int64_t>(evaluated));
  st.counters["ingested_trees"] = static_cast<double>(ingested.load());
  if (evaluated > 0 && total > 0.0) {
    st.counters["qps"] = static_cast<double>(evaluated) / total;
    const double per_suite =
        total * static_cast<double>(queries.size()) /
        static_cast<double>(evaluated);
    IngestTable().Record("live", "Query",
                         Measurement{per_suite, queries.size(), true});
  }
}

void RegisterAll() {
  for (int delta : kDeltaSizes) {
    struct Shape {
      const char* column;
      void (*fn)(benchmark::State&, int);
    };
    for (const Shape& shape : {Shape{"Append", BenchAppend},
                               Shape{"Query", BenchQuery},
                               Shape{"Compact", BenchCompact}}) {
      std::string name = DeltaRow(delta);
      name += "/";
      name += shape.column;
      benchmark::RegisterBenchmark(name.c_str(),
                                   [delta, fn = shape.fn](
                                       benchmark::State& st) { fn(st, delta); })
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
  for (bool durable : {false, true}) {
    const std::string name =
        std::string(durable ? "durable:on" : "durable:off") + "/Ingest";
    benchmark::RegisterBenchmark(
        name.c_str(),
        [durable](benchmark::State& st) { BenchDurableIngest(st, durable); })
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("live/Query", BenchQueryDuringIngest)
      ->UseRealTime()
      ->Unit(benchmark::kMillisecond);
}

void PrintTables() {
  printf("%s", IngestTable()
                   .Render({"Append", "Query", "Compact", "Ingest"})
                   .c_str());
  printf("\n(Append: per %d-tree batch onto the row's delta; Query: per "
         "23-query suite pass, two-source; Compact: per delta fold; live: "
         "per suite pass under continuous ingest; durable:*: routed "
         "Database::Ingest per %d-tree batch without/with a write-ahead "
         "log (fsync per commit); scale: %d base sentences, "
         "LPATHDB_SENTENCES overrides)\n",
         kAppendBatch, kAppendBatch, IngestSentences());
}

/// Writes the table as the BENCH_ingest.json trajectory point when
/// LPATHDB_BENCH_JSON names a path.
void MaybeWriteJson() {
  const char* path = std::getenv("LPATHDB_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::map<std::string, std::string> extra = RunMetadataJson();
  extra["benchmark"] = "\"ingest\"";
  extra["unit"] = "\"seconds per operation (see column docs)\"";
  extra["sentences"] = std::to_string(IngestSentences());
  extra["delta_sizes"] = "[16, 128, 1024]";
  extra["append_batch"] = std::to_string(kAppendBatch);
  const std::string json = IngestTable().RenderJson(extra);
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  fputs(json.c_str(), f);
  std::fclose(f);
  printf("wrote %s\n", path);
}

}  // namespace
}  // namespace bench
}  // namespace lpath

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  lpath::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lpath::bench::PrintTables();
  lpath::bench::MaybeWriteJson();
  lpath::bench::FreeFixture();
  return 0;
}
