// Plan-cache benchmark: what structural fingerprints buy the serving path
// when a hot working set arrives under many spellings (the realistic shape
// for generated queries: tools quote tags differently, reformat whitespace,
// or template the same structure into fresh text).
//
//   prepare/Cold       — seconds per *structure* for the full cold path on
//                        a fresh session: parse + compile + optimize +
//                        per-source sql::Prepare.
//   prepare/Respelled  — seconds per *spelling* when the structure is
//                        already cached under different text: parse +
//                        compile + fingerprint probe, no sql::Prepare. The
//                        gap to Cold is the amortized prepare work; the
//                        `prepares` counter proves it is exactly zero.
//   hot_exec/PerText   — QPS of a hot mixed-spelling batch issued as
//                        individual Query() calls (every member is a plan
//                        cache hit; every member still executes).
//   hot_exec/Coalesced — the same batch through QueryBatch(): members that
//                        resolve to one cached plan coalesce into a single
//                        execution fanned out to all of them. The
//                        acceptance bar is Coalesced QPS >= PerText QPS
//                        (bench_diff --ratio Coalesced PerText).
//
// Machine-readable output: set LPATHDB_BENCH_JSON=<path> to dump the table
// as the BENCH_plan_cache.json trajectory (bench_diff.py diffs it against
// bench/baselines/, warn-only). CI runs the bench_plan_cache_report ctest
// entry.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/generator.h"
#include "service/query_service.h"
#include "sql/optimizer.h"
#include "storage/snapshot.h"

namespace lpath {
namespace bench {
namespace {

/// The hot structures. Each carries quotable tags (spelling variants) and
/// a predicate that keeps an EXISTS subtree after unnesting (OR / NOT), so
/// the prepare cost covers subplans too.
constexpr const char* kStructures[] = {
    "//S//NP[//N or @lex='zzzunknown']",
    "//VP[not(//X)]//NP",
    "//S//VP[//V or //NP]",
};
constexpr int kNumStructures =
    static_cast<int>(sizeof(kStructures) / sizeof(kStructures[0]));
/// Spelling variants per structure in the hot batch (variant 0 = verbatim).
constexpr int kSpellingsPerStructure = 9;

/// Corpus scale: a fraction of the fixture default, same arrangement as
/// bench_ingest (one WSJ snapshot, built once).
int PlanCacheSentences() { return std::max(200, BenchmarkSentences() / 4); }

/// Deterministic respelling `variant` of `q`: each maximal letter run that
/// starts uppercase (exactly the node tests — axes, keywords and @lex words
/// are lowercase) is left bare, single-quoted, or double-quoted by the
/// next base-3 digit of `variant`. Variant 0 is `q` itself; distinct
/// variants normalize to distinct cache texts but compile to one plan.
std::string Respell(const std::string& q, int variant) {
  std::string out;
  size_t i = 0;
  while (i < q.size()) {
    const unsigned char c = q[i];
    if (std::isupper(c)) {
      size_t j = i;
      while (j < q.size() && std::isalpha(static_cast<unsigned char>(q[j]))) {
        ++j;
      }
      const int style = variant % 3;
      variant /= 3;
      const char quote = style == 1 ? '\'' : '"';
      if (style != 0) out += quote;
      out.append(q, i, j - i);
      if (style != 0) out += quote;
      i = j;
    } else {
      out += q[i++];
    }
  }
  return out;
}

struct PlanCacheFixture {
  SnapshotPtr snap;
  service::QueryService* service = nullptr;
  std::vector<std::string> hot_batch;  ///< kSpellingsPerStructure × structure
};

PlanCacheFixture*& FixtureSlot() {
  static PlanCacheFixture* fixture = nullptr;
  return fixture;
}

PlanCacheFixture& GetPlanCacheFixture() {
  PlanCacheFixture*& slot = FixtureSlot();
  if (slot != nullptr) return *slot;
  auto* fx = new PlanCacheFixture();
  Result<Corpus> corpus = gen::GenerateWsj(PlanCacheSentences(), 2006);
  if (!corpus.ok()) {
    std::fprintf(stderr, "cannot generate corpus: %s\n",
                 corpus.status().ToString().c_str());
    std::exit(1);
  }
  Result<SnapshotPtr> snap = CorpusSnapshot::Build(std::move(corpus).value());
  if (!snap.ok()) {
    std::fprintf(stderr, "cannot build snapshot: %s\n",
                 snap.status().ToString().c_str());
    std::exit(1);
  }
  fx->snap = std::move(snap).value();
  service::QueryServiceOptions opts;
  opts.threads = 2;
  fx->service = new service::QueryService(fx->snap, opts);
  for (const char* structure : kStructures) {
    for (int v = 0; v < kSpellingsPerStructure; ++v) {
      fx->hot_batch.push_back(Respell(structure, v));
    }
  }
  slot = fx;
  return *fx;
}

void FreeFixture() {
  PlanCacheFixture*& slot = FixtureSlot();
  if (slot == nullptr) return;
  delete slot->service;
  delete slot;
  slot = nullptr;
}

ReportTable& PlanCacheTable() {
  static ReportTable* table = new ReportTable(
      "Plan cache — fingerprint-shared preparation and batch coalescing "
      "(WSJ, mixed-spelling hot set)");
  return *table;
}

/// Full cold pipeline, one fresh session per iteration: every structure is
/// parsed, compiled, optimized and prepared per source.
void BenchPrepareCold(benchmark::State& st) {
  PlanCacheFixture& fx = GetPlanCacheFixture();
  double total = 0.0;
  uint64_t iters = 0;
  for (auto _ : st) {
    fx.service->UpdateSnapshot(fx.snap);  // fresh session, empty cache
    Timer timer;
    for (const char* structure : kStructures) {
      auto plan = fx.service->GetPlan(structure);
      if (!plan.ok()) {
        st.SkipWithError(plan.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(plan.value());
    }
    total += timer.ElapsedSeconds();
    ++iters;
  }
  st.SetItemsProcessed(static_cast<int64_t>(iters * kNumStructures));
  if (iters > 0) {
    PlanCacheTable().Record(
        "prepare", "Cold",
        Measurement{total / static_cast<double>(iters),
                    static_cast<size_t>(kNumStructures), true});
  }
}

/// Fresh spellings of already-cached structures: parse + compile +
/// fingerprint bind, zero sql::Prepare calls (counter-witnessed).
void BenchPrepareRespelled(benchmark::State& st) {
  PlanCacheFixture& fx = GetPlanCacheFixture();
  constexpr int kVariants = kSpellingsPerStructure - 1;  // skip verbatim
  double total = 0.0;
  uint64_t iters = 0;
  uint64_t prepares = 0;
  for (auto _ : st) {
    fx.service->UpdateSnapshot(fx.snap);
    for (const char* structure : kStructures) {  // warm structure, untimed
      auto plan = fx.service->GetPlan(structure);
      if (!plan.ok()) {
        st.SkipWithError(plan.status().ToString().c_str());
        return;
      }
    }
    const uint64_t before = sql::PrepareCallCount();
    Timer timer;
    for (const char* structure : kStructures) {
      for (int v = 1; v <= kVariants; ++v) {
        auto plan = fx.service->GetPlan(Respell(structure, v));
        if (!plan.ok()) {
          st.SkipWithError(plan.status().ToString().c_str());
          return;
        }
        benchmark::DoNotOptimize(plan.value());
      }
    }
    total += timer.ElapsedSeconds();
    prepares += sql::PrepareCallCount() - before;
    ++iters;
  }
  constexpr int kPerIter = kNumStructures * kVariants;
  st.SetItemsProcessed(static_cast<int64_t>(iters * kPerIter));
  st.counters["prepares"] = static_cast<double>(prepares);
  if (iters > 0) {
    PlanCacheTable().Record(
        "prepare", "Respelled",
        Measurement{total / static_cast<double>(iters),
                    static_cast<size_t>(kPerIter), true});
  }
}

/// Ensures every hot-batch member is cached (idempotent; first call does
/// the binds).
bool WarmHotBatch(benchmark::State& st) {
  PlanCacheFixture& fx = GetPlanCacheFixture();
  for (const std::string& q : fx.hot_batch) {
    auto plan = fx.service->GetPlan(q);
    if (!plan.ok()) {
      st.SkipWithError(plan.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

/// The hot batch as individual Query() calls: every member hits the cache
/// and every member executes.
void BenchHotPerText(benchmark::State& st) {
  PlanCacheFixture& fx = GetPlanCacheFixture();
  if (!WarmHotBatch(st)) return;
  double total = 0.0;
  uint64_t evaluated = 0;
  for (auto _ : st) {
    Timer timer;
    for (const std::string& q : fx.hot_batch) {
      Result<QueryResult> r = fx.service->Query(q);
      if (!r.ok()) {
        st.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    total += timer.ElapsedSeconds();
    evaluated += fx.hot_batch.size();
  }
  st.SetItemsProcessed(static_cast<int64_t>(evaluated));
  if (evaluated > 0 && total > 0.0) {
    st.counters["qps"] = static_cast<double>(evaluated) / total;
    const double per_batch = total * static_cast<double>(fx.hot_batch.size()) /
                             static_cast<double>(evaluated);
    PlanCacheTable().Record("hot_exec", "PerText",
                            Measurement{per_batch, fx.hot_batch.size(), true});
  }
}

/// The same batch through QueryBatch(): same-structure members coalesce to
/// one execution each.
void BenchHotCoalesced(benchmark::State& st) {
  PlanCacheFixture& fx = GetPlanCacheFixture();
  if (!WarmHotBatch(st)) return;
  double total = 0.0;
  uint64_t evaluated = 0;
  for (auto _ : st) {
    Timer timer;
    std::vector<Result<QueryResult>> results =
        fx.service->QueryBatch(fx.hot_batch);
    total += timer.ElapsedSeconds();
    for (const Result<QueryResult>& r : results) {
      if (!r.ok()) {
        st.SkipWithError(r.status().ToString().c_str());
        return;
      }
    }
    evaluated += fx.hot_batch.size();
  }
  st.SetItemsProcessed(static_cast<int64_t>(evaluated));
  if (evaluated > 0 && total > 0.0) {
    st.counters["qps"] = static_cast<double>(evaluated) / total;
    const double per_batch = total * static_cast<double>(fx.hot_batch.size()) /
                             static_cast<double>(evaluated);
    PlanCacheTable().Record("hot_exec", "Coalesced",
                            Measurement{per_batch, fx.hot_batch.size(), true});
  }
}

void RegisterAll() {
  struct Entry {
    const char* name;
    void (*fn)(benchmark::State&);
  };
  for (const Entry& e : {Entry{"prepare/Cold", BenchPrepareCold},
                         Entry{"prepare/Respelled", BenchPrepareRespelled},
                         Entry{"hot_exec/PerText", BenchHotPerText},
                         Entry{"hot_exec/Coalesced", BenchHotCoalesced}}) {
    benchmark::RegisterBenchmark(e.name, e.fn)
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  }
}

void PrintTables() {
  printf("%s", PlanCacheTable()
                   .Render({"Cold", "Respelled", "PerText", "Coalesced"})
                   .c_str());
  printf("\n(prepare: per pass — Cold preps %d structures, Respelled binds "
         "%d fresh spellings; hot_exec: per %zu-member mixed-spelling batch; "
         "scale: %d sentences, LPATHDB_SENTENCES "
         "overrides)\n",
         kNumStructures, kNumStructures * (kSpellingsPerStructure - 1),
         GetPlanCacheFixture().hot_batch.size(), PlanCacheSentences());
}

/// Writes the table as the BENCH_plan_cache.json trajectory point when
/// LPATHDB_BENCH_JSON names a path.
void MaybeWriteJson() {
  const char* path = std::getenv("LPATHDB_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::map<std::string, std::string> extra = RunMetadataJson();
  extra["benchmark"] = "\"plan_cache\"";
  extra["unit"] = "\"seconds per operation (see column docs)\"";
  extra["sentences"] = std::to_string(PlanCacheSentences());
  extra["structures"] = std::to_string(kNumStructures);
  extra["spellings_per_structure"] = std::to_string(kSpellingsPerStructure);
  const std::string json = PlanCacheTable().RenderJson(extra);
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
