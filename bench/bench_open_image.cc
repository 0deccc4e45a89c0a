// Persistent-image open cost: CorpusSnapshot::Open (mmap + checksum +
// interner rebind, O(file size)) versus CorpusSnapshot::Build (label +
// clustered sort + all secondary indexes) at several corpus scales.
//
// This is the acceptance bench for the persistent-image subsystem: open
// time must track the file size, not the corpus's labeling cost — the gap
// to Build/* is the per-start cost the image amortizes away, and it widens
// with scale (sorting is O(n log n), the checksum scan is O(n)). The
// bytes/second counter on Open rows makes the O(file size) claim directly
// readable off the report.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <utility>

#include "bench_common.h"
#include "gen/generator.h"
#include "storage/image.h"
#include "storage/snapshot.h"

namespace lpath {
namespace bench {
namespace {

/// Corpus (shared, built once per scale) and its saved image.
struct ScaleFixture {
  std::shared_ptr<const Corpus> corpus;
  std::string image_path;
  uint64_t image_bytes = 0;
};

/// The saved images live in a per-process directory, so concurrent runs
/// never share a file, and the directory is removed when the binary exits.
const std::filesystem::path& ImageDir() {
  struct Dir {
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("lpathdb_bench_open_" + std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

const ScaleFixture& GetScale(int sentences) {
  static auto* scales = new std::map<int, ScaleFixture>();
  auto it = scales->find(sentences);
  if (it != scales->end()) return it->second;

  Result<Corpus> corpus = gen::GenerateWsj(sentences);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    std::abort();
  }
  ScaleFixture fx;
  fx.corpus = std::make_shared<const Corpus>(std::move(corpus).value());
  Result<SnapshotPtr> snapshot = CorpusSnapshot::Build(fx.corpus);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    std::abort();
  }
  fx.image_path =
      (ImageDir() / ("wsj_" + std::to_string(sentences) + ".img")).string();
  Status saved = (*snapshot)->Save(fx.image_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    std::abort();
  }
  fx.image_bytes = std::filesystem::file_size(fx.image_path);
  return scales->emplace(sentences, std::move(fx)).first->second;
}

/// Label + sort + index from the in-memory corpus — what every Database
/// start used to pay.
void BM_BuildSnapshot(benchmark::State& st) {
  const ScaleFixture& fx = GetScale(static_cast<int>(st.range(0)));
  for (auto _ : st) {
    Result<SnapshotPtr> snap = CorpusSnapshot::Build(fx.corpus);
    if (!snap.ok()) {
      st.SkipWithError(snap.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize((*snap)->relation().row_count());
  }
}

/// mmap + validate + bind: the persistent-image start path.
void BM_OpenImage(benchmark::State& st) {
  const ScaleFixture& fx = GetScale(static_cast<int>(st.range(0)));
  uint64_t iters = 0;
  for (auto _ : st) {
    Result<SnapshotPtr> snap = CorpusSnapshot::Open(fx.image_path);
    if (!snap.ok()) {
      st.SkipWithError(snap.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize((*snap)->relation().row_count());
    ++iters;
  }
  st.SetBytesProcessed(static_cast<int64_t>(iters * fx.image_bytes));
  st.counters["image_bytes"] = static_cast<double>(fx.image_bytes);
}

/// Same open with only the header checksum verified (ImageVerify::
/// kHeaderOnly): skips the O(file-size) payload scan, leaving the
/// structural checks, the interner rebuild and the tag directory as the
/// open-time cost. The gap to BM_OpenImage is what the full-verify
/// default buys its safety with.
void BM_OpenImageHeaderOnly(benchmark::State& st) {
  const ScaleFixture& fx = GetScale(static_cast<int>(st.range(0)));
  ImageOpenOptions options;
  options.verify = ImageVerify::kHeaderOnly;
  uint64_t iters = 0;
  for (auto _ : st) {
    Result<SnapshotPtr> snap = CorpusSnapshot::Open(fx.image_path, options);
    if (!snap.ok()) {
      st.SkipWithError(snap.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize((*snap)->relation().row_count());
    ++iters;
  }
  st.SetBytesProcessed(static_cast<int64_t>(iters * fx.image_bytes));
  st.counters["image_bytes"] = static_cast<double>(fx.image_bytes);
}

/// Open plus one query, to show the mapped columns are immediately hot.
void BM_OpenImageAndQuery(benchmark::State& st) {
  const ScaleFixture& fx = GetScale(static_cast<int>(st.range(0)));
  for (auto _ : st) {
    Result<SnapshotPtr> snap = CorpusSnapshot::Open(fx.image_path);
    if (!snap.ok()) {
      st.SkipWithError(snap.status().ToString().c_str());
      return;
    }
    LPathEngine engine((*snap)->relation());
    Result<QueryResult> r = engine.Run("//VP[//NP]");
    if (!r.ok()) {
      st.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->count());
  }
}

}  // namespace
}  // namespace bench
}  // namespace lpath

BENCHMARK(lpath::bench::BM_BuildSnapshot)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(lpath::bench::BM_OpenImage)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(lpath::bench::BM_OpenImageHeaderOnly)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(lpath::bench::BM_OpenImageAndQuery)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
