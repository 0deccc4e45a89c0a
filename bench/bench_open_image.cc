// Persistent-image open cost: CorpusSnapshot::Open (mmap + checksum +
// interner rebind, O(file size)) versus CorpusSnapshot::Build (label +
// clustered order + all secondary indexes) at several corpus scales.
//
// This is the acceptance bench for the persistent-image subsystem: open
// time must track the file size, not the corpus's labeling cost — the gap
// to Build/* is the per-start cost the image amortizes away. Both are
// linear in the rows: Build labels each tree once and orders the rows by
// counting sorts over the dense symbol ids plus sorts inside each (tag,
// tree) slice, and Open's checksum scan reads the file once. The
// bytes/second counter on Open rows makes the O(file size) claim directly
// readable off the report.
//
// Machine-readable output: set LPATHDB_BENCH_JSON=<path> to dump the
// BuildSnapshot/N, OpenImage/N and OpenImageHeaderOnly/N rows (mean
// seconds per start; results = relation rows) as the BENCH_open_image.json
// trajectory (bench_diff.py diffs it, warn-only). CI runs it through the
// bench_open_image_report ctest entry.

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

ReportTable& OpenTable() {
  static ReportTable* table = new ReportTable(
      "Cold start — relation build vs. persistent-image open by corpus "
      "scale (WSJ)");
  return *table;
}

/// Runs `start` (a snapshot constructor) once per iteration, timing each,
/// and records the mean as row `<name>/<sentences>` of the report. Returns
/// the iteration count (0 after an error).
template <typename Start>
uint64_t TimeStarts(benchmark::State& st, const char* name, Start start) {
  double total = 0.0;
  uint64_t iters = 0;
  size_t rows = 0;
  for (auto _ : st) {
    Timer timer;
    Result<SnapshotPtr> snap = start();
    total += timer.ElapsedSeconds();
    if (!snap.ok()) {
      st.SkipWithError(snap.status().ToString().c_str());
      return 0;
    }
    // An rvalue: given the local `rows`, DoNotOptimize's read-write form
    // (benchmark 1.7.1, gcc 12, -O2) left it garbage after the loop.
    benchmark::DoNotOptimize((*snap)->relation().row_count());
    rows = (*snap)->relation().row_count();
    ++iters;
  }
  if (iters > 0) {
    std::string row = name;
    row += '/';
    row += std::to_string(st.range(0));
    OpenTable().Record(row, "Start",
                       Measurement{total / static_cast<double>(iters), rows,
                                   true});
  }
  return iters;
}

/// Label + order + index from the in-memory corpus — what every Database
/// start used to pay.
void BM_BuildSnapshot(benchmark::State& st) {
  const ScaleFixture& fx = GetScale(static_cast<int>(st.range(0)));
  TimeStarts(st, "BuildSnapshot",
             [&fx] { return CorpusSnapshot::Build(fx.corpus); });
}

/// mmap + validate + bind: the persistent-image start path.
void BM_OpenImage(benchmark::State& st) {
  const ScaleFixture& fx = GetScale(static_cast<int>(st.range(0)));
  const uint64_t iters = TimeStarts(
      st, "OpenImage", [&fx] { return CorpusSnapshot::Open(fx.image_path); });
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
  const uint64_t iters =
      TimeStarts(st, "OpenImageHeaderOnly", [&fx, &options] {
        return CorpusSnapshot::Open(fx.image_path, options);
      });
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

/// Writes the table as the BENCH_open_image.json trajectory point when
/// LPATHDB_BENCH_JSON names a path.
void MaybeWriteJson() {
  const char* path = std::getenv("LPATHDB_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::map<std::string, std::string> extra = RunMetadataJson();
  extra["benchmark"] = "\"open_image\"";
  extra["unit"] = "\"seconds per snapshot start; results = relation rows\"";
  extra["sentences"] = "[250, 1000, 4000]";
  const std::string json = OpenTable().RenderJson(extra);
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path);
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

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("%s", lpath::bench::OpenTable().Render({"Start"}).c_str());
  lpath::bench::MaybeWriteJson();
  return 0;
}
