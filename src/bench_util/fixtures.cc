#include "bench_util/fixtures.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "gen/generator.h"

namespace lpath {
namespace bench {

const char* DatasetName(Dataset d) {
  return d == Dataset::kWsj ? "WSJ" : "SWB";
}

int BenchmarkSentences() {
  static const int kSentences = [] {
    const char* env = std::getenv("LPATHDB_SENTENCES");
    int v = 0;
    if (env != nullptr &&
        std::from_chars(env, env + std::strlen(env), v).ec == std::errc() &&
        v > 0) {
      return v;
    }
    return 4000;
  }();
  return kSentences;
}

std::unique_ptr<EngineSet> BuildEngineSet(Corpus corpus) {
  auto set = std::make_unique<EngineSet>();
  auto shared = std::make_shared<const Corpus>(std::move(corpus));

  Result<SnapshotPtr> lsnap = CorpusSnapshot::Build(shared);
  if (!lsnap.ok()) {
    std::fprintf(stderr, "relation build failed: %s\n",
                 lsnap.status().ToString().c_str());
    std::abort();
  }
  set->lpath_snapshot = std::move(lsnap).value();

  RelationOptions xopts;
  xopts.scheme = LabelScheme::kXPath;
  Result<SnapshotPtr> xsnap = CorpusSnapshot::Build(shared, xopts);
  if (!xsnap.ok()) {
    std::fprintf(stderr, "xpath relation build failed: %s\n",
                 xsnap.status().ToString().c_str());
    std::abort();
  }
  set->xpath_snapshot = std::move(xsnap).value();

  set->lpath = std::make_unique<LPathEngine>(set->lpath_relation());
  set->xpath = std::make_unique<LPathEngine>(set->xpath_relation());
  set->navigational = std::make_unique<NavigationalEngine>(set->corpus());
  set->tgrep = std::make_unique<tgrep::TGrep2Engine>(set->corpus());
  set->cs = std::make_unique<cs::CorpusSearchEngine>(set->corpus());
  return set;
}

namespace {

Corpus Generate(Dataset dataset, int sentences) {
  Result<Corpus> corpus = dataset == Dataset::kWsj
                              ? gen::GenerateWsj(sentences)
                              : gen::GenerateSwb(sentences);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    std::abort();
  }
  return std::move(corpus).value();
}

}  // namespace

const EngineSet& GetFixture(Dataset dataset, int sentences) {
  static std::mutex mu;
  static std::map<std::pair<int, int>, std::unique_ptr<EngineSet>> cache;
  if (sentences <= 0) sentences = BenchmarkSentences();
  std::lock_guard<std::mutex> lock(mu);
  auto key = std::make_pair(static_cast<int>(dataset), sentences);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, BuildEngineSet(Generate(dataset, sentences)))
             .first;
  }
  return *it->second;
}

const EngineSet& GetScaledWsj(double factor) {
  static std::mutex mu;
  static std::map<int, std::unique_ptr<EngineSet>> cache;
  const int base = BenchmarkSentences();
  const int key = static_cast<int>(factor * 100);
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    // Replication, as in the paper ("we replicated the WSJ dataset between
    // 0.5 and 4 times"): generate the base corpus, then copy whole-corpus
    // prefixes/multiples.
    Corpus corpus = Generate(Dataset::kWsj, base);
    if (factor < 1.0) {
      corpus.Truncate(static_cast<size_t>(base * factor));
    } else if (factor > 1.0) {
      corpus.ReplicateTo(static_cast<int>(factor));
    }
    it = cache.emplace(key, BuildEngineSet(std::move(corpus))).first;
  }
  return *it->second;
}

}  // namespace bench
}  // namespace lpath
