// Live-corpus ingestion tests. The contract under test is the snapshot
// chain (storage/snapshot.h): appending trees to a served corpus must be
//   - *correct*: query results over the chain (base + delta, two-source
//     execution) are identical to results over a corpus rebuilt from
//     scratch with the same trees — fuzzed over 150 generated queries,
//     across built / mapped-raw / mapped-encoded bases;
//   - *O(batch)*: an append labels only its incoming trees (never the base
//     or the existing delta), stated in NodeRelation::LabeledTreeCount();
//     its dictionary is an overlay that copies no base string; and
//     compaction's Merge labels nothing at all;
//   - *leak-free*: compaction and rebuild flatten or re-layer the overlay,
//     so a replaced base corpus is freed once its snapshots drop;
//   - *safe under concurrency*: a 4-client query/ingest/compact hammer
//     (the `concurrency` label puts it under TSan) never loses trees,
//     never tears a snapshot, and counts grow monotonically;
//   - *crash-safe*: a compaction rewrite is tmp+rename — a torn image is
//     rejected at open, never served, and readers of the pre-compaction
//     chain keep a valid mapping across the rewrite.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "lpath/engines.h"
#include "lpath/eval_nav.h"
#include "sql/optimizer.h"
#include "storage/image.h"
#include "storage/relation.h"
#include "storage/snapshot.h"
#include "test_util.h"
#include "tree/corpus.h"

namespace lpath {
namespace {

namespace fs = std::filesystem;

/// Per-test scratch directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            (std::string("lpathdb_ingest_") + info->test_suite_name() + "_" +
             info->name() + "_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }

  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

SnapshotPtr MustBuild(Corpus corpus, RelationOptions options = {}) {
  Result<SnapshotPtr> snap = CorpusSnapshot::Build(std::move(corpus), options);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  return std::move(snap).value();
}

SnapshotPtr MustOpen(const std::string& path) {
  Result<SnapshotPtr> snap = CorpusSnapshot::Open(path);
  EXPECT_TRUE(snap.ok()) << snap.status().ToString();
  return std::move(snap).value();
}

SnapshotPtr MustAppend(const SnapshotPtr& snap, const Corpus& incoming) {
  Result<SnapshotPtr> chained = snap->Append(incoming);
  EXPECT_TRUE(chained.ok()) << chained.status().ToString();
  return std::move(chained).value();
}

/// The two base flavours the chain must compose over identically.
enum class BaseKind { kBuilt, kImage };

SnapshotPtr MakeBase(BaseKind kind, Corpus corpus, const std::string& path) {
  SnapshotPtr built = MustBuild(std::move(corpus));
  if (kind == BaseKind::kBuilt) return built;
  Status s = built->Save(path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return MustOpen(path);
}

/// `base_seed`'s corpus followed by `delta_seed`'s, in one interner — the
/// rebuild-from-scratch reference the chain must match. The interner is
/// seeded with a clone of the base corpus's (the same superset-dictionary
/// construction Append uses), so symbol ids — and through them the name-run
/// order of the built relation — line up with the chain's merged relation
/// and bit-identity can be asserted, not just result equality.
Corpus CombinedCorpus(uint64_t base_seed, int base_trees, uint64_t delta_seed,
                      int delta_trees) {
  Corpus base = testing::RandomCorpus(base_seed, base_trees);
  Corpus combined;
  combined.ResetInterner(base.interner().Clone());
  combined.AppendFrom(base);
  combined.AppendFrom(testing::RandomCorpus(delta_seed, delta_trees));
  return combined;
}

/// Batch `i` of the long-chain tests: a few random trees plus one tree
/// whose tag and words no other corpus has, so every append brings
/// strings the base dictionary has never seen.
Corpus NovelBatch(int i) {
  Corpus batch = testing::RandomCorpus(900 + static_cast<uint64_t>(i),
                                       1 + i % 4);
  Interner* in = batch.mutable_interner();
  std::string tag = "Novel";
  tag += std::to_string(i);
  std::string word = "word";
  word += std::to_string(i);
  std::string noun = "noun";
  noun += std::to_string(i);
  const Symbol lex = in->Intern("@lex");
  Tree t;
  const NodeId root = t.AddRoot(in->Intern("S"));
  const NodeId np = t.AddChild(root, in->Intern("NP"));
  const NodeId novel = t.AddChild(np, in->Intern(tag));
  t.AddAttr(novel, lex, in->Intern(word));
  const NodeId n = t.AddChild(np, in->Intern("N"));
  t.AddAttr(n, lex, in->Intern(noun));
  batch.Add(std::move(t));
  return batch;
}

// ---------------------------------------------------------------------------
// Chain semantics

TEST(SnapshotChain, AppendBasics) {
  SnapshotPtr base = MustBuild(testing::RandomCorpus(11, 12));
  const Corpus incoming = testing::RandomCorpus(12, 5);
  SnapshotPtr chain = MustAppend(base, incoming);

  EXPECT_FALSE(base->has_delta());
  EXPECT_TRUE(chain->has_delta());
  EXPECT_EQ(chain->base_tree_count(), 12);
  EXPECT_EQ(chain->delta_tree_count(), 5);
  EXPECT_EQ(chain->tree_count(), 17);
  EXPECT_EQ(chain->element_count(),
            base->element_count() + chain->delta_relation()->element_count());
  // The base snapshot's corpus is shared, not copied (the relation member
  // is a by-value copy whose columns share the base's backing arena; the
  // no-relabeling guarantee is asserted by the LabeledTreeCount tests).
  EXPECT_EQ(&chain->corpus(), &base->corpus());

  // TreeAt resolves the whole chain tid space.
  for (int32_t t = 0; t < 12; ++t) {
    ASSERT_NE(chain->TreeAt(t), nullptr) << t;
    EXPECT_EQ(chain->TreeAt(t)->size(), base->corpus().tree(t).size()) << t;
  }
  for (int32_t t = 12; t < 17; ++t) {
    ASSERT_NE(chain->TreeAt(t), nullptr) << t;
    EXPECT_EQ(chain->TreeAt(t)->size(), incoming.tree(t - 12).size()) << t;
  }
  EXPECT_EQ(chain->TreeAt(17), nullptr);
  EXPECT_EQ(chain->TreeAt(-1), nullptr);

  // The chain interner is a superset of the base's: same ids for every
  // base symbol (delta columns and base columns share one id space).
  const Interner& bin = base->corpus().interner();
  const Interner& cin = chain->interner();
  ASSERT_GE(cin.end_id(), bin.end_id());
  for (Symbol s = 1; s < bin.end_id(); ++s) {
    EXPECT_EQ(cin.name(s), bin.name(s)) << s;
  }

  // Appending nothing is an error, not a silent no-op chain.
  Corpus empty;
  EXPECT_FALSE(base->Append(empty).ok());
  // Compacting a delta-less snapshot is likewise an error at this layer
  // (Database::Compact turns it into a no-op success).
  EXPECT_FALSE(base->Compact().ok());
}

TEST(SnapshotChain, CompactEqualsRebuildBitForBit) {
  SnapshotPtr base = MustBuild(testing::RandomCorpus(21, 40));
  SnapshotPtr chain = MustAppend(base, testing::RandomCorpus(22, 9));
  Result<SnapshotPtr> compacted = chain->Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_FALSE((*compacted)->has_delta());

  SnapshotPtr rebuilt = MustBuild(CombinedCorpus(21, 40, 22, 9));
  testing::ExpectSameRelation((*compacted)->relation(), rebuilt->relation());
}

TEST(SnapshotChain, RebuildPreservesTheDelta) {
  SnapshotPtr base = MustBuild(testing::RandomCorpus(31, 15));
  SnapshotPtr chain = MustAppend(base, testing::RandomCorpus(32, 4));
  Result<SnapshotPtr> rebuilt = chain->Rebuild();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE((*rebuilt)->has_delta());
  EXPECT_EQ((*rebuilt)->tree_count(), 19);
  EXPECT_EQ((*rebuilt)->delta_tree_count(), 4);
}

TEST(SnapshotChain, SaveOfChainWritesTheMergedRelation) {
  TempDir dir;
  SnapshotPtr base = MustBuild(testing::RandomCorpus(41, 20));
  SnapshotPtr chain = MustAppend(base, testing::RandomCorpus(42, 6));
  const std::string path = dir.File("chain.img");
  Status s = chain->Save(path);
  ASSERT_TRUE(s.ok()) << s.ToString();
  SnapshotPtr reopened = MustOpen(path);
  EXPECT_EQ(reopened->tree_count(), 26);
  EXPECT_FALSE(reopened->has_delta());
  SnapshotPtr rebuilt = MustBuild(CombinedCorpus(41, 20, 42, 6));
  testing::ExpectSameRelation(reopened->relation(), rebuilt->relation());
  // Merge equals Build down to the bytes, which also pins the per-run
  // permutations the accessor comparison cannot reach one by one.
  const std::string rebuilt_path = dir.File("rebuilt.img");
  s = rebuilt->Save(rebuilt_path);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(testing::ReadAll(path) == testing::ReadAll(rebuilt_path));
}

// ---------------------------------------------------------------------------
// O(batch) counters

TEST(IngestCounters, AppendLabelsOnlyTheDelta) {
  SnapshotPtr base = MustBuild(testing::RandomCorpus(51, 50));
  const uint64_t start = NodeRelation::LabeledTreeCount();

  // First append onto the 50-tree base: exactly 5 trees labeled.
  SnapshotPtr chain1 = MustAppend(base, testing::RandomCorpus(52, 5));
  EXPECT_EQ(NodeRelation::LabeledTreeCount() - start, 5u);

  // Second append labels only its own 3 trees and merges them onto the
  // delta: never the 5-tree delta, never the 50-tree base.
  SnapshotPtr chain2 = MustAppend(chain1, testing::RandomCorpus(53, 3));
  EXPECT_EQ(NodeRelation::LabeledTreeCount() - start, 5u + 3u);

  // Compaction is pure Merge: no labeling, no sorting.
  const uint64_t before_compact = NodeRelation::LabeledTreeCount();
  Result<SnapshotPtr> compacted = chain2->Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(NodeRelation::LabeledTreeCount(), before_compact);
  EXPECT_EQ((*compacted)->tree_count(), 58);
}

TEST(IngestCounters, AppendCopiesNoBaseDictionaryString) {
  SnapshotPtr base = MustBuild(testing::RandomCorpus(55, 30));
  const Interner& base_dict = base->corpus().interner();
  SnapshotPtr chain = base;
  for (int i = 0; i < 3; ++i) {
    chain = MustAppend(chain, NovelBatch(i));
    // The chain dictionary is an overlay on the base's very object: every
    // base id resolves to the base's own string storage, not a copy.
    const Interner& dict = chain->interner();
    ASSERT_NE(dict.parent(), nullptr);
    EXPECT_EQ(dict.parent().get(), &base_dict);
    for (Symbol s = 1; s < base_dict.end_id(); ++s) {
      ASSERT_EQ(dict.name(s).data(), base_dict.name(s).data()) << s;
    }
    EXPECT_GT(dict.end_id(), base_dict.end_id());
  }
}

TEST(IngestCounters, ImageBackedBaseIsNeverRelabeled) {
  TempDir dir;
  const std::string path = dir.File("base.img");
  {
    SnapshotPtr built = MustBuild(testing::RandomCorpus(61, 40));
    Status s = built->Save(path);
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  const uint64_t start = NodeRelation::LabeledTreeCount();
  SnapshotPtr mapped = MustOpen(path);
  EXPECT_EQ(NodeRelation::LabeledTreeCount(), start);  // open labels nothing

  SnapshotPtr chain = MustAppend(mapped, testing::RandomCorpus(62, 6));
  EXPECT_EQ(NodeRelation::LabeledTreeCount() - start, 6u);

  // Image compaction merges + rewrites the file, still without labeling.
  Result<SnapshotPtr> compacted = chain->Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(NodeRelation::LabeledTreeCount() - start, 6u);
  EXPECT_TRUE((*compacted)->image_backed());
  EXPECT_FALSE((*compacted)->has_delta());
  EXPECT_EQ((*compacted)->tree_count(), 46);
}

// ---------------------------------------------------------------------------
// Base lifetime: an overlay pins the base it extends, so every path that
// replaces the base must let the old one go.

TEST(IngestLifetime, CompactReleasesThePreCompactionBase) {
  TempDir dir;
  for (BaseKind kind : {BaseKind::kBuilt, BaseKind::kImage}) {
    std::weak_ptr<const Corpus> old_base;
    SnapshotPtr compacted;
    {
      SnapshotPtr base =
          MakeBase(kind, testing::RandomCorpus(131, 20),
                   dir.File("base_" + std::to_string(static_cast<int>(kind)) +
                            ".img"));
      old_base = base->corpus_ptr();
      SnapshotPtr chain = MustAppend(MustAppend(base, NovelBatch(0)),
                                     NovelBatch(1));
      Result<SnapshotPtr> merged = chain->Compact();
      ASSERT_TRUE(merged.ok()) << merged.status().ToString();
      compacted = std::move(merged).value();
      EXPECT_FALSE(old_base.expired());  // the old snapshots still pin it
    }
    EXPECT_TRUE(old_base.expired())
        << "kind " << static_cast<int>(kind)
        << ": the compacted snapshot still reaches the old base";
    EXPECT_EQ(compacted->tree_count(), 20 + 2 + 3);
    EXPECT_EQ(compacted->interner().parent(), nullptr);
    // The next append layers onto the new base.
    SnapshotPtr next = MustAppend(compacted, NovelBatch(2));
    EXPECT_EQ(next->interner().parent().get(),
              &compacted->corpus().interner());
  }
}

TEST(IngestLifetime, RebuildReLayersTheDeltaOntoTheReopenedBase) {
  TempDir dir;
  std::weak_ptr<const Corpus> old_base;
  SnapshotPtr rebuilt;
  QueryResult before;
  {
    SnapshotPtr base = MakeBase(BaseKind::kImage,
                                testing::RandomCorpus(141, 20),
                                dir.File("base.img"));
    old_base = base->corpus_ptr();
    SnapshotPtr chain = MustAppend(base, NovelBatch(4));
    service::QueryService service(chain);
    Result<QueryResult> r = service.Query("//NP");
    ASSERT_TRUE(r.ok());
    before = std::move(r).value();
    Result<SnapshotPtr> rb = chain->Rebuild();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    rebuilt = std::move(rb).value();
  }
  EXPECT_TRUE(old_base.expired());
  EXPECT_EQ(rebuilt->interner().parent().get(),
            &rebuilt->corpus().interner());
  service::QueryService service(rebuilt);
  Result<QueryResult> after = service.Query("//NP");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.hits, after->hits);
}

TEST(IngestLifetime, DatabaseCompactionFreesTheOldBase) {
  db::DatabaseOptions options;
  options.compact_delta_trees = 0;  // manual compaction only
  db::Database db(options);
  ASSERT_TRUE(db.OpenCorpus("c", testing::RandomCorpus(151, 20)).ok());
  const std::weak_ptr<const Corpus> old_base = db.snapshot("c")->corpus_ptr();
  ASSERT_TRUE(db.Ingest("c", NovelBatch(5)).ok());
  ASSERT_TRUE(db.Query("c", "//NP").ok());
  ASSERT_TRUE(db.Ingest("c", NovelBatch(6)).ok());
  ASSERT_TRUE(db.Query("c", "//NP").ok());
  EXPECT_FALSE(old_base.expired());
  ASSERT_TRUE(db.Compact("c").ok());
  EXPECT_TRUE(old_base.expired());
}

// ---------------------------------------------------------------------------
// Long append chain: bit-identity after every append, then the fuzz set
// against the navigational oracle

TEST(IngestDifferential, LongChainOfNovelBatchesMatchesFullBuild) {
  constexpr int kAppends = 24;
  constexpr int kQueries = 150;
  TempDir dir;
  SnapshotPtr base = MustBuild(testing::RandomCorpus(880, 40));
  const Interner& base_dict = base->corpus().interner();

  // The references grow batch by batch, interning in the chain's order:
  // the delta alone and the whole corpus, both over a copy of the base's
  // dictionary, so symbol ids (and with them relation bytes) line up.
  Corpus delta_ref;
  delta_ref.ResetInterner(base_dict.Clone());
  Corpus combined;
  combined.ResetInterner(base_dict.Clone());
  combined.AppendFrom(base->corpus());

  SnapshotPtr chain = base;
  for (int i = 0; i < kAppends; ++i) {
    SCOPED_TRACE("append " + std::to_string(i));
    const Corpus batch = NovelBatch(i);
    std::string word = "word";
    word += std::to_string(i);
    ASSERT_EQ(base_dict.Lookup(word), kNoSymbol);
    const Symbol end_before = chain->interner().end_id();

    const uint64_t labeled = NodeRelation::LabeledTreeCount();
    chain = MustAppend(chain, batch);
    EXPECT_EQ(NodeRelation::LabeledTreeCount() - labeled, batch.size());
    EXPECT_GT(chain->interner().end_id(), end_before);
    for (Symbol s = 1; s < base_dict.end_id(); ++s) {
      ASSERT_EQ(chain->interner().name(s), base_dict.name(s)) << s;
    }

    delta_ref.AppendFrom(batch);
    combined.AppendFrom(batch);
    Result<NodeRelation> want_delta = NodeRelation::Build(delta_ref);
    ASSERT_TRUE(want_delta.ok());
    testing::ExpectSameRelation(*chain->delta_relation(), *want_delta);
    ASSERT_FALSE(HasFatalFailure());
    Result<SnapshotPtr> compacted = chain->Compact();
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    Result<NodeRelation> want_all = NodeRelation::Build(combined);
    ASSERT_TRUE(want_all.ok());
    testing::ExpectSameRelation((*compacted)->relation(), *want_all);
    ASSERT_FALSE(HasFatalFailure());
  }
  ASSERT_EQ(chain->tree_count(), static_cast<int32_t>(combined.size()));

  Result<SnapshotPtr> compacted = chain->Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  const std::string path = dir.File("chain.img");
  ASSERT_TRUE(chain->Save(path).ok());
  SnapshotPtr reopened = MustOpen(path);

  NavigationalEngine oracle(combined);
  int checked = 0;
  for (const SnapshotPtr& snap : {chain, *compacted, reopened}) {
    ASSERT_EQ(snap->tree_count(), chain->tree_count());
    service::QueryServiceOptions options;
    options.threads = 2;
    service::QueryService service(snap, options);
    Rng rng(8808);
    testing::QueryGen gen(&rng);
    for (int q = 0; q < kQueries; ++q) {
      const std::string query = gen.Query();
      Result<QueryResult> want = oracle.Run(query);
      ASSERT_TRUE(want.ok()) << query << ": " << want.status().ToString();
      Result<QueryResult> got = service.Query(query);
      ASSERT_TRUE(got.ok()) << query << ": " << got.status().ToString();
      ASSERT_EQ(want->hits, got->hits) << query;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 3 * kQueries);
}

// ---------------------------------------------------------------------------
// Append-vs-rebuild fuzz differential

TEST(IngestDifferential, AppendVsRebuild150Queries) {
  constexpr int kQueries = 150;
  constexpr int kBaseTrees = 60;
  constexpr int kDeltaTrees = 25;
  constexpr uint64_t kBaseSeed = 2006;
  constexpr uint64_t kDeltaSeed = 4008;
  TempDir dir;

  // The rebuild-from-scratch reference: one corpus, one relation.
  SnapshotPtr rebuilt =
      MustBuild(CombinedCorpus(kBaseSeed, kBaseTrees, kDeltaSeed, kDeltaTrees));
  LPathEngine reference(rebuilt->relation());

  int checked = 0;
  for (BaseKind kind : {BaseKind::kBuilt, BaseKind::kImage}) {
    SnapshotPtr base =
        MakeBase(kind, testing::RandomCorpus(kBaseSeed, kBaseTrees),
                 dir.File("base_" + std::to_string(static_cast<int>(kind)) +
                          ".img"));
    SnapshotPtr chain =
        MustAppend(base, testing::RandomCorpus(kDeltaSeed, kDeltaTrees));
    ASSERT_EQ(chain->tree_count(), rebuilt->tree_count());

    service::QueryServiceOptions options;
    options.threads = 4;
    // Forcing fan-out exercises the two-source morsel scheduler; the
    // serial two-source path is covered by the always-empty plans the
    // generator's unknown literals produce (and by its own test below).
    options.adaptive_serial_rows = 0;
    service::QueryService service(chain, options);

    Rng rng(kBaseSeed ^ 1);
    testing::QueryGen gen(&rng);
    for (int i = 0; i < kQueries; ++i) {
      const std::string q = gen.Query();
      Result<QueryResult> want = reference.Run(q);
      Result<QueryResult> got = service.Query(q);
      ASSERT_EQ(want.ok(), got.ok())
          << q << ": " << (want.ok() ? got : want).status().ToString();
      if (!want.ok()) continue;
      ASSERT_EQ(want->hits, got->hits) << q;
      ++checked;
    }
    const service::ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.exec.sources, 2u);  // the chain really ran two-source
  }
  EXPECT_GT(checked, 0);
}

TEST(IngestDifferential, SerialTwoSourcePathMatchesRebuild) {
  SnapshotPtr base = MustBuild(testing::RandomCorpus(71, 30));
  SnapshotPtr chain = MustAppend(base, testing::RandomCorpus(72, 10));
  SnapshotPtr rebuilt = MustBuild(CombinedCorpus(71, 30, 72, 10));
  LPathEngine reference(rebuilt->relation());

  service::QueryServiceOptions options;
  options.threads = 2;
  // A huge serial threshold pins every query to the serial two-source path.
  options.adaptive_serial_rows = 1u << 30;
  service::QueryService service(chain, options);

  Rng rng(73);
  testing::QueryGen gen(&rng);
  for (int i = 0; i < 60; ++i) {
    const std::string q = gen.Query();
    Result<QueryResult> want = reference.Run(q);
    Result<QueryResult> got = service.Query(q);
    ASSERT_EQ(want.ok(), got.ok()) << q;
    if (want.ok()) {
      ASSERT_EQ(want->hits, got->hits) << q;
    }
  }
  const service::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.sharded_queries, 0u);
  EXPECT_EQ(stats.exec.sources, 2u);
}

TEST(IngestDifferential, DeltaOnlyLiteralsMatchOracle) {
  // One plan serves both sources, its literals resolved in the chain-wide
  // dictionary. Novel3 and word3 exist only in the delta, so the base holds
  // no row with their ids and must enumerate nothing for them; the
  // unknown tag and word exist nowhere. Every answer must match the
  // navigational oracle over the concatenated corpus, serial and fanned
  // out, collected and streamed.
  SnapshotPtr base = MustBuild(testing::RandomCorpus(331, 30));
  SnapshotPtr chain =
      MustAppend(MustAppend(base, NovelBatch(2)), NovelBatch(3));
  ASSERT_EQ(base->corpus().interner().Lookup("Novel3"), kNoSymbol);
  ASSERT_EQ(base->corpus().interner().Lookup("word3"), kNoSymbol);
  Corpus combined;
  combined.ResetInterner(base->corpus().interner().Clone());
  combined.AppendFrom(base->corpus());
  combined.AppendFrom(NovelBatch(2));
  combined.AppendFrom(NovelBatch(3));
  NavigationalEngine oracle(combined);
  ASSERT_EQ(oracle.Run("//Novel3")->count(), 1u);

  const std::vector<std::string> queries = {
      "//Novel3",
      "//NP[//Novel3]",
      "//_[@lex='word3']",
      "//NP[not(//Novel3)]",
      "//NP[//Novel3 or //Novel2]",
      "//Unseen",
      "//NP[not(@lex='unseenword')]"};
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    service::QueryServiceOptions options;
    options.threads = threads;
    // The corpus is small: without this every query would run serially.
    options.adaptive_serial_rows = 0;
    service::QueryService service(chain, options);
    const uint64_t prepares = sql::PrepareCallCount();
    for (const std::string& q : queries) {
      Result<QueryResult> want = oracle.Run(q);
      ASSERT_TRUE(want.ok()) << q << ": " << want.status().ToString();
      Result<QueryResult> got = service.Query(q);
      ASSERT_TRUE(got.ok()) << q << ": " << got.status().ToString();
      EXPECT_EQ(got->hits, want->hits) << q;

      QueryResult streamed;
      std::mutex mu;
      service::PendingQuery pending =
          service.Submit(q, [&](std::span<const Hit> rows) {
            std::lock_guard<std::mutex> lock(mu);
            streamed.hits.insert(streamed.hits.end(), rows.begin(),
                                 rows.end());
          });
      Result<QueryResult> drained = pending.Get();
      ASSERT_TRUE(drained.ok()) << q << ": " << drained.status().ToString();
      EXPECT_EQ(drained->count(), 0u) << q;
      streamed.Normalize();
      EXPECT_EQ(streamed.hits, want->hits) << q;
    }
    // One prepare per text, for base and delta together.
    EXPECT_EQ(sql::PrepareCallCount() - prepares, queries.size());
    EXPECT_EQ(service.Stats().exec.sources, 2u);
  }
}

// ---------------------------------------------------------------------------
// Database ingestion + stats surface

TEST(DatabaseIngest, IngestThenCompactKeepsResults) {
  db::DatabaseOptions options;
  options.compact_delta_trees = 0;  // manual compaction only
  db::Database db(options);
  ASSERT_TRUE(db.OpenCorpus("c", testing::RandomCorpus(81, 25)).ok());

  Result<QueryResult> before = db.Query("c", "//NP");
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(db.Ingest("c", testing::RandomCorpus(82, 7)).ok());
  SnapshotPtr chained = db.snapshot("c");
  EXPECT_EQ(chained->delta_tree_count(), 7);
  Result<QueryResult> during = db.Query("c", "//NP");
  ASSERT_TRUE(during.ok());
  EXPECT_GE(during->count(), before->count());

  ASSERT_TRUE(db.Compact("c").ok());
  SnapshotPtr compacted = db.snapshot("c");
  EXPECT_FALSE(compacted->has_delta());
  EXPECT_EQ(compacted->tree_count(), 32);
  Result<QueryResult> after = db.Query("c", "//NP");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(during->hits, after->hits);

  // Compacting again is a no-op success; the catalog row reflects the
  // merged chain.
  ASSERT_TRUE(db.Compact("c").ok());
  for (const db::CorpusInfo& info : db.List()) {
    EXPECT_EQ(info.trees, 32u);
    EXPECT_EQ(info.delta_trees, 0u);
  }

  const service::ServiceStats stats = db.service("c")->Stats();
  EXPECT_EQ(stats.ingests, 1u);
  EXPECT_EQ(stats.compactions, 1u);

  // Errors: empty batches and unknown corpora.
  Corpus empty;
  EXPECT_FALSE(db.Ingest("c", std::move(empty)).ok());
  EXPECT_FALSE(db.Ingest("nope", testing::RandomCorpus(83, 1)).ok());
  EXPECT_FALSE(db.Compact("nope").ok());
}

TEST(DatabaseIngest, ThresholdSchedulesBackgroundCompaction) {
  db::DatabaseOptions options;
  options.compact_delta_trees = 4;
  db::Database db(options);
  ASSERT_TRUE(db.OpenCorpus("c", testing::RandomCorpus(91, 10)).ok());

  ASSERT_TRUE(db.Ingest("c", testing::RandomCorpus(92, 2)).ok());
  ASSERT_TRUE(db.Ingest("c", testing::RandomCorpus(93, 3)).ok());
  // 5 delta trees >= 4: a background compaction was scheduled. Poll for
  // the publication (the compactor runs asynchronously).
  for (int spin = 0; spin < 2000 && db.snapshot("c")->has_delta(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SnapshotPtr snap = db.snapshot("c");
  EXPECT_FALSE(snap->has_delta());
  EXPECT_EQ(snap->tree_count(), 15);
}

// ---------------------------------------------------------------------------
// Concurrency hammer (runs under TSan via the `concurrency` label)

TEST(IngestHammer, FourClientQueryIngestCompact) {
  constexpr int kBatches = 16;
  constexpr int kTreesPerBatch = 3;
  db::DatabaseOptions options;
  options.service.threads = 2;
  options.compact_delta_trees = 5;  // background compactions fire mid-run
  db::Database db(options);
  ASSERT_TRUE(db.OpenCorpus("c", testing::RandomCorpus(101, 20)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Two query clients: every result must be well-formed and the //NP count
  // must never shrink — appends only ever add trees, and compaction only
  // reshapes storage.
  auto query_client = [&](uint64_t seed) {
    Rng rng(seed);
    testing::QueryGen gen(&rng);
    size_t last_np = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Result<QueryResult> np = db.Query("c", "//NP");
      if (!np.ok() || np->count() < last_np) {
        failures.fetch_add(1);
        break;
      }
      last_np = np->count();
      Result<QueryResult> fuzz = db.Query("c", gen.Query());
      if (!fuzz.ok()) {
        failures.fetch_add(1);
        break;
      }
    }
  };
  // One ingest client appending deterministic batches.
  auto ingest_client = [&] {
    for (int i = 0; i < kBatches; ++i) {
      Status s =
          db.Ingest("c", testing::RandomCorpus(200 + i, kTreesPerBatch));
      if (!s.ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  };
  // One compaction client racing the background compactor.
  auto compact_client = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!db.Compact("c").ok()) {
        failures.fetch_add(1);
        return;
      }
      std::this_thread::yield();
    }
  };

  std::thread q1(query_client, 111), q2(query_client, 222);
  std::thread ing(ingest_client);
  std::thread comp(compact_client);
  ing.join();
  stop.store(true);
  q1.join();
  q2.join();
  comp.join();
  EXPECT_EQ(failures.load(), 0);

  // Nothing lost: the final corpus answers exactly like a rebuild over
  // base + all batches in ingest order.
  ASSERT_TRUE(db.Compact("c").ok());
  Corpus combined;
  combined.AppendFrom(testing::RandomCorpus(101, 20));
  for (int i = 0; i < kBatches; ++i) {
    combined.AppendFrom(testing::RandomCorpus(200 + i, kTreesPerBatch));
  }
  SnapshotPtr rebuilt = MustBuild(std::move(combined));
  ASSERT_EQ(db.snapshot("c")->tree_count(), rebuilt->tree_count());
  LPathEngine reference(rebuilt->relation());
  for (const char* q : {"//NP", "//VP{/V-->NP}", "//S//N[@lex=dog]"}) {
    Result<QueryResult> want = reference.Run(q);
    Result<QueryResult> got = db.Query("c", q);
    ASSERT_TRUE(want.ok() && got.ok()) << q;
    EXPECT_EQ(want->hits, got->hits) << q;
  }
}

// ---------------------------------------------------------------------------
// Compaction crash safety

TEST(CompactionCrashSafety, TornImageRejectedAndOldMappingSurvives) {
  TempDir dir;
  const std::string path = dir.File("live.img");
  {
    SnapshotPtr built = MustBuild(testing::RandomCorpus(121, 30));
    ASSERT_TRUE(built->Save(path).ok());
  }
  SnapshotPtr mapped = MustOpen(path);
  SnapshotPtr chain = MustAppend(mapped, testing::RandomCorpus(122, 5));
  LPathEngine pre_compact_base(mapped->relation());
  const QueryResult before = [&] {
    Result<QueryResult> r = pre_compact_base.Run("//NP");
    EXPECT_TRUE(r.ok());
    return r.ok() ? std::move(r).value() : QueryResult{};
  }();

  // A leftover tmp file from a crashed rewrite must not confuse an open.
  std::ofstream(path + ".tmp") << "garbage from a crashed compaction";

  // Compact rewrites `path` via tmp + rename.
  Result<SnapshotPtr> compacted = chain->Compact();
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ((*compacted)->tree_count(), 35);

  // The pre-compaction mapping survives the rename (the old inode lives
  // until the last mapping drops): the old base still answers, unchanged.
  Result<QueryResult> after = pre_compact_base.Run("//NP");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before.hits, after->hits);

  // Reopening the path serves the merged relation.
  SnapshotPtr reopened = MustOpen(path);
  EXPECT_EQ(reopened->tree_count(), 35);

  // A torn write *without* the rename — the crash the tmp file simulates —
  // is rejected at open with a clean Status, never served.
  const std::vector<char> bytes = testing::ReadAll(path);
  ASSERT_GT(bytes.size(), 64u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(CorpusSnapshot::Open(path).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  SnapshotPtr restored = MustOpen(path);
  EXPECT_EQ(restored->tree_count(), 35);
}

}  // namespace
}  // namespace lpath
