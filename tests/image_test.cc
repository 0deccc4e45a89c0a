// Persistent relation image tests: the Save→Open round trip must be
// *exact* (byte-identical columns, identical query results over the fuzz
// corpus), opening must perform no labeling/sorting (the load-path counter
// stays flat), corrupted/truncated/wrong-version images must fail with a
// clean Status (no crash — ASan runs this suite), and hot-swapping mapped
// snapshots under concurrent clients must be race-free (the `concurrency`
// label puts the hammer under TSan, covering the mapping's lifetime).

#include "storage/image.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "db/database.h"
#include "lpath/engines.h"
#include "storage/snapshot.h"
#include "test_util.h"

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
            (std::string("lpathdb_image_") + info->test_suite_name() + "_" +
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

QueryResult MustRun(const NodeRelation& rel, const std::string& q) {
  LPathEngine engine(rel);
  Result<QueryResult> r = engine.Run(q);
  EXPECT_TRUE(r.ok()) << q << ": " << r.status().ToString();
  return r.ok() ? std::move(r).value() : QueryResult{};
}

TEST(ImageTest, RoundTripPreservesEveryColumnAndIndex) {
  TempDir dir;
  SnapshotPtr built = MustBuild(testing::RandomCorpus(42, 60, 40));
  const std::string path = dir.File("roundtrip.img");
  ASSERT_TRUE(built->Save(path).ok());

  SnapshotPtr mapped = MustOpen(path);
  EXPECT_TRUE(mapped->image_backed());
  EXPECT_EQ(mapped->image_path(), path);
  EXPECT_TRUE(mapped->relation().mapped());
  EXPECT_FALSE(built->relation().mapped());
  EXPECT_EQ(mapped->corpus().size(), 0u);  // dictionary only, no trees
  testing::ExpectSameRelation(built->relation(), mapped->relation());
}

TEST(ImageTest, RoundTripAnswersFuzzQueriesIdentically) {
  TempDir dir;
  SnapshotPtr built = MustBuild(testing::RandomCorpus(7, 40, 36));
  const std::string path = dir.File("fuzz.img");
  ASSERT_TRUE(built->Save(path).ok());
  SnapshotPtr mapped = MustOpen(path);

  Rng rng(2024);
  testing::QueryGen gen(&rng);
  int non_empty = 0;
  for (int i = 0; i < 150; ++i) {
    const std::string q = gen.Query();
    LPathEngine a(built->relation());
    LPathEngine b(mapped->relation());
    Result<QueryResult> ra = a.Run(q);
    Result<QueryResult> rb = b.Run(q);
    ASSERT_EQ(ra.ok(), rb.ok()) << q;
    if (!ra.ok()) continue;
    ASSERT_EQ(ra.value(), rb.value()) << q;
    if (ra.value().count() > 0) ++non_empty;
  }
  EXPECT_GT(non_empty, 20);  // the differential must not be vacuous
}

TEST(ImageTest, XPathSchemeSurvivesTheRoundTrip) {
  TempDir dir;
  RelationOptions options;
  options.scheme = LabelScheme::kXPath;
  SnapshotPtr built = MustBuild(testing::RandomCorpus(11, 12, 24), options);
  const std::string path = dir.File("xpath.img");
  ASSERT_TRUE(built->Save(path).ok());
  SnapshotPtr mapped = MustOpen(path);
  EXPECT_EQ(mapped->relation().scheme(), LabelScheme::kXPath);
  testing::ExpectSameRelation(built->relation(), mapped->relation());
}

TEST(ImageTest, OpenPerformsNoLabelingOrSorting) {
  TempDir dir;
  SnapshotPtr built = MustBuild(testing::RandomCorpus(3, 30, 30));
  const std::string path = dir.File("counter.img");
  ASSERT_TRUE(built->Save(path).ok());

  const uint64_t builds_before = NodeRelation::BuildCount();
  SnapshotPtr mapped = MustOpen(path);
  (void)MustRun(mapped->relation(), "//NP//_");
  EXPECT_EQ(NodeRelation::BuildCount(), builds_before)
      << "CorpusSnapshot::Open must not label or sort";

  // The same corpus built in memory does bump the counter (the counter is
  // live, so the zero-delta above is meaningful).
  SnapshotPtr rebuilt = MustBuild(testing::RandomCorpus(3, 30, 30));
  EXPECT_GT(NodeRelation::BuildCount(), builds_before);
}

TEST(ImageTest, ReloadOfImageBackedSnapshotReopensTheImage) {
  TempDir dir;
  SnapshotPtr built = MustBuild(testing::RandomCorpus(5, 20, 30));
  const std::string path = dir.File("reload.img");
  ASSERT_TRUE(built->Save(path).ok());

  db::Database database;
  ASSERT_TRUE(database.OpenImage("img", path).ok());
  const QueryResult before = MustRun(database.snapshot("img")->relation(),
                                     "//VP");
  const uint64_t builds_before = NodeRelation::BuildCount();
  ASSERT_TRUE(database.Reload("img").ok());
  EXPECT_EQ(NodeRelation::BuildCount(), builds_before);
  EXPECT_TRUE(database.snapshot("img")->image_backed());
  Result<QueryResult> after = database.Query("img", "//VP");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before);
}

TEST(ImageTest, DatabaseOpenSniffsImagesAndSaveWritesThem) {
  TempDir dir;
  SnapshotPtr built = MustBuild(testing::RandomCorpus(9, 25, 30));
  db::Database database;
  ASSERT_TRUE(database.Attach("src", built).ok());

  const std::string path = dir.File("sniff.img");
  ASSERT_TRUE(database.Save("src", path).ok());
  EXPECT_TRUE(database.Save("missing", path).IsNotFound());
  EXPECT_TRUE(LooksLikeImageFile(path));

  // The generic Open routes by magic, not by extension.
  ASSERT_TRUE(database.Open("via_open", path).ok());
  Result<QueryResult> a = database.Query("src", "//NP[@lex='dog']");
  Result<QueryResult> b = database.Query("via_open", "//NP[@lex='dog']");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());

  // A bracketed file still goes down the treebank path.
  EXPECT_FALSE(LooksLikeImageFile(dir.File("absent.img")));
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ImageTest, HeaderOnlyVerifyOpensValidImages) {
  TempDir dir;
  SnapshotPtr built = MustBuild(testing::RandomCorpus(50, 40, 36));
  const std::string path = dir.File("lazy.img");
  ASSERT_TRUE(built->Save(path).ok());

  ImageOpenOptions lazy;
  lazy.verify = ImageVerify::kHeaderOnly;
  Result<SnapshotPtr> mapped = CorpusSnapshot::Open(path, lazy);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  testing::ExpectSameRelation(built->relation(), (*mapped)->relation());
}

TEST(ImageTest, HeaderOnlyVerifyStillRejectsStructuralDamage) {
  TempDir dir;
  SnapshotPtr built = MustBuild(testing::RandomCorpus(51, 30, 30));
  const std::string path = dir.File("lazy_victim.img");
  ASSERT_TRUE(built->Save(path).ok());
  std::vector<char> bytes = testing::ReadAll(path);

  ImageOpenOptions lazy;
  lazy.verify = ImageVerify::kHeaderOnly;
  // Truncation breaks section bounds regardless of the skipped
  // payload-checksum scan.
  const std::string cut_path = dir.File("lazy_cut.img");
  WriteAll(cut_path, std::vector<char>(bytes.begin(),
                                       bytes.begin() +
                                           static_cast<long>(bytes.size() / 2)));
  EXPECT_FALSE(CorpusSnapshot::Open(cut_path, lazy).ok());
  // A header bit flip still fails: only the payload scan is skipped.
  std::vector<char> header_flip = bytes;
  header_flip[17] = static_cast<char>(header_flip[17] ^ 0x5a);
  const std::string flip_path = dir.File("lazy_flip.img");
  WriteAll(flip_path, header_flip);
  EXPECT_FALSE(CorpusSnapshot::Open(flip_path, lazy).ok());
}

TEST(ImageTest, EmptyCorpusRoundTrips) {
  TempDir dir;
  SnapshotPtr built = MustBuild(Corpus());
  const std::string path = dir.File("empty.img");
  ASSERT_TRUE(built->Save(path).ok());
  SnapshotPtr mapped = MustOpen(path);
  EXPECT_EQ(mapped->relation().row_count(), 0u);
  EXPECT_EQ(mapped->relation().tree_count(), 0);
  EXPECT_EQ(MustRun(mapped->relation(), "//NP").count(), 0u);
}

/// Appends the raw bytes of `v`, as Save lays out an array element.
template <typename T>
void PutRaw(std::vector<char>* out, T v) {
  const char* p = reinterpret_cast<const char*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

TEST(ImageTest, SectionTableIsPinnedToFormatV3) {
  // Save and Open derive the section order from one list, so a reordered
  // list would still round-trip while breaking every image saved before
  // it. This test writes the v3 table out by hand: each entry's (kind,
  // element size), and each section's bytes rebuilt from the public
  // accessors, which also tells apart sections of equal width.
  TempDir dir;
  SnapshotPtr built = MustBuild(testing::RandomCorpus(61, 25, 30));
  const NodeRelation& rel = built->relation();
  const std::string path = dir.File("pinned.img");
  ASSERT_TRUE(built->Save(path).ok());
  const std::vector<char> bytes = testing::ReadAll(path);

  constexpr uint32_t kV3[21][2] = {
      {1, 4},  {2, 4},  {3, 4},  {4, 4},  {5, 4},  {6, 4},  {7, 4},
      {8, 4},  {9, 1},  {10, 8}, {11, 4}, {12, 4}, {13, 4}, {14, 4},
      {15, 8}, {16, 4}, {17, 4}, {18, 4}, {19, 4}, {20, 8}, {21, 1}};
  std::vector<char> want[21];
  for (Row r = 0; r < rel.row_count(); ++r) {
    PutRaw(&want[0], rel.tid(r));
    PutRaw(&want[1], rel.left(r));
    PutRaw(&want[2], rel.right(r));
    PutRaw(&want[3], rel.depth(r));
    PutRaw(&want[4], rel.id(r));
    PutRaw(&want[5], rel.pid(r));
    PutRaw(&want[6], rel.name(r));
    PutRaw(&want[7], rel.value(r));
    PutRaw(&want[8], static_cast<uint8_t>(rel.kind(r)));
  }
  const Symbol end_id = rel.interner().end_id();
  uint32_t values = 0;
  PutRaw(&want[13], values);
  for (Symbol s = 0; s < end_id; ++s) {
    PutRaw(&want[9], rel.run(s));
    for (int32_t t = 0; t < rel.tree_count(); ++t) {
      const RowRange slice = rel.RunForTree(s, t);
      if (slice.empty()) continue;
      for (Row r : rel.RightRangeIn(slice, INT32_MIN, INT32_MAX)) {
        PutRaw(&want[10], r);
      }
      std::vector<int32_t> pids;
      for (Row r = slice.begin; r < slice.end; ++r) pids.push_back(rel.pid(r));
      std::sort(pids.begin(), pids.end());
      pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
      for (int32_t p : pids) {
        for (Row r : rel.PidRangeIn(slice, p)) PutRaw(&want[11], r);
      }
    }
    for (Row r : rel.ValueRange(s)) PutRaw(&want[12], r);
    values += static_cast<uint32_t>(rel.ValueRange(s).size());
    PutRaw(&want[13], values);
  }
  uint32_t elements = 0;
  uint32_t attrs = 0;
  PutRaw(&want[17], attrs);
  for (int32_t t = 0; t < rel.tree_count(); ++t) {
    PutRaw(&want[14], rel.TreeRowsBefore(t));
    PutRaw(&want[15], elements);
    const auto tree = rel.ElementsOfTree(t);
    elements += static_cast<uint32_t>(tree.size());
    for (size_t i = 0; i < tree.size(); ++i) {
      PutRaw(&want[16], tree[i]);
      for (Row r : rel.AttrRows(t, static_cast<int32_t>(i) + 1)) {
        PutRaw(&want[18], r);
        ++attrs;
      }
      PutRaw(&want[17], attrs);
    }
  }
  PutRaw(&want[14], rel.TreeRowsBefore(rel.tree_count()));
  PutRaw(&want[15], elements);
  uint64_t blob_size = 0;
  PutRaw(&want[19], blob_size);
  for (Symbol s = 1; s < end_id; ++s) {
    const std::string_view name = rel.interner().name(s);
    want[20].insert(want[20].end(), name.begin(), name.end());
    blob_size += name.size();
    PutRaw(&want[19], blob_size);
  }

  // The v3 header is 88 bytes, its section count at byte 20; the table
  // follows, 24 bytes an entry: kind, element size, offset, count.
  uint32_t section_count = 0;
  std::memcpy(&section_count, bytes.data() + 20, sizeof(section_count));
  ASSERT_EQ(section_count, 21u);
  for (size_t i = 0; i < 21; ++i) {
    const char* entry = bytes.data() + 88 + 24 * i;
    uint32_t kind = 0;
    uint32_t elem_size = 0;
    uint64_t offset = 0;
    uint64_t count = 0;
    std::memcpy(&kind, entry, 4);
    std::memcpy(&elem_size, entry + 4, 4);
    std::memcpy(&offset, entry + 8, 8);
    std::memcpy(&count, entry + 16, 8);
    EXPECT_EQ(kind, kV3[i][0]) << "section " << i;
    EXPECT_EQ(elem_size, kV3[i][1]) << "section " << i;
    ASSERT_LE(offset + count * elem_size, bytes.size()) << "section " << i;
    EXPECT_TRUE(std::equal(want[i].begin(), want[i].end(),
                           bytes.begin() + static_cast<long>(offset),
                           bytes.begin() +
                               static_cast<long>(offset + count * elem_size)))
        << "section " << i;
  }
}

// --- Corruption resistance --------------------------------------------------

class ImageCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    snapshot_ = MustBuild(testing::RandomCorpus(21, 30, 30));
    path_ = dir_.File("victim.img");
    ASSERT_TRUE(snapshot_->Save(path_).ok());
    bytes_ = testing::ReadAll(path_);
    ASSERT_GT(bytes_.size(), 128u);
  }

  /// Expects Open to fail with a non-crashing error Status.
  void ExpectOpenFails(const std::string& path) {
    Result<SnapshotPtr> r = CorpusSnapshot::Open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption() || r.status().IsNotSupported() ||
                r.status().IsIOError())
        << r.status().ToString();
  }

  TempDir dir_;
  SnapshotPtr snapshot_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(ImageCorruptionTest, TruncationAtEveryRegionFailsCleanly) {
  const std::string path = dir_.File("truncated.img");
  // Mid-header, mid-section-table, mid-payload, one byte short.
  for (const size_t keep :
       {size_t{0}, size_t{5}, size_t{40}, size_t{200}, bytes_.size() / 2,
        bytes_.size() - 1}) {
    WriteAll(path, std::vector<char>(bytes_.begin(),
                                     bytes_.begin() + static_cast<long>(keep)));
    ExpectOpenFails(path);
  }
}

TEST_F(ImageCorruptionTest, BitFlipsAnywhereFailCleanly) {
  const std::string path = dir_.File("flipped.img");
  // Flip a byte in each region: header fields, section table, early
  // payload, middle payload (columns), and the final interner bytes.
  for (const size_t at :
       {size_t{9}, size_t{17}, size_t{33}, size_t{100}, size_t{300},
        bytes_.size() / 2, bytes_.size() - 2}) {
    std::vector<char> mutated = bytes_;
    mutated[at] = static_cast<char>(mutated[at] ^ 0x5a);
    WriteAll(path, mutated);
    ExpectOpenFails(path);
  }
}

TEST_F(ImageCorruptionTest, WrongMagicAndVersionAreRejected) {
  const std::string path = dir_.File("wrong.img");
  {
    std::vector<char> mutated = bytes_;
    mutated[0] = 'X';
    WriteAll(path, mutated);
    Result<SnapshotPtr> r = CorpusSnapshot::Open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
    EXPECT_FALSE(LooksLikeImageFile(path));
  }
  {
    // Version field lives right after the 8-byte magic.
    std::vector<char> mutated = bytes_;
    mutated[8] = 99;
    WriteAll(path, mutated);
    Result<SnapshotPtr> r = CorpusSnapshot::Open(path);
    ASSERT_FALSE(r.ok());
    // Header checksum no longer matches, or (with a recomputed checksum)
    // the version gate fires; either way the message is clean.
  }
  // Formats v1 (all-raw, narrower section table) and v2 (codec-encoded
  // columns, 32-bit WAL stamp) are not read. The version gate runs before
  // the header checksum, so rewriting the version field alone reaches it.
  for (const int old_version : {1, 2}) {
    std::vector<char> mutated = bytes_;
    mutated[8] = static_cast<char>(old_version);
    WriteAll(path, mutated);
    Result<SnapshotPtr> r = CorpusSnapshot::Open(path);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsNotSupported())
        << "v" << old_version << ": " << r.status().ToString();
  }
}

TEST_F(ImageCorruptionTest, MissingAndEmptyFilesAreRejected) {
  ExpectOpenFails(dir_.File("does_not_exist.img"));
  const std::string path = dir_.File("empty_file.img");
  WriteAll(path, {});
  ExpectOpenFails(path);
  EXPECT_FALSE(LooksLikeImageFile(path));
}

TEST_F(ImageCorruptionTest, BracketFileIsNotAnImage) {
  const std::string path = dir_.File("treebank.mrg");
  WriteAll(path, {'(', 'S', ' ', '(', 'N', 'P', ' ', 'x', ')', ')'});
  EXPECT_FALSE(LooksLikeImageFile(path));
  ExpectOpenFails(path);
}

TEST_F(ImageCorruptionTest, RunWithNonContiguousTidsOpensInBoundsOrFails) {
  // A forged image whose tag runs are no longer grouped by tree: the first
  // and last tid of every run that spans trees are swapped. Open derives
  // the per-tree tag directory from exactly these sections, so it must
  // either refuse the file with Corruption or serve lookups that stay
  // inside the relation (ASan checks the second case). HeaderOnly skips
  // the payload checksum the edit would otherwise trip.
  const NodeRelation& built = snapshot_->relation();
  std::vector<char> bytes = bytes_;
  // The v3 header is 88 bytes; the section table follows, 24 bytes an
  // entry, the tid column first, its offset at byte 8 of the entry.
  uint64_t tid_offset = 0;
  std::memcpy(&tid_offset, bytes.data() + 88 + 8, sizeof(tid_offset));
  int forged_runs = 0;
  for (Symbol s = 0; s < built.interner().end_id(); ++s) {
    const RowRange run = built.run(s);
    if (run.empty() || built.tid(run.begin) == built.tid(run.end - 1)) {
      continue;
    }
    char* first = bytes.data() + tid_offset + 4 * uint64_t{run.begin};
    char* last = bytes.data() + tid_offset + 4 * uint64_t{run.end - 1};
    std::swap_ranges(first, first + 4, last);
    ++forged_runs;
  }
  ASSERT_GT(forged_runs, 0);
  const std::string path = dir_.File("forged.img");
  WriteAll(path, bytes);

  ImageOpenOptions lazy;
  lazy.verify = ImageVerify::kHeaderOnly;
  Result<NodeRelation> opened = ImageIO::Open(path, lazy);
  if (!opened.ok()) {
    EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
    return;
  }
  const NodeRelation& rel = opened.value();
  for (Symbol s = 0; s < rel.interner().end_id() + 2; ++s) {
    const RowRange run = rel.run(s);
    for (int32_t t = -1; t <= rel.tree_count(); ++t) {
      const RowRange slice = rel.RunForTree(s, t);
      if (slice.empty()) continue;
      EXPECT_GE(slice.begin, run.begin) << s << " " << t;
      EXPECT_LE(slice.end, run.end) << s << " " << t;
      EXPECT_EQ(rel.tid(slice.begin), t) << s;
    }
  }
  for (const char* q : {"//S//NP", "//VP{/NP$}", "//NP[not(//JJ)]",
                        "//_[@lex=saw]", "//NP/NP", "//VB->NP"}) {
    EXPECT_TRUE(LPathEngine(rel).Run(q).ok()) << q;
  }
}

// --- Mapped-snapshot hot swap under concurrency (TSan coverage) -------------

// Clients hammer Query() and sinking Submit()s against a corpus whose snapshot
// alternates between an in-memory build and freshly opened mmap images;
// retiring a mapped snapshot munmaps it, so this exercises exactly the
// "mapping must outlive every in-flight reader" contract. Results must
// always equal the (shared-corpus) expected answers.
TEST(ImageTest, MappedHotSwapHammerStaysConsistentAndSafe) {
  TempDir dir;
  Corpus corpus = testing::RandomCorpus(123, 40, 30);
  SnapshotPtr built = MustBuild(std::move(corpus));
  const std::string path = dir.File("hammer.img");
  ASSERT_TRUE(built->Save(path).ok());

  db::Database database;
  ASSERT_TRUE(database.Attach("x", built).ok());

  const std::vector<std::string> queries = {
      "//NP//_", "//VP[//N]", "//S", "//_[@lex='dog' or @lex='saw']"};
  std::vector<QueryResult> expected;
  for (const std::string& q : queries) {
    expected.push_back(MustRun(built->relation(), q));
  }

  constexpr int kClients = 4;
  constexpr int kRounds = 40;
  constexpr int kSwaps = 40;
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds && !stop.load(); ++round) {
        const size_t qi = static_cast<size_t>(c + round) % queries.size();
        Result<QueryResult> r = database.Query("x", queries[qi]);
        if (!r.ok() || !(r.value() == expected[qi])) failures.fetch_add(1);
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
            !(streamed == expected[qi])) {
          failures.fetch_add(1);
        }
      }
    });
  }

  // Alternate mapped and built snapshots; each swapped-out mapped snapshot
  // unmaps once its last in-flight reader finishes.
  for (int i = 0; i < kSwaps; ++i) {
    if (i % 2 == 0) {
      SnapshotPtr mapped = MustOpen(path);
      ASSERT_TRUE(database.Swap("x", mapped).ok());
    } else {
      ASSERT_TRUE(database.Swap("x", built).ok());
    }
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(database.snapshot("x") != nullptr);
}

}  // namespace
}  // namespace lpath
