// Write-ahead log unit battery (storage/wal.h) plus fault-injected
// ImageIO::Save (storage/io_hooks.h). The contracts under test:
//   - *committed means recoverable*: every Append acknowledged before a
//     simulated crash is replayed byte-identically after reopen, in LSN
//     order, across reopens;
//   - *torn tails truncate, corruption rejects*: a file cut at any byte
//     recovers the clean prefix of whole records; a bit flip anywhere
//     yields either that clean prefix or a clean Status::Corruption —
//     never a crash, never garbage records;
//   - *failed appends never commit*: an injected write/fsync failure
//     surfaces as an error and the record is invisible to replay and to
//     recovery, with the log still usable (or explicitly wedged);
//   - *checkpoints empty a fully covered log by atomic replace, without
//     losing the LSN position*: a crash at any step leaves every record or
//     none, and a partial checkpoint keeps them all;
//   - *ImageIO::Save under fault injection* returns a clean Status, never
//     clobbers the pre-existing image, and leaks no temp files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "storage/image.h"
#include "storage/io_hooks.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
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
            (std::string("lpathdb_wal_") + info->test_suite_name() + "_" +
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

std::unique_ptr<Wal> MustOpenWal(const std::string& dir) {
  Result<std::unique_ptr<Wal>> wal = Wal::Open(dir);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return std::move(wal).value();
}

uint64_t MustAppend(Wal* wal, std::string_view payload) {
  Result<uint64_t> lsn = wal->Append(payload);
  EXPECT_TRUE(lsn.ok()) << lsn.status().ToString();
  return lsn.ok() ? *lsn : 0;
}

/// Replays everything after `after_lsn` into (lsn, payload) pairs.
std::vector<std::pair<uint64_t, std::string>> ReplayAll(
    const Wal& wal, uint64_t after_lsn = 0) {
  std::vector<std::pair<uint64_t, std::string>> out;
  const Status st =
      wal.Replay(after_lsn, [&](uint64_t lsn, std::string_view payload) {
        out.emplace_back(lsn, std::string(payload));
        return Status::OK();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

std::string ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

std::string LogFile(const std::string& dir) {
  return dir + "/" + kWalFileName;
}

/// The names of the files in `dir`, sorted.
std::vector<std::string> DirFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    out.push_back(e.path().filename().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> TmpFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().find(".tmp.") != std::string::npos) {
      out.push_back(e.path().string());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Append / replay basics

TEST(Wal, AppendReplayRoundtrip) {
  TempDir dir;
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  EXPECT_EQ(wal->last_lsn(), 0u);

  const std::vector<std::string> payloads = {
      "(S (NP a))", std::string("sec\0ond", 7), std::string(1000, 'z')};
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(MustAppend(wal.get(), payloads[i]), i + 1);
  }
  EXPECT_EQ(wal->last_lsn(), 3u);

  const auto replayed = ReplayAll(*wal);
  ASSERT_EQ(replayed.size(), 3u);
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(replayed[i].first, i + 1);
    EXPECT_EQ(replayed[i].second, payloads[i]);
  }
  // after_lsn filters an exact prefix.
  EXPECT_EQ(ReplayAll(*wal, 2).size(), 1u);
  EXPECT_EQ(ReplayAll(*wal, 3).size(), 0u);

  const WalStats stats = wal->stats();
  EXPECT_EQ(stats.appends, 3u);
  EXPECT_EQ(stats.last_lsn, 3u);
  EXPECT_EQ(DirFiles(dir.File("wal")), std::vector<std::string>{"log.wal"});
}

TEST(Wal, RejectsEmptyPayload) {
  TempDir dir;
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  EXPECT_EQ(wal->Append("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(wal->last_lsn(), 0u);
}

TEST(Wal, ReopenContinuesLsnSequence) {
  TempDir dir;
  {
    std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
    MustAppend(wal.get(), "one");
    MustAppend(wal.get(), "two");
  }
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  EXPECT_EQ(wal->last_lsn(), 2u);
  EXPECT_EQ(wal->stats().recovered_records, 2u);
  EXPECT_EQ(MustAppend(wal.get(), "three"), 3u);
  const auto replayed = ReplayAll(*wal);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[2].second, "three");
}

// ---------------------------------------------------------------------------
// Torn tails and corruption

TEST(Wal, TornTailTruncatedAtEveryCutPoint) {
  // Build a small log, then for every possible cut length reopen a copy
  // truncated to that length: recovery must yield exactly the records
  // wholly inside the cut, and appending afterwards must work.
  TempDir dir;
  const std::vector<std::string> payloads = {"alpha", "bravo-bravo",
                                             "charlie"};
  std::vector<uint64_t> ends;  // file size after each append
  {
    std::unique_ptr<Wal> wal = MustOpenWal(dir.File("ref"));
    for (const std::string& p : payloads) {
      MustAppend(wal.get(), p);
      ends.push_back(fs::file_size(LogFile(dir.File("ref"))));
    }
  }
  const std::string full = ReadAllBytes(LogFile(dir.File("ref")));

  for (size_t cut = 0; cut < full.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    const std::string wal_dir = dir.File("cut");
    fs::remove_all(wal_dir);
    fs::create_directories(wal_dir);
    WriteAllBytes(LogFile(wal_dir), full.substr(0, cut));

    std::unique_ptr<Wal> wal = MustOpenWal(wal_dir);
    size_t want = 0;
    while (want < ends.size() && ends[want] <= cut) ++want;
    const auto replayed = ReplayAll(*wal);
    ASSERT_EQ(replayed.size(), want);
    for (size_t i = 0; i < want; ++i) {
      EXPECT_EQ(replayed[i].second, payloads[i]);
    }
    // A cut at a record boundary (or inside the 32-byte header, where the
    // first append replaces the whole file) tears nothing; any other cut
    // must be accounted as truncation.
    const bool clean_boundary =
        cut < 32 || cut == 32 ||
        std::find(ends.begin(), ends.end(), cut) != ends.end();
    if (!clean_boundary) {
      EXPECT_GT(wal->stats().truncated_bytes, 0u);
    }
    // The recovered log accepts appends at the right LSN.
    EXPECT_EQ(MustAppend(wal.get(), "post-crash"), want + 1);
  }
}

TEST(Wal, BitFlipYieldsCleanPrefixOrCleanError) {
  // Flip each byte of a three-record log: Open must either succeed with a
  // clean prefix of the original records or fail with a clean Corruption
  // status — never crash, never serve altered payloads.
  TempDir dir;
  const std::vector<std::string> payloads = {"alpha", "bravo-bravo",
                                             "charlie"};
  {
    std::unique_ptr<Wal> wal = MustOpenWal(dir.File("ref"));
    for (const std::string& p : payloads) MustAppend(wal.get(), p);
  }
  const std::string full = ReadAllBytes(LogFile(dir.File("ref")));

  for (size_t pos = 0; pos < full.size(); ++pos) {
    SCOPED_TRACE("flip=" + std::to_string(pos));
    std::string flipped = full;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x40);
    const std::string wal_dir = dir.File("flip");
    fs::remove_all(wal_dir);
    fs::create_directories(wal_dir);
    WriteAllBytes(LogFile(wal_dir), flipped);

    Result<std::unique_ptr<Wal>> wal = Wal::Open(wal_dir);
    if (!wal.ok()) {
      EXPECT_EQ(wal.status().code(), StatusCode::kCorruption)
          << wal.status().ToString();
      continue;
    }
    std::vector<std::string> got;
    const Status st = (*wal)->Replay(0, [&](uint64_t, std::string_view p) {
      got.emplace_back(p);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_LE(got.size(), payloads.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], payloads[i]);
    }
  }
}

TEST(Wal, CorruptMiddleRecordRefusesToOpen) {
  TempDir dir;
  std::vector<uint64_t> ends;  // file size after each append
  {
    std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
    for (int i = 0; i < 20; ++i) {
      MustAppend(wal.get(), "record-" + std::to_string(i) +
                                std::string(24, 'y'));
      ends.push_back(fs::file_size(LogFile(dir.File("wal"))));
    }
  }
  // Damage the last payload byte of the tenth record: damage before the
  // tail cannot be a crash artifact, so the log must refuse to serve
  // rather than drop an acknowledged record.
  const std::string path = LogFile(dir.File("wal"));
  std::string data = ReadAllBytes(path);
  const size_t pos = ends[9] - 1;
  data[pos] = static_cast<char>(data[pos] ^ 0x01);
  WriteAllBytes(path, data);

  Result<std::unique_ptr<Wal>> wal = Wal::Open(dir.File("wal"));
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kCorruption);
}

TEST(Wal, OldSegmentLayoutIsNotSupported) {
  // A directory in the older layout of numbered segment files: opening it
  // as an empty log would silently drop acknowledged records.
  TempDir dir;
  {
    std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
    MustAppend(wal.get(), "acked");
  }
  fs::rename(LogFile(dir.File("wal")),
             dir.File("wal") + "/0000000000000001.wal");
  Result<std::unique_ptr<Wal>> wal = Wal::Open(dir.File("wal"));
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kNotSupported)
      << wal.status().ToString();
}

// ---------------------------------------------------------------------------
// Checkpoint / rollback / LSN position

TEST(Wal, PartialCheckpointKeepsEveryRecord) {
  TempDir dir;
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  for (int i = 0; i < 20; ++i) {
    MustAppend(wal.get(), "record-" + std::to_string(i) +
                              std::string(24, 'y'));
  }
  // A checkpoint to a mid-log LSN covers only part of the log, which
  // stays whole; replay filters by LSN.
  ASSERT_TRUE(wal->Checkpoint(10).ok());
  EXPECT_EQ(wal->stats().checkpoints, 0u);
  EXPECT_EQ(ReplayAll(*wal).size(), 20u);
  const auto replayed = ReplayAll(*wal, 10);
  ASSERT_EQ(replayed.size(), 10u);
  EXPECT_EQ(replayed.front().first, 11u);
  EXPECT_EQ(replayed.back().first, 20u);

  wal.reset();
  wal = MustOpenWal(dir.File("wal"));
  EXPECT_EQ(ReplayAll(*wal).size(), 20u);
  EXPECT_EQ(MustAppend(wal.get(), "twenty-one"), 21u);
}

TEST(Wal, CheckpointCrashAtEveryOpKeepsEveryRecordOrNone) {
  // Sweep a simulated crash across every I/O boundary of a full
  // checkpoint. The rename is the switch: before it the reopened log
  // holds every record, after it none; either way it keeps its LSN
  // position and no temp file survives the reopen.
  TempDir dir;
  const std::string wal_dir = dir.File("wal");
  bool saw_all = false;
  bool saw_none = false;
  for (int64_t budget = 0;; ++budget) {
    SCOPED_TRACE("fail_after_ops=" + std::to_string(budget));
    fs::remove_all(wal_dir);
    std::unique_ptr<Wal> wal = MustOpenWal(wal_dir);
    for (int i = 0; i < 5; ++i) {
      MustAppend(wal.get(), "record-" + std::to_string(i));
    }
    IoHooks hooks;
    hooks.fail_after_ops.store(budget);
    Status st;
    {
      ScopedIoHooks install(&hooks);
      st = wal->Checkpoint(5);
    }
    wal = MustOpenWal(wal_dir);
    const size_t records = ReplayAll(*wal).size();
    EXPECT_TRUE(records == 5 || records == 0) << records;
    saw_all |= records == 5;
    saw_none |= records == 0;
    EXPECT_EQ(wal->last_lsn(), 5u);
    EXPECT_EQ(DirFiles(wal_dir), std::vector<std::string>{"log.wal"});
    EXPECT_EQ(MustAppend(wal.get(), "next"), 6u);
    if (st.ok()) {
      EXPECT_FALSE(hooks.crashed.load());
      EXPECT_EQ(records, 0u);
      break;
    }
    ASSERT_LT(budget, 64) << "sweep did not terminate";
  }
  EXPECT_TRUE(saw_all);
  EXPECT_TRUE(saw_none);
}

TEST(Wal, FailedCheckpointLeavesTheNextAppendAFreshLog) {
  // A transient rename failure: the checkpoint reports it, the covered
  // records stay on disk for now, and the next append replaces them with
  // a fresh log that continues the LSN sequence.
  TempDir dir;
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  for (int i = 0; i < 3; ++i) MustAppend(wal.get(), "covered");
  IoHooks hooks;
  hooks.fail_rename.store(true);
  {
    ScopedIoHooks install(&hooks);
    EXPECT_FALSE(wal->Checkpoint(3).ok());
  }
  EXPECT_EQ(MustAppend(wal.get(), "four"), 4u);
  wal = MustOpenWal(dir.File("wal"));
  const auto replayed = ReplayAll(*wal);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].first, 4u);
  EXPECT_EQ(replayed[0].second, "four");
}

TEST(Wal, FullCheckpointPreservesLsnPositionAcrossReopen) {
  TempDir dir;
  {
    std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
    for (int i = 0; i < 5; ++i) MustAppend(wal.get(), "r");
    // Everything covered: the log empties but must not forget where it
    // was — a reused LSN would be silently filtered by replay-after-open.
    ASSERT_TRUE(wal->Checkpoint(5).ok());
    EXPECT_EQ(ReplayAll(*wal).size(), 0u);
    EXPECT_EQ(wal->last_lsn(), 5u);
  }
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  EXPECT_EQ(wal->last_lsn(), 5u);
  EXPECT_EQ(MustAppend(wal.get(), "six"), 6u);
}

TEST(Wal, EnsureNextLsnAboveClosesCheckpointCrashWindow) {
  TempDir dir;
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  EXPECT_EQ(wal->last_lsn(), 0u);
  // Simulates an attach whose image is stamped at LSN 7 while the log
  // lost its position (its directory was lost or cleared): appends must
  // resume above the stamp.
  wal->EnsureNextLsnAbove(7);
  EXPECT_EQ(wal->last_lsn(), 7u);
  EXPECT_EQ(MustAppend(wal.get(), "eight"), 8u);
  // No-op when already above.
  wal->EnsureNextLsnAbove(3);
  EXPECT_EQ(wal->last_lsn(), 8u);
}

TEST(Wal, RollbackRemovesExactlyTheLastAppend) {
  TempDir dir;
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  MustAppend(wal.get(), "keep");
  const uint64_t lsn = MustAppend(wal.get(), "undo");
  ASSERT_TRUE(wal->Rollback(lsn).ok());
  EXPECT_EQ(wal->last_lsn(), 1u);
  const auto replayed = ReplayAll(*wal);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].second, "keep");
  // The LSN is reused by the next append; only the latest record may be
  // rolled back, and only once.
  EXPECT_FALSE(wal->Rollback(lsn).ok());
  EXPECT_EQ(MustAppend(wal.get(), "redo"), lsn);

  // Still true after a reopen.
  wal.reset();
  wal = MustOpenWal(dir.File("wal"));
  const auto after = ReplayAll(*wal);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].second, "redo");
}

// ---------------------------------------------------------------------------
// Injected failures (transient errors, not crashes)

TEST(Wal, FailedFsyncDoesNotCommit) {
  TempDir dir;
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  MustAppend(wal.get(), "good");

  IoHooks hooks;
  hooks.fail_fsync.store(true);
  {
    ScopedIoHooks install(&hooks);
    const Result<uint64_t> lsn = wal->Append("never-acked");
    ASSERT_FALSE(lsn.ok());
  }
  // Transient failure: the record is gone (cut back), the log is not
  // wedged, and the next append commits at the freed LSN.
  EXPECT_EQ(wal->last_lsn(), 1u);
  EXPECT_EQ(MustAppend(wal.get(), "retry"), 2u);
  const auto replayed = ReplayAll(*wal);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].second, "good");
  EXPECT_EQ(replayed[1].second, "retry");

  // And recovery sees the same two records.
  wal.reset();
  wal = MustOpenWal(dir.File("wal"));
  EXPECT_EQ(ReplayAll(*wal).size(), 2u);
}

TEST(Wal, TornWriteCrashRecoversCommittedPrefix) {
  TempDir dir;
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  MustAppend(wal.get(), "committed-one");
  MustAppend(wal.get(), "committed-two");

  IoHooks hooks;
  // Enough budget to tear the next record mid-payload: a genuinely short
  // write lands on disk and the simulated process dies.
  hooks.fail_write_after_bytes.store(30);
  {
    ScopedIoHooks install(&hooks);
    ASSERT_FALSE(wal->Append("torn-and-dead-torn-and-dead").ok());
    // The crash latched: everything after fails, including appends.
    ASSERT_FALSE(wal->Append("after-death").ok());
  }
  EXPECT_TRUE(hooks.crashed.load());

  // "Reboot": reopen from disk without hooks. The torn record truncates
  // away; both committed records survive.
  wal.reset();
  wal = MustOpenWal(dir.File("wal"));
  EXPECT_GT(wal->stats().truncated_bytes, 0u);
  const auto replayed = ReplayAll(*wal);
  ASSERT_EQ(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].second, "committed-one");
  EXPECT_EQ(replayed[1].second, "committed-two");
  EXPECT_EQ(MustAppend(wal.get(), "post-reboot"), 3u);
}

TEST(Wal, NamedCrashPointBeforeSyncLeavesUnackedRecordBehind) {
  // A crash after the record bytes land but before the commit fsync: the
  // append fails (never acknowledged), and this simulation keeps the
  // bytes (see io_hooks.h on the page-cache caveat) — recovery may then
  // legitimately surface the unacked record. What recovery must never do
  // is lose an *acked* one.
  TempDir dir;
  std::unique_ptr<Wal> wal = MustOpenWal(dir.File("wal"));
  MustAppend(wal.get(), "acked");

  IoHooks hooks;
  hooks.on_point = [](std::string_view point) {
    return point == std::string_view("wal:append:before_sync");
  };
  {
    ScopedIoHooks install(&hooks);
    ASSERT_FALSE(wal->Append("in-flight").ok());
  }
  wal.reset();
  wal = MustOpenWal(dir.File("wal"));
  const auto replayed = ReplayAll(*wal);
  ASSERT_GE(replayed.size(), 1u);
  ASSERT_LE(replayed.size(), 2u);
  EXPECT_EQ(replayed[0].second, "acked");
  if (replayed.size() == 2) {
    EXPECT_EQ(replayed[1].second, "in-flight");
  }
}

// ---------------------------------------------------------------------------
// Fault-injected ImageIO::Save (satellite: dir-fsync is a real Status,
// temp files never leak, the previous image never tears)

class ImageSaveFault : public ::testing::Test {
 protected:
  void SetUp() override {
    snapshot_ = [] {
      Result<SnapshotPtr> s =
          CorpusSnapshot::Build(testing::RandomCorpus(417, 12));
      EXPECT_TRUE(s.ok()) << s.status().ToString();
      return std::move(s).value();
    }();
    path_ = dir_.File("corpus.img");
    ASSERT_TRUE(snapshot_->Save(path_).ok());
    golden_ = ReadAllBytes(path_);
    ASSERT_FALSE(golden_.empty());
  }

  /// Asserts the failure left the world exactly as it was: same image
  /// bytes, still openable, no temp litter.
  void ExpectIntact() {
    EXPECT_EQ(ReadAllBytes(path_), golden_);
    EXPECT_TRUE(TmpFiles(fs::path(path_).parent_path().string()).empty());
    EXPECT_TRUE(ImageIO::Open(path_).ok());
  }

  TempDir dir_;
  SnapshotPtr snapshot_;
  std::string path_;
  std::string golden_;
};

TEST_F(ImageSaveFault, ShortWriteFailsCleanAndKeepsOldImage) {
  IoHooks hooks;
  hooks.fail_write_after_bytes.store(100);  // tear inside the payload
  {
    ScopedIoHooks install(&hooks);
    const Status st = snapshot_->Save(path_);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();
  }
  ExpectIntact();
}

TEST_F(ImageSaveFault, FailedFsyncFailsCleanAndKeepsOldImage) {
  IoHooks hooks;
  hooks.fail_fsync.store(true);
  {
    ScopedIoHooks install(&hooks);
    ASSERT_FALSE(snapshot_->Save(path_).ok());
  }
  ExpectIntact();
}

TEST_F(ImageSaveFault, FailedRenameFailsCleanAndKeepsOldImage) {
  IoHooks hooks;
  hooks.fail_rename.store(true);
  {
    ScopedIoHooks install(&hooks);
    ASSERT_FALSE(snapshot_->Save(path_).ok());
  }
  ExpectIntact();
}

TEST_F(ImageSaveFault, CrashAtEveryOpKeepsOldImageIntact) {
  // Sweep a simulated crash across every I/O boundary Save crosses. At
  // every point the previous image must stay byte-identical (tmp+rename)
  // and no temp file may leak from the error-return path.
  for (int64_t budget = 0;; ++budget) {
    SCOPED_TRACE("fail_after_ops=" + std::to_string(budget));
    IoHooks hooks;
    hooks.fail_after_ops.store(budget);
    Status st;
    {
      ScopedIoHooks install(&hooks);
      st = snapshot_->Save(path_);
    }
    if (st.ok()) {
      EXPECT_FALSE(hooks.crashed.load());
      // Completed without hitting the budget: the sweep covered every op.
      EXPECT_TRUE(ImageIO::Open(path_).ok());
      break;
    }
    // The rename is the publish point: before it the old bytes must be
    // untouched; after it the new image is in place. Either way the file
    // opens clean and no temp litter remains.
    const std::string now = ReadAllBytes(path_);
    EXPECT_TRUE(now == golden_ ||
                st.message().find("fsync-dir") != std::string::npos)
        << "image changed before a non-publish failure";
    EXPECT_TRUE(TmpFiles(fs::path(path_).parent_path().string()).empty());
    EXPECT_TRUE(ImageIO::Open(path_).ok());
    ASSERT_LT(budget, 4096) << "sweep did not terminate";
  }
}

TEST_F(ImageSaveFault, DirFsyncFailureIsARealStatus) {
  // Count the ops of a clean hooked run, then fail exactly the last one —
  // the directory fsync after the rename. Save must report it (the rename
  // may not be durable) even though the renamed image is in place.
  IoHooks count;
  {
    ScopedIoHooks install(&count);
    ASSERT_TRUE(snapshot_->Save(path_).ok());
  }
  const int64_t total = static_cast<int64_t>(count.ops.load());
  ASSERT_GT(total, 0);

  IoHooks hooks;
  hooks.fail_after_ops.store(total - 1);
  Status st;
  {
    ScopedIoHooks install(&hooks);
    st = snapshot_->Save(path_);
  }
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fsync-dir"), std::string::npos)
      << st.ToString();
  // The image itself was renamed into place and is valid.
  EXPECT_TRUE(ImageIO::Open(path_).ok());
  EXPECT_TRUE(TmpFiles(fs::path(path_).parent_path().string()).empty());
}

// ---------------------------------------------------------------------------
// WAL checkpoint stamp in the image header

TEST(ImageWalLsn, RoundTripsThroughSaveAndOpen) {
  TempDir dir;
  Result<SnapshotPtr> snap =
      CorpusSnapshot::Build(testing::RandomCorpus(11, 6));
  ASSERT_TRUE(snap.ok());
  const std::string path = dir.File("stamped.img");

  ImageSaveOptions options;
  options.wal_lsn = 42;
  ASSERT_TRUE((*snap)->Save(path, options).ok());

  // The stamped image opens like any other, and the snapshot surfaces
  // the stamp for the replay filter.
  Result<SnapshotPtr> reopened = CorpusSnapshot::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->base_wal_lsn(), 42u);
}

TEST(ImageWalLsn, DefaultsToZeroAndKeepsA64BitStamp) {
  TempDir dir;
  Result<SnapshotPtr> snap =
      CorpusSnapshot::Build(testing::RandomCorpus(12, 4));
  ASSERT_TRUE(snap.ok());
  const std::string path = dir.File("plain.img");
  ASSERT_TRUE((*snap)->Save(path).ok());
  Result<SnapshotPtr> plain = CorpusSnapshot::Open(path);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ((*plain)->base_wal_lsn(), 0u);

  // A log past 2^32 records must still checkpoint: the stamp is 64 bits
  // wide and comes back unchanged.
  ImageSaveOptions options;
  options.wal_lsn = (1ull << 32) + 5;
  const std::string wide_path = dir.File("wide.img");
  const Status st = (*snap)->Save(wide_path, options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  Result<SnapshotPtr> reopened = CorpusSnapshot::Open(wide_path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->base_wal_lsn(), (1ull << 32) + 5);
}

}  // namespace
}  // namespace lpath
