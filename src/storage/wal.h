// Write-ahead log for live-corpus ingestion: an append-only, checksummed
// record log with fsync-on-commit. db::Database appends each ingested tree
// batch (its bracketed text) *before* publishing the extended snapshot
// chain, so an acknowledged Ingest is on disk before the client sees
// success; on restart the sidecar log is replayed into the delta chain
// before the corpus serves, and a successful image compaction checkpoints
// (empties) the log once the rewritten image covers all of it.
//
// On-disk layout. A log is one file, `<dir>/log.wal`. It starts with a
// 32-byte header {magic "LPDBWAL", version, endian marker, first LSN} —
// the next LSN when the file was written — and records follow back to
// back:
//
//   WalRecordHeader {u32 magic, u32 payload length, u64 lsn,
//                    u64 FNV-1a64 over (lsn, length, payload)}
//   payload bytes
//
// LSNs are assigned contiguously from 1 and never reused (except by
// Rollback of the latest record, which truncates it away first). A record
// is committed once its bytes are fsynced; Append returns only then. The
// file itself is only ever created whole: a header is written to
// `log.wal.tmp`, fsynced, renamed over `log.wal` and the directory
// fsynced — on the first append, and again by every checkpoint.
//
// Corruption model (what recovery guarantees). A crash tears the *tail*:
// appends only ever extend the file, so an interrupted commit leaves a
// short final record at its end. Open() truncates exactly that torn tail
// and recovers every record before it. A *complete* record whose checksum
// or magic does not verify — or any damage before the tail — cannot come
// from a torn append and is rejected as Status::Corruption rather than
// repaired: silently dropping an acknowledged commit is the one failure
// this layer exists to prevent. (A bit flip in a length field is
// indistinguishable from a torn tail; recovery then still yields a clean
// *prefix* of the committed records, never garbage — the property the
// corruption battery asserts byte by byte.)
//
// All file mutation goes through lpath::io (storage/io_hooks.h), so tests
// inject write/fsync/rename failures and full crashes at every boundary.

#ifndef LPATHDB_STORAGE_WAL_H_
#define LPATHDB_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace lpath {

/// Leading bytes of every WAL file.
inline constexpr char kWalMagic[8] = {'L', 'P', 'D', 'B', 'W', 'A', 'L', '\0'};
inline constexpr uint32_t kWalFormatVersion = 1;
/// Bytes of framing per record (header ahead of the payload).
inline constexpr size_t kWalRecordOverhead = 24;
/// The log file inside its directory.
inline constexpr char kWalFileName[] = "log.wal";

struct WalStats {
  uint64_t last_lsn = 0;        ///< highest committed LSN (0 = empty log)
  uint64_t appends = 0;         ///< records committed by this handle
  uint64_t appended_bytes = 0;  ///< bytes committed (framing included)
  uint64_t checkpoints = 0;     ///< Checkpoint() calls that emptied the log
  uint64_t recovered_records = 0;  ///< records found on disk at Open
  uint64_t truncated_bytes = 0;    ///< torn-tail bytes discarded at Open
};

class Wal {
 public:
  /// Opens (creating if needed) the log directory, validates the log,
  /// truncates a torn tail, and positions the log for appends after the
  /// last committed record. Corruption anywhere before the tail is a clean
  /// Status::Corruption — the log refuses to serve a lossy middle. A
  /// directory still holding numbered segment files of the older
  /// multi-file layout is NotSupported: their records would go unread.
  static Result<std::unique_ptr<Wal>> Open(const std::string& dir);

  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Commits `payload` as the next record: written, checksummed and
  /// fsynced before returning its LSN. On any failure the partial record
  /// is truncated away (best effort) and no LSN is consumed; if even that
  /// cleanup fails the log wedges — every later Append fails — rather
  /// than risk appending after garbage.
  Result<uint64_t> Append(std::string_view payload);

  /// Streams every committed record with lsn > after_lsn, in LSN order.
  /// Stops and returns the callback's first non-OK status.
  Status Replay(uint64_t after_lsn,
                const std::function<Status(uint64_t lsn,
                                           std::string_view payload)>& fn)
      const;

  /// Empties the log when lsn <= up_to_lsn covers every record: a fresh
  /// file whose header keeps the LSN position atomically replaces it.
  /// Callers checkpoint only after the covered records are durable
  /// elsewhere (the compacted image). Coarse on purpose: a partial
  /// checkpoint keeps the whole log, and replay filters by LSN anyway.
  Status Checkpoint(uint64_t up_to_lsn);

  /// Undoes the most recent Append (and only that): truncates the record
  /// and frees its LSN. For the ingest path whose publish lost to a
  /// concurrent Detach — the batch was never acknowledged, so it must not
  /// resurrect on replay.
  Status Rollback(uint64_t lsn);

  /// Raises the next LSN above `floor` (no-op when it already is). The
  /// owner calls this with the checkpointed LSN stamped into its base
  /// image: if the log directory is lost or cleared while the image keeps
  /// its stamp, the log reopens empty, and without the floor new appends
  /// would reuse LSNs the image already covers — and be silently filtered
  /// on the next replay.
  void EnsureNextLsnAbove(uint64_t floor);

  uint64_t last_lsn() const;
  WalStats stats() const;
  const std::string& dir() const { return dir_; }

 private:
  explicit Wal(std::string dir);

  /// Writes a log holding only a header at next_lsn_ to the temp file,
  /// fsyncs it, renames it over path_ and fsyncs the directory. Returns
  /// the new log's fd.
  Result<int> WriteFreshLog();

  mutable std::mutex mu_;
  const std::string dir_;
  const std::string path_;  ///< dir_/kWalFileName
  int fd_ = -1;             ///< the open log, or -1 until the next append
  bool wedged_ = false;
  uint64_t next_lsn_ = 1;
  /// Committed size of path_; 0 while the file holds nothing to keep, so
  /// the next append writes a fresh one.
  uint64_t bytes_ = 0;
  uint64_t records_ = 0;  ///< committed records in path_
  /// Size of the latest committed record — what Rollback removes.
  uint64_t last_record_bytes_ = 0;
  WalStats stats_;
};

}  // namespace lpath

#endif  // LPATHDB_STORAGE_WAL_H_
