// The multi-corpus database layer: a catalog mapping corpus names to their
// current snapshot, each served by its own QueryService (prepared-plan
// cache + shard pool). This is the shape of the server the paper's pitch
// implies: one process holding several treebanks (WSJ, SWB, ...), routing
// each query to the right corpus, swapping in rebuilt indexes without
// downtime, and serving clients synchronously (Query) or asynchronously,
// optionally streaming to a sink (Submit).
//
// Concurrency model:
//   - DatabaseOptions are fixed at construction and read without a lock.
//   - Everything the database keeps about one attached corpus lives in one
//     shared entry: its service, its WAL handle, its ingest lock and its
//     compaction health. An operation in flight holds its entry, so a
//     concurrent Detach (which erases the catalog's one reference) never
//     pulls state out from under it, and state written to a detached entry
//     dies with it instead of reaching a corpus re-attached under the name.
//   - One mutex guards the catalog map shape, taken only for name
//     resolution, attach/detach bookkeeping and snapshot publication —
//     never across query execution, pool construction, pool join, or
//     relation rebuild.
//   - Every publication (Swap, Reload, Ingest, Compact) goes through one
//     step that swaps the service's session pointer *while holding the
//     catalog mutex* (a session build is a handful of small allocations),
//     checking that the entry is still attached and, except for Swap, that
//     it still serves the snapshot the new one was built from — a snapshot
//     built from a replaced predecessor can never silently revert a swap.
//     Readers never block on a publication: queries in flight hold the old
//     snapshot alive through shared ownership, and no torn state exists —
//     a query sees entirely the old or entirely the new snapshot.

#ifndef LPATHDB_DB_DATABASE_H_
#define LPATHDB_DB_DATABASE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "service/query_service.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "tree/corpus.h"

namespace lpath {
namespace db {

struct DatabaseOptions {
  /// Per-corpus serving options (threads, plan-cache size, sharding).
  service::QueryServiceOptions service;
  /// Live-corpus compaction threshold: when an Ingest leaves the corpus's
  /// snapshot chain with at least this many delta trees, a background
  /// compaction (merge delta into the base, republish) is scheduled. The
  /// delta stays queryable throughout — compaction is a throughput
  /// optimization, never a correctness requirement. 0 disables automatic
  /// compaction (Compact() still works on demand).
  int32_t compact_delta_trees = 4096;
  /// Durable live ingestion: when non-empty, every attached corpus keeps a
  /// write-ahead log under `<wal_dir>/<escaped name>/` (storage/wal.h).
  /// Ingest then commits each batch to the log (fsync and all) *before*
  /// publishing it — a failed append errors out without publishing — and
  /// every attach path replays records the snapshot does not already cover
  /// before the corpus serves, so an acknowledged Ingest survives a crash.
  /// A successful image-backed compaction stamps the image with the LSN it
  /// covers and checkpoints (truncates) the log behind it. Empty (the
  /// default) disables durable ingest entirely.
  std::string wal_dir;
  /// WAL tuning (segment size, sync-per-commit) when wal_dir is set.
  WalOptions wal;
};

/// One catalog row, for listings and monitoring.
struct CorpusInfo {
  std::string name;
  uint64_t snapshot_id = 0;
  size_t trees = 0;  ///< chain-wide (base + unmerged delta)
  size_t nodes = 0;  ///< chain-wide
  size_t relation_bytes = 0;  ///< base + delta relation footprint
  /// Trees in the unmerged delta (0 for a plain snapshot) — the live
  /// tail a compaction would fold into the base.
  size_t delta_trees = 0;
  int threads = 0;
  // Durability (all zero/false without DatabaseOptions::wal_dir).
  bool wal = false;              ///< corpus has a live write-ahead log
  uint64_t wal_last_lsn = 0;     ///< highest committed WAL record
  uint64_t wal_segments = 0;     ///< live WAL segment files
  // Background-compaction health: failures are counted (and the latest
  // error kept) rather than dropped on the floor; the compactor retries
  // with capped backoff, and a later Ingest reschedules regardless.
  uint64_t compaction_failures = 0;
  std::string last_compaction_error;  ///< empty after a clean compaction
};

class Database {
 public:
  explicit Database(DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Catalog management ---------------------------------------------------

  /// Attaches a prebuilt snapshot under `name` and spins up its service.
  /// AlreadyExists if the name is taken; InvalidArgument for an empty name
  /// or null snapshot.
  Status Attach(const std::string& name, SnapshotPtr snapshot);

  /// Builds a snapshot from `corpus` (consumed) under the default labeling
  /// scheme and attaches it. A corpus labeled otherwise arrives prebuilt,
  /// through Attach or an image.
  Status OpenCorpus(const std::string& name, Corpus corpus);

  /// Attaches the file at `path` as corpus `name`. Sniffs the format: a
  /// persistent relation image (see storage/image.h) is mmap-opened in
  /// O(file size) with no labeling or sorting; anything else is loaded as
  /// a Penn-bracketed treebank and its relation is built in memory.
  Status Open(const std::string& name, const std::string& path);

  /// Attaches a persistent relation image explicitly (errors if `path` is
  /// not an image).
  Status OpenImage(const std::string& name, const std::string& path);

  /// Writes corpus `name`'s current snapshot as a persistent relation
  /// image at `path`; a later Open/OpenImage of that file serves the same
  /// relation without rebuilding it. NotFound if `name` is not attached.
  Status Save(const std::string& name, const std::string& path) const;

  /// Atomically publishes `snapshot` as the current version of `name`.
  /// In-flight queries finish on the snapshot they started with; queries
  /// starting after the call see the new one. NotFound if `name` is not
  /// attached.
  Status Swap(const std::string& name, SnapshotPtr snapshot);

  /// Rebuilds the current snapshot's relation over the same corpus (the
  /// index-rebuild path) and publishes it via Swap.
  Status Reload(const std::string& name);

  // --- Live ingestion -------------------------------------------------------

  /// Appends `trees` to corpus `name` without downtime: the current
  /// snapshot chain is extended (O(batch) work — only the incoming trees
  /// are labeled, then merged onto the delta; the base relation is shared
  /// untouched, see storage/snapshot.h) and the new chain is
  /// hot-swapped in. Queries in flight finish on the pre-append snapshot;
  /// queries starting after the call see the appended trees. Appends to
  /// one corpus are serialized by a per-corpus ingest lock, so concurrent
  /// Ingest calls all land (in some order) rather than overwriting each
  /// other. When the resulting delta reaches
  /// DatabaseOptions::compact_delta_trees, a background compaction is
  /// scheduled. NotFound if `name` is not attached; InvalidArgument for an
  /// empty batch.
  Status Ingest(const std::string& name, Corpus trees);

  /// Synchronously merges corpus `name`'s delta into its base and
  /// publishes the compacted snapshot (for an image-backed corpus this
  /// rewrites the image file crash-safely and remaps it). A no-op success
  /// when there is no delta. Readers are never blocked: in-flight queries
  /// keep the pre-compaction chain alive via their session references.
  Status Compact(const std::string& name);

  /// Removes `name` from the catalog. In-flight queries on its service are
  /// unaffected (the service lives until its last shared reference drops).
  Status Detach(const std::string& name);

  // --- Introspection --------------------------------------------------------

  bool Has(const std::string& name) const;
  std::vector<std::string> CorpusNames() const;  // sorted
  std::vector<CorpusInfo> List() const;          // sorted by name

  /// The current snapshot of `name`, or null if not attached.
  SnapshotPtr snapshot(const std::string& name) const;

  /// The serving handle for `name`, or null if not attached. Shared: keeps
  /// working (on its last published snapshot) even if the name is detached
  /// or swapped afterwards.
  std::shared_ptr<service::QueryService> service(const std::string& name) const;

  // --- Routed query entry points -------------------------------------------

  /// Evaluates `query` against corpus `name`, synchronously.
  Result<QueryResult> Query(const std::string& name, const std::string& query);

  /// Submits `query` against corpus `name` for asynchronous evaluation
  /// (see service::QueryService::Submit: with a sink, the rows go to the
  /// sink and the handle resolves to an empty result). The network front
  /// end's entry point (src/net/). The returned handle, the sink and the
  /// hooks in `opts` all stay valid across a concurrent Swap/Detach (the
  /// query pins its service and session).
  Result<service::PendingQuery> Submit(const std::string& name,
                                       const std::string& query,
                                       service::RowSink sink = {},
                                       service::SubmitOptions opts = {});

 private:
  /// One attached corpus. `name`, `service` and `wal` are fixed at attach;
  /// the compaction fields are guarded by compact_mu_.
  struct Entry {
    std::string name;
    std::shared_ptr<service::QueryService> service;
    std::unique_ptr<Wal> wal;  ///< null without DatabaseOptions::wal_dir
    /// Serializes the read-append-publish sequence of Ingest and Compact
    /// against each other — never against queries, and never across
    /// corpora.
    std::mutex ingest_mu;
    uint64_t compaction_failures = 0;
    std::string last_compaction_error;  ///< cleared by a clean compaction
    bool compact_queued = false;        ///< a CompactTask names this entry
  };

  /// The entry attached under `name`, or null.
  std::shared_ptr<Entry> Find(const std::string& name) const;
  /// Attach's body for every attach path: fails fast on a taken name, then
  /// builds the snapshot, replays the WAL onto it and inserts the entry.
  Status AttachBuilt(const std::string& name,
                     const std::function<Result<SnapshotPtr>()>& build);
  /// The one publication step: under mu_, makes `next` the snapshot of
  /// `entry` if the entry is still attached and (unless `expected` is
  /// null) still serves `expected`. True when published, false on a
  /// conflict (the caller's policy decides), NotFound once detached. The
  /// retired session drops after mu_ is released.
  Result<bool> Publish(const Entry& entry, const SnapshotPtr& expected,
                       SnapshotPtr next);
  /// Compact's body; also the background compactor's per-item work. Every
  /// outcome is recorded in the entry's compaction health.
  Status CompactEntry(Entry& entry);
  /// Enqueues `entry` for the background compactor (once), lazily
  /// starting the compactor thread on first use.
  void ScheduleCompaction(const std::shared_ptr<Entry>& entry);
  void CompactorLoop();

  const DatabaseOptions options_;
  // Guards catalog_ and serializes snapshot publication with the
  // publish-if-current checks; never held across queries or pool lifetimes.
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> catalog_;

  /// One unit of background-compaction work. A failed attempt is re-queued
  /// with doubling backoff up to kMaxCompactAttempts; after that the delta
  /// simply stays live, the failure stays visible in the entry's health,
  /// and a later Ingest reschedules from attempt zero. The queue does not
  /// keep a detached corpus alive, and a task whose entry is no longer the
  /// one attached under its name is skipped.
  struct CompactTask {
    std::weak_ptr<Entry> entry;
    int attempt = 0;
    std::chrono::steady_clock::time_point ready;
  };

  /// Background compactor: one lazily-started thread draining a queue of
  /// compaction tasks, at most one per entry; synchronous Compact() is the
  /// caller-facing error path, the entry's health the monitoring one. Lock
  /// order: mu_ may be taken while compact_mu_ is held, never the reverse.
  mutable std::mutex compact_mu_;
  std::condition_variable compact_cv_;
  std::deque<CompactTask> compact_queue_;
  bool compact_stop_ = false;
  std::thread compactor_;
};

}  // namespace db
}  // namespace lpath

#endif  // LPATHDB_DB_DATABASE_H_
