#include "db/database.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "storage/image.h"
#include "tree/bracket_io.h"

namespace lpath {
namespace db {

namespace {

/// Backoff schedule for failed background compactions: 10ms, 20ms, 40ms
/// before the attempt cap — enough to ride out a transient I/O failure
/// without turning the compactor into a busy loop.
constexpr int kMaxCompactAttempts = 4;

std::chrono::milliseconds CompactBackoff(int attempt) {
  return std::chrono::milliseconds(10) * (1 << attempt);
}

/// The per-corpus log directory under wal_dir. Corpus names are
/// caller-chosen strings, so everything outside [A-Za-z0-9_-] is %XX-hex
/// escaped — no separator, traversal, or dot-file surprises, and distinct
/// names never collide.
std::string WalDirFor(const std::string& wal_dir, const std::string& name) {
  std::string out = wal_dir;
  out += '/';
  for (const char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (safe) {
      out += c;
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

}  // namespace

Database::Database(DatabaseOptions options) : options_(std::move(options)) {}

Database::~Database() {
  std::thread worker;
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    compact_stop_ = true;
    worker = std::move(compactor_);
  }
  compact_cv_.notify_all();
  // Joined outside compact_mu_ (the loop relocks it to exit). Queued
  // compactions are abandoned — the deltas they would have merged stay
  // valid in their snapshots, nothing is lost.
  if (worker.joinable()) worker.join();
}

Status Database::Attach(const std::string& name, SnapshotPtr snapshot) {
  if (name.empty()) {
    return Status::InvalidArgument("Database::Attach: empty corpus name");
  }
  if (snapshot == nullptr) {
    return Status::InvalidArgument("Database::Attach: null snapshot");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Fast-fail before the log replay and the pool build; the insert below
    // re-checks authoritatively for the racing case.
    if (catalog_.count(name) > 0) {
      return Status::AlreadyExists("corpus already attached: " + name);
    }
  }
  // Durable mode: open the corpus's sidecar log and fold every record the
  // snapshot does not already cover into the delta chain *before* the
  // corpus serves — an acknowledged pre-crash Ingest is visible to the
  // first post-crash query. All batches accumulate into one corpus and
  // re-enter through a single Append, so recovery is O(total replayed),
  // not O(batches * delta). A corrupt (non-torn) log is a clean error: the
  // corpus refuses to attach rather than silently serve a lossy middle.
  std::shared_ptr<Wal> wal;
  uint64_t replayed_batches = 0;
  if (!options_.wal_dir.empty()) {
    LPATH_ASSIGN_OR_RETURN(wal, Wal::Open(WalDirFor(options_.wal_dir, name),
                                          options_.wal));
    // A checkpoint that emptied the log persists its position in the fresh
    // segment header — but a crash between its unlinks and that rotation
    // loses it. The image's stamp is the floor that closes the window:
    // without it, new appends could reuse covered LSNs and be silently
    // filtered on the next replay.
    wal->EnsureNextLsnAbove(snapshot->base_wal_lsn());
    Corpus pending;
    LPATH_RETURN_IF_ERROR(
        wal->Replay(snapshot->base_wal_lsn(),
                    [&](uint64_t /*lsn*/, std::string_view payload) {
                      ++replayed_batches;
                      return ParseBracketText(payload, &pending);
                    }));
    if (!pending.empty()) {
      LPATH_ASSIGN_OR_RETURN(snapshot, snapshot->Append(pending));
    }
  }
  // The service (and its thread pool) is built outside the catalog lock;
  // a racing attach of the same name wins, and this one's idle pool winds
  // down unlocked.
  auto created =
      std::make_shared<service::QueryService>(snapshot, options_.service);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (catalog_.count(name) == 0) {
      catalog_.emplace(name, created);
      if (wal != nullptr) wal_[name] = wal;
      if (replayed_batches > 0) created->NoteReplay(replayed_batches);
      return Status::OK();
    }
  }
  return Status::AlreadyExists("corpus already attached: " + name);
}

Status Database::OpenCorpus(const std::string& name, Corpus corpus) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Fast-fail before the expensive snapshot build; Attach re-checks
    // authoritatively for the racing case.
    if (catalog_.count(name) > 0) {
      return Status::AlreadyExists("corpus already attached: " + name);
    }
  }
  LPATH_ASSIGN_OR_RETURN(SnapshotPtr snapshot,
                         CorpusSnapshot::Build(std::move(corpus)));
  return Attach(name, std::move(snapshot));
}

Status Database::Open(const std::string& name, const std::string& path) {
  if (LooksLikeImageFile(path)) return OpenImage(name, path);
  Corpus corpus;
  LPATH_RETURN_IF_ERROR(LoadBracketFile(path, &corpus));
  if (corpus.empty()) {
    return Status::InvalidArgument("no trees in " + path);
  }
  return OpenCorpus(name, std::move(corpus));
}

Status Database::OpenImage(const std::string& name, const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Fast-fail before mapping + checksumming; Attach re-checks
    // authoritatively for the racing case.
    if (catalog_.count(name) > 0) {
      return Status::AlreadyExists("corpus already attached: " + name);
    }
  }
  LPATH_ASSIGN_OR_RETURN(SnapshotPtr snapshot, CorpusSnapshot::Open(path));
  return Attach(name, std::move(snapshot));
}

Status Database::Save(const std::string& name, const std::string& path) const {
  SnapshotPtr snap = snapshot(name);
  if (snap == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  return snap->Save(path);
}

Status Database::Swap(const std::string& name, SnapshotPtr snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("Database::Swap: null snapshot");
  }
  std::shared_ptr<const void> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = catalog_.find(name);
    if (it == catalog_.end()) {
      return Status::NotFound("corpus not attached: " + name);
    }
    // Published under the catalog lock (a session build is a couple of
    // small allocations), so a Detach or a publish-if-current check of
    // Reload, Ingest or Compact never interleaves with it. Queries in
    // flight are unaffected — each holds its own session reference.
    retired = it->second->UpdateSnapshot(std::move(snapshot));
  }
  // `retired` drops here, unlocked: if it was the last reference to the
  // old session, the corpus + relation teardown must not stall routing.
  return Status::OK();
}

Status Database::Reload(const std::string& name) {
  for (;;) {
    SnapshotPtr current = snapshot(name);
    if (current == nullptr) {
      return Status::NotFound("corpus not attached: " + name);
    }
    // The expensive rebuild runs unlocked, under the snapshot's own
    // options: a corpus attached with a non-default labeling keeps it
    // across reloads.
    LPATH_ASSIGN_OR_RETURN(SnapshotPtr rebuilt, current->Rebuild());
    std::shared_ptr<const void> retired;
    bool published = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = catalog_.find(name);
      if (it == catalog_.end()) {
        return Status::NotFound("corpus not attached: " + name);
      }
      // Publish only if the snapshot we rebuilt from is still current; a
      // Swap that landed during the (long) rebuild must not be silently
      // rolled back by a rebuild of its predecessor. On conflict, loop
      // and rebuild the newer snapshot instead.
      if (it->second->snapshot() == current) {
        retired = it->second->UpdateSnapshot(std::move(rebuilt));
        published = true;
      }
    }
    if (published) return Status::OK();
  }
}

Status Database::Ingest(const std::string& name, Corpus trees) {
  if (trees.empty()) {
    return Status::InvalidArgument("Database::Ingest: empty tree batch");
  }
  std::shared_ptr<std::mutex> ingest_mu = IngestMutexFor(name);
  if (ingest_mu == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  // One append to this corpus at a time: the read-append-publish sequence
  // below is not atomic on its own, and two concurrent appends reading the
  // same chain would each publish a chain missing the other's trees.
  std::lock_guard<std::mutex> ingest_lock(*ingest_mu);
  // Durable mode: the batch commits to the log (write + fsync) *before*
  // anything publishes, so success means "on disk", and any WAL failure
  // means the client never saw the trees — no publish, clean error. The
  // payload is the batch's bracketed text, serialized once up front; the
  // publish retry loop below never re-appends to the log.
  std::shared_ptr<Wal> wal = WalFor(name);
  uint64_t lsn = 0;
  uint64_t payload_bytes = 0;
  if (wal != nullptr) {
    const std::string payload = WriteBracketCorpus(trees);
    payload_bytes = payload.size();
    LPATH_ASSIGN_OR_RETURN(lsn, wal->Append(payload));
  }
  // Any failure after the WAL commit but before a publish: the record was
  // never acknowledged, so it must not resurrect on replay. Rollback
  // truncates it (best effort — under the ingest lock it is still the
  // log's latest record).
  const auto unpublished = [&](const Status& status) {
    if (wal != nullptr && lsn != 0) (void)wal->Rollback(lsn);
    return status;
  };
  SnapshotPtr appended;
  // Declared before the lock so the retired session (plan cache, possibly
  // the last reference to the old chain) drops unlocked, as in Swap.
  std::shared_ptr<const void> retired;
  for (;;) {
    SnapshotPtr current = snapshot(name);
    if (current == nullptr) {
      return unpublished(Status::NotFound("corpus not attached: " + name));
    }
    // O(batch): labels only the incoming trees, merges them onto the
    // delta, and shares the base relation untouched.
    Result<SnapshotPtr> appended_or = current->Append(trees);
    if (!appended_or.ok()) return unpublished(appended_or.status());
    appended = std::move(appended_or).value();
    bool published = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = catalog_.find(name);
      if (it == catalog_.end()) {
        return unpublished(
            Status::NotFound("corpus not attached: " + name));
      }
      // Publish only onto the chain we appended to: a Swap/Reload that
      // landed meanwhile must not be silently rolled back. On conflict,
      // re-append onto the newer snapshot (the ingest lock guarantees the
      // conflict was not another ingest).
      if (it->second->snapshot() == current) {
        retired = it->second->UpdateSnapshot(appended);
        it->second->NoteIngest();
        if (wal != nullptr) it->second->NoteWalAppend(payload_bytes);
        published = true;
      }
    }
    if (published) break;
  }
  const int32_t threshold = options_.compact_delta_trees;
  if (threshold > 0 && appended->delta_tree_count() >= threshold) {
    ScheduleCompaction(name);
  }
  return Status::OK();
}

Status Database::Compact(const std::string& name) {
  return CompactInternal(name);
}

Status Database::CompactInternal(const std::string& name) {
  const std::shared_ptr<service::QueryService> owner = Resolve(name);
  const Status status = CompactOnce(name);
  // Record the outcome for List()/monitoring — from both entry points, so
  // a synchronous Compact() failure is just as visible as a background
  // one. Failures accumulate; a clean compaction clears only the error
  // text (the count keeps witnessing that something went wrong before).
  // Nothing is recorded once the corpus compacted here is gone (NotFound,
  // or detached while compacting): Detach purged its health, and writing
  // would resurrect the entry and smear it onto a later attach under the
  // same name. Detach drops the catalog entry before it takes compact_mu_
  // to purge, so checking the catalog under compact_mu_ closes the race.
  if (!status.IsNotFound()) {
    std::lock_guard<std::mutex> lock(compact_mu_);
    if (owner == nullptr || Resolve(name) != owner) return status;
    CompactHealth& health = compact_health_[name];
    if (status.ok()) {
      health.last_error.clear();
    } else {
      health.failures += 1;
      health.last_error = status.message();
    }
  }
  return status;
}

Status Database::CompactOnce(const std::string& name) {
  std::shared_ptr<std::mutex> ingest_mu = IngestMutexFor(name);
  if (ingest_mu == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  // Holding the ingest lock across the merge means no append can extend
  // the chain we are folding — so "publish if still current" below only
  // ever loses to an explicit Swap/Reload, in which case the compacted
  // snapshot is stale and dropping it is correct. It also freezes the WAL
  // position: every committed record is ≤ last_lsn() here, so the stamp
  // written into the image is exactly what the merged relation covers.
  std::lock_guard<std::mutex> ingest_lock(*ingest_mu);
  SnapshotPtr current = snapshot(name);
  if (current == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  if (!current->has_delta()) return Status::OK();
  std::shared_ptr<Wal> wal = WalFor(name);
  ImageSaveOptions save_options;
  if (wal != nullptr) save_options.wal_lsn = wal->last_lsn();
  LPATH_ASSIGN_OR_RETURN(SnapshotPtr compacted,
                         current->Compact(save_options));
  const bool image_backed = compacted->image_backed();
  // Clear the recorded error before the compacted snapshot becomes
  // visible: List() reads snapshots before health, so a reader that sees
  // the delta gone also sees the error gone (CompactInternal records the
  // outcome only after this returns).
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    if (auto it = compact_health_.find(name); it != compact_health_.end()) {
      it->second.last_error.clear();
    }
  }
  bool published = false;
  std::shared_ptr<service::QueryService> service;
  std::shared_ptr<const void> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = catalog_.find(name);
    if (it == catalog_.end()) {
      return Status::NotFound("corpus not attached: " + name);
    }
    if (it->second->snapshot() == current) {
      service = it->second;
      retired = it->second->UpdateSnapshot(std::move(compacted));
      it->second->NoteCompaction();
      published = true;
    }
  }
  // Checkpoint only after the compacted snapshot is both durable (the
  // rewritten image carries the stamp) and published: everything the log
  // held up to the stamp now lives in the image, so those segments can
  // go. Memory-backed corpora never checkpoint — their base is not
  // persistent, and recovery needs the full log over the original file. A
  // failed checkpoint is reported (and retried by the next compaction)
  // but loses nothing: replay filters by the image's stamp either way.
  if (published && image_backed && wal != nullptr) {
    LPATH_RETURN_IF_ERROR(wal->Checkpoint(save_options.wal_lsn));
    service->NoteCheckpoint();
  }
  // `retired` (possibly the last reference to the pre-compaction chain)
  // drops here, unlocked.
  return Status::OK();
}

void Database::ScheduleCompaction(const std::string& name) {
  std::lock_guard<std::mutex> lock(compact_mu_);
  if (compact_stop_) return;
  const bool queued =
      std::any_of(compact_queue_.begin(), compact_queue_.end(),
                  [&](const CompactTask& t) { return t.name == name; });
  if (!queued) {
    compact_queue_.push_back(
        CompactTask{name, 0, std::chrono::steady_clock::now()});
  }
  if (!compactor_.joinable()) {
    compactor_ = std::thread([this] { CompactorLoop(); });
  }
  compact_cv_.notify_one();
}

void Database::CompactorLoop() {
  std::unique_lock<std::mutex> lock(compact_mu_);
  for (;;) {
    compact_cv_.wait(
        lock, [this] { return compact_stop_ || !compact_queue_.empty(); });
    if (compact_stop_) return;
    // Run the earliest-due task; if even that one is still backing off,
    // sleep until it is due (re-checking on wakeup — a stop or a fresh
    // task may land meanwhile).
    auto next = std::min_element(
        compact_queue_.begin(), compact_queue_.end(),
        [](const CompactTask& a, const CompactTask& b) {
          return a.ready < b.ready;
        });
    if (next->ready > std::chrono::steady_clock::now()) {
      compact_cv_.wait_until(lock, next->ready);
      continue;
    }
    CompactTask task = std::move(*next);
    compact_queue_.erase(next);
    lock.unlock();
    const Status status = CompactInternal(task.name);
    lock.lock();
    // Transient failures retry with doubling backoff up to the attempt
    // cap (already counted in compact_health_ by CompactInternal);
    // NotFound means detached — nothing left to compact.
    if (!status.ok() && !status.IsNotFound() && !compact_stop_ &&
        task.attempt + 1 < kMaxCompactAttempts) {
      const bool queued = std::any_of(
          compact_queue_.begin(), compact_queue_.end(),
          [&](const CompactTask& t) { return t.name == task.name; });
      if (!queued) {
        compact_queue_.push_back(CompactTask{
            std::move(task.name), task.attempt + 1,
            std::chrono::steady_clock::now() + CompactBackoff(task.attempt)});
      }
    }
  }
}

std::shared_ptr<std::mutex> Database::IngestMutexFor(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (catalog_.count(name) == 0) return nullptr;
  std::shared_ptr<std::mutex>& slot = ingest_mu_[name];
  if (slot == nullptr) slot = std::make_shared<std::mutex>();
  return slot;
}

std::shared_ptr<Wal> Database::WalFor(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = wal_.find(name);
  return it == wal_.end() ? nullptr : it->second;
}

Status Database::Detach(const std::string& name) {
  std::shared_ptr<service::QueryService> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = catalog_.find(name);
    if (it == catalog_.end()) {
      return Status::NotFound("corpus not attached: " + name);
    }
    victim = std::move(it->second);
    catalog_.erase(it);
    // The lock entry goes too (an in-flight Ingest holding the shared_ptr
    // keeps its mutex alive; it will fail NotFound at the publish step —
    // and roll its WAL record back through its own shared handle).
    ingest_mu_.erase(name);
    wal_.erase(name);
  }
  {
    // Purge the compactor's state for the name: a queued task would only
    // churn to NotFound (or worse, compact an unrelated corpus attached
    // later under the same name), and stale health must not smear onto
    // that successor.
    std::lock_guard<std::mutex> lock(compact_mu_);
    compact_queue_.erase(
        std::remove_if(compact_queue_.begin(), compact_queue_.end(),
                       [&](const CompactTask& t) { return t.name == name; }),
        compact_queue_.end());
    compact_health_.erase(name);
  }
  // `victim` drops here, outside the lock: if this was the last reference
  // the pool joins now, without stalling the catalog.
  return Status::OK();
}

bool Database::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.count(name) > 0;
}

std::vector<std::string> Database::CorpusNames() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(catalog_.size());
    for (const auto& [name, service] : catalog_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<CorpusInfo> Database::List() const {
  struct Row {
    std::string name;
    std::shared_ptr<service::QueryService> service;
    std::shared_ptr<Wal> wal;
    SnapshotPtr snap;
  };
  std::vector<Row> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(catalog_.size());
    for (const auto& [name, service] : catalog_) {
      auto wal_it = wal_.find(name);
      rows.push_back(Row{name, service,
                         wal_it == wal_.end() ? nullptr : wal_it->second,
                         nullptr});
    }
  }
  // Snapshots before health: CompactOnce clears the error before it
  // publishes, so a listed delta-free snapshot never pairs with the error
  // its compaction cleared.
  for (Row& row : rows) row.snap = row.service->snapshot();
  std::unordered_map<std::string, CompactHealth> health;
  {
    std::lock_guard<std::mutex> lock(compact_mu_);
    health = compact_health_;
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.name < b.name; });
  std::vector<CorpusInfo> out;
  out.reserve(rows.size());
  for (const Row& row : rows) {
    const SnapshotPtr& snap = row.snap;
    CorpusInfo info;
    info.name = row.name;
    info.snapshot_id = snap->id();
    // Counted from the relations, not the corpus: an image-backed snapshot
    // serves mapped columns over a tree-less corpus. Chain-wide — the
    // unmerged delta's trees and rows are part of the corpus.
    info.trees = static_cast<size_t>(snap->tree_count());
    info.nodes = snap->element_count();
    info.relation_bytes = snap->relation().MemoryBytes();
    if (snap->has_delta()) {
      info.relation_bytes += snap->delta_relation()->MemoryBytes();
    }
    info.delta_trees = static_cast<size_t>(snap->delta_tree_count());
    info.threads = row.service->threads();
    if (row.wal != nullptr) {
      const WalStats wal_stats = row.wal->stats();
      info.wal = true;
      info.wal_last_lsn = wal_stats.last_lsn;
      info.wal_segments = wal_stats.segments;
    }
    if (auto it = health.find(row.name); it != health.end()) {
      info.compaction_failures = it->second.failures;
      info.last_compaction_error = it->second.last_error;
    }
    out.push_back(std::move(info));
  }
  return out;
}

SnapshotPtr Database::snapshot(const std::string& name) const {
  std::shared_ptr<service::QueryService> service = Resolve(name);
  return service == nullptr ? nullptr : service->snapshot();
}

std::shared_ptr<service::QueryService> Database::service(
    const std::string& name) const {
  return Resolve(name);
}

Result<QueryResult> Database::Query(const std::string& name,
                                    const std::string& query) {
  std::shared_ptr<service::QueryService> service = Resolve(name);
  if (service == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  return service->Query(query);
}

Result<service::PendingQuery> Database::Submit(const std::string& name,
                                               const std::string& query,
                                               service::RowSink sink,
                                               service::SubmitOptions opts) {
  std::shared_ptr<service::QueryService> service = Resolve(name);
  if (service == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  return service->Submit(query, std::move(sink), std::move(opts));
}

std::shared_ptr<service::QueryService> Database::Resolve(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : it->second;
}

}  // namespace db
}  // namespace lpath
