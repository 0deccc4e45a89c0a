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
  if (snapshot == nullptr) {
    return Status::InvalidArgument("Database::Attach: null snapshot");
  }
  return AttachBuilt(name, [&]() -> Result<SnapshotPtr> { return snapshot; });
}

Status Database::OpenCorpus(const std::string& name, Corpus corpus) {
  return AttachBuilt(
      name, [&] { return CorpusSnapshot::Build(std::move(corpus)); });
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
  return AttachBuilt(name, [&] { return CorpusSnapshot::Open(path); });
}

Status Database::AttachBuilt(
    const std::string& name,
    const std::function<Result<SnapshotPtr>()>& build) {
  if (name.empty()) {
    return Status::InvalidArgument("Database::Attach: empty corpus name");
  }
  // Fast-fail before the snapshot build, the log replay and the pool
  // build; the insert below re-checks authoritatively for the racing case.
  if (Find(name) != nullptr) {
    return Status::AlreadyExists("corpus already attached: " + name);
  }
  LPATH_ASSIGN_OR_RETURN(SnapshotPtr snapshot, build());
  auto entry = std::make_shared<Entry>();
  entry->name = name;
  // Durable mode: open the corpus's sidecar log and fold every record the
  // snapshot does not already cover into the delta chain *before* the
  // corpus serves — an acknowledged pre-crash Ingest is visible to the
  // first post-crash query. All batches accumulate into one corpus and
  // re-enter through a single Append, so recovery is O(total replayed),
  // not O(batches * delta). A corrupt (non-torn) log is a clean error: the
  // corpus refuses to attach rather than silently serve a lossy middle.
  uint64_t replayed_batches = 0;
  if (!options_.wal_dir.empty()) {
    LPATH_ASSIGN_OR_RETURN(entry->wal,
                           Wal::Open(WalDirFor(options_.wal_dir, name)));
    // A checkpoint that emptied the log keeps its position in the fresh
    // log's header, but a lost or cleared log directory loses it. The
    // image's stamp is the floor: without it, new appends could reuse
    // covered LSNs and be silently filtered on the next replay.
    entry->wal->EnsureNextLsnAbove(snapshot->base_wal_lsn());
    Corpus pending;
    LPATH_RETURN_IF_ERROR(entry->wal->Replay(
        snapshot->base_wal_lsn(),
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
  entry->service =
      std::make_shared<service::QueryService>(snapshot, options_.service);
  if (replayed_batches > 0) entry->service->NoteReplay(replayed_batches);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (catalog_.emplace(name, entry).second) return Status::OK();
  }
  return Status::AlreadyExists("corpus already attached: " + name);
}

Status Database::Save(const std::string& name, const std::string& path) const {
  SnapshotPtr snap = snapshot(name);
  if (snap == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  return snap->Save(path);
}

Result<bool> Database::Publish(const Entry& entry, const SnapshotPtr& expected,
                               SnapshotPtr next) {
  // Declared before the lock so the retired session (plan cache, possibly
  // the last reference to the old chain) drops unlocked: the corpus and
  // relation teardown must not stall routing.
  std::shared_ptr<const void> retired;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(entry.name);
  if (it == catalog_.end() || it->second.get() != &entry) {
    return Status::NotFound("corpus not attached: " + entry.name);
  }
  if (expected != nullptr && entry.service->snapshot() != expected) {
    return false;
  }
  retired = entry.service->UpdateSnapshot(std::move(next));
  return true;
}

Status Database::Swap(const std::string& name, SnapshotPtr snapshot) {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("Database::Swap: null snapshot");
  }
  const std::shared_ptr<Entry> entry = Find(name);
  if (entry == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  // Unconditional: a swap replaces whatever the corpus serves.
  return Publish(*entry, nullptr, std::move(snapshot)).status();
}

Status Database::Reload(const std::string& name) {
  for (;;) {
    const std::shared_ptr<Entry> entry = Find(name);
    if (entry == nullptr) {
      return Status::NotFound("corpus not attached: " + name);
    }
    // The expensive rebuild runs unlocked, under the snapshot's own
    // options: a corpus attached with a non-default labeling keeps it
    // across reloads.
    const SnapshotPtr current = entry->service->snapshot();
    LPATH_ASSIGN_OR_RETURN(SnapshotPtr rebuilt, current->Rebuild());
    // Publish only if the snapshot we rebuilt from is still current; a
    // Swap that landed during the (long) rebuild must not be silently
    // rolled back by a rebuild of its predecessor. On conflict, loop and
    // rebuild the newer snapshot instead.
    LPATH_ASSIGN_OR_RETURN(const bool published,
                           Publish(*entry, current, std::move(rebuilt)));
    if (published) return Status::OK();
  }
}

Status Database::Ingest(const std::string& name, Corpus trees) {
  if (trees.empty()) {
    return Status::InvalidArgument("Database::Ingest: empty tree batch");
  }
  const std::shared_ptr<Entry> entry = Find(name);
  if (entry == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  // One append to this corpus at a time: the read-append-publish sequence
  // below is not atomic on its own, and two concurrent appends reading the
  // same chain would each publish a chain missing the other's trees.
  std::lock_guard<std::mutex> ingest_lock(entry->ingest_mu);
  // Durable mode: the batch commits to the log (write + fsync) *before*
  // anything publishes, so success means "on disk", and any WAL failure
  // means the client never saw the trees — no publish, clean error. The
  // payload is the batch's bracketed text, serialized once up front; the
  // publish retry loop below never re-appends to the log.
  Wal* const wal = entry->wal.get();
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
  for (;;) {
    const SnapshotPtr current = entry->service->snapshot();
    // O(batch): labels only the incoming trees, merges them onto the
    // delta, and shares the base relation untouched.
    Result<SnapshotPtr> appended_or = current->Append(trees);
    if (!appended_or.ok()) return unpublished(appended_or.status());
    appended = std::move(appended_or).value();
    // Publish only onto the chain we appended to: a Swap/Reload that
    // landed meanwhile must not be silently rolled back. On conflict,
    // re-append onto the newer snapshot (the ingest lock guarantees the
    // conflict was not another ingest).
    Result<bool> published = Publish(*entry, current, appended);
    if (!published.ok()) return unpublished(published.status());
    if (*published) break;
  }
  entry->service->NoteIngest();
  if (wal != nullptr) entry->service->NoteWalAppend(payload_bytes);
  const int32_t threshold = options_.compact_delta_trees;
  if (threshold > 0 && appended->delta_tree_count() >= threshold) {
    ScheduleCompaction(entry);
  }
  return Status::OK();
}

Status Database::Compact(const std::string& name) {
  const std::shared_ptr<Entry> entry = Find(name);
  if (entry == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  return CompactEntry(*entry);
}

Status Database::CompactEntry(Entry& entry) {
  // Record every outcome for List()/monitoring — from both entry points,
  // so a synchronous Compact() failure is just as visible as a background
  // one. Failures accumulate; a clean compaction clears only the error
  // text (the count keeps witnessing that something went wrong before).
  // Health lives in the entry, so a compaction that outlives a Detach
  // writes onto the detached entry, never onto a corpus re-attached under
  // the same name.
  const auto record = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(compact_mu_);
    if (status.ok()) {
      entry.last_compaction_error.clear();
    } else {
      entry.compaction_failures += 1;
      entry.last_compaction_error = status.message();
    }
    return status;
  };
  // Holding the ingest lock across the merge means no append can extend
  // the chain we are folding — so "publish if still current" below only
  // ever loses to an explicit Swap/Reload, in which case the compacted
  // snapshot is stale and dropping it is correct. It also freezes the WAL
  // position: every committed record is ≤ last_lsn() here, so the stamp
  // written into the image is exactly what the merged relation covers.
  std::lock_guard<std::mutex> ingest_lock(entry.ingest_mu);
  const SnapshotPtr current = entry.service->snapshot();
  if (!current->has_delta()) return record(Status::OK());
  ImageSaveOptions save_options;
  if (entry.wal != nullptr) save_options.wal_lsn = entry.wal->last_lsn();
  Result<SnapshotPtr> compacted = current->Compact(save_options);
  if (!compacted.ok()) return record(compacted.status());
  const bool image_backed = (*compacted)->image_backed();
  // Clear the recorded error before the compacted snapshot becomes
  // visible: List() reads snapshots before health, so a reader that sees
  // the delta gone also sees the error gone.
  record(Status::OK());
  LPATH_ASSIGN_OR_RETURN(
      const bool published,
      Publish(entry, current, std::move(compacted).value()));
  if (!published) return Status::OK();
  entry.service->NoteCompaction();
  // Checkpoint only after the compacted snapshot is both durable (the
  // rewritten image carries the stamp) and published: everything the log
  // held up to the stamp now lives in the image, so the log can be
  // emptied. Memory-backed corpora never checkpoint — their base is not
  // persistent, and recovery needs the full log over the original file. A
  // failed checkpoint is reported but loses nothing: the next append
  // writes a fresh log, and replay filters by the image's stamp either
  // way.
  if (image_backed && entry.wal != nullptr) {
    const Status checkpointed = entry.wal->Checkpoint(save_options.wal_lsn);
    if (!checkpointed.ok()) return record(checkpointed);
    entry.service->NoteCheckpoint();
  }
  return Status::OK();
}

void Database::ScheduleCompaction(const std::shared_ptr<Entry>& entry) {
  std::lock_guard<std::mutex> lock(compact_mu_);
  if (compact_stop_) return;
  if (!entry->compact_queued) {
    entry->compact_queued = true;
    compact_queue_.push_back(
        CompactTask{entry, 0, std::chrono::steady_clock::now()});
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
    const CompactTask task = std::move(*next);
    compact_queue_.erase(next);
    // Skip a detached corpus: its entry is gone, or is no longer the one
    // attached under its name (mu_ under compact_mu_ is the allowed order).
    // If Detach raced this task, the entry's last reference may drop under
    // compact_mu_; its teardown joins an idle pool and takes no lock here.
    const std::shared_ptr<Entry> entry = task.entry.lock();
    if (entry == nullptr || Find(entry->name) != entry) continue;
    entry->compact_queued = false;
    lock.unlock();
    const Status status = CompactEntry(*entry);
    lock.lock();
    // Transient failures retry with doubling backoff up to the attempt
    // cap (each already counted in the entry's health).
    if (!status.ok() && !compact_stop_ && !entry->compact_queued &&
        task.attempt + 1 < kMaxCompactAttempts) {
      entry->compact_queued = true;
      compact_queue_.push_back(CompactTask{
          task.entry, task.attempt + 1,
          std::chrono::steady_clock::now() + CompactBackoff(task.attempt)});
    }
  }
}

Status Database::Detach(const std::string& name) {
  std::shared_ptr<Entry> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = catalog_.find(name);
    if (it == catalog_.end()) {
      return Status::NotFound("corpus not attached: " + name);
    }
    victim = std::move(it->second);
    catalog_.erase(it);
  }
  // `victim` drops here, outside the lock: if this was the last reference
  // the pool joins now, without stalling the catalog. An operation in
  // flight keeps the entry (its ingest lock and WAL handle) alive and
  // fails NotFound at its publish step.
  return Status::OK();
}

bool Database::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::vector<std::string> Database::CorpusNames() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(catalog_.size());
    for (const auto& [name, entry] : catalog_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<CorpusInfo> Database::List() const {
  std::vector<std::shared_ptr<Entry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(catalog_.size());
    for (const auto& [name, entry] : catalog_) entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const std::shared_ptr<Entry>& a,
               const std::shared_ptr<Entry>& b) { return a->name < b->name; });
  std::vector<CorpusInfo> out;
  out.reserve(entries.size());
  for (const std::shared_ptr<Entry>& entry : entries) {
    // Snapshot before health: CompactEntry clears the error before it
    // publishes, so a listed delta-free snapshot never pairs with the
    // error its compaction cleared.
    const SnapshotPtr snap = entry->service->snapshot();
    CorpusInfo info;
    info.name = entry->name;
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
    info.threads = entry->service->threads();
    if (entry->wal != nullptr) {
      const WalStats wal_stats = entry->wal->stats();
      info.wal = true;
      info.wal_last_lsn = wal_stats.last_lsn;
    }
    {
      std::lock_guard<std::mutex> lock(compact_mu_);
      info.compaction_failures = entry->compaction_failures;
      info.last_compaction_error = entry->last_compaction_error;
    }
    out.push_back(std::move(info));
  }
  return out;
}

SnapshotPtr Database::snapshot(const std::string& name) const {
  std::shared_ptr<service::QueryService> service = this->service(name);
  return service == nullptr ? nullptr : service->snapshot();
}

std::shared_ptr<service::QueryService> Database::service(
    const std::string& name) const {
  const std::shared_ptr<Entry> entry = Find(name);
  return entry == nullptr ? nullptr : entry->service;
}

Result<QueryResult> Database::Query(const std::string& name,
                                    const std::string& query) {
  std::shared_ptr<service::QueryService> service = this->service(name);
  if (service == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  return service->Query(query);
}

Result<service::PendingQuery> Database::Submit(const std::string& name,
                                               const std::string& query,
                                               service::RowSink sink,
                                               service::SubmitOptions opts) {
  std::shared_ptr<service::QueryService> service = this->service(name);
  if (service == nullptr) {
    return Status::NotFound("corpus not attached: " + name);
  }
  return service->Submit(query, std::move(sink), std::move(opts));
}

std::shared_ptr<Database::Entry> Database::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  return it == catalog_.end() ? nullptr : it->second;
}

}  // namespace db
}  // namespace lpath
