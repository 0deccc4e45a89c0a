// QueryService: the multi-user serving layer over one corpus snapshot.
//
// The paper's pitch is that LPath compiles to something an RDBMS evaluates
// correctly and fast; this module supplies the "many clients" shape around
// that claim. A service owns
//   - a *session*: an immutable (snapshot, sources, plan cache) triple
//     published through one atomic pointer. Its sources are one executor
//     per relation of the snapshot chain (the base, plus the delta). UpdateSnapshot() builds a fresh
//     session and swaps the pointer — a hot swap that never blocks readers:
//     queries in flight keep the old session (and through it the old corpus
//     and relation) alive via shared ownership, and new queries pick up the
//     new one. Prepared plans resolve symbols against one snapshot's
//     chain-wide dictionary, so each session gets its own cache, and one
//     plan serves every source;
//   - an LRU prepared-plan cache keyed on normalized query text (see
//     service/plan_cache.h) — so each distinct text is parsed, compiled and
//     optimized once, and *negative* entries cache the error of a malformed
//     query instead of re-deriving it per submission;
//   - a fixed thread pool running morsel-driven parallel execution: the
//     scheduler carves the tree-id space into ~4×workers
//     row-balanced morsels (storage::NodeRelation::CarveTidRanges over the
//     per-tree row prefix sums, so a giant tree cannot serialize the whole
//     query the way an even-by-tid split does on skewed corpora), workers
//     pull morsels from a shared atomic claim cursor (work stealing for
//     free — a worker stuck on a long morsel simply stops claiming while
//     the others drain the rest), and sql::PlanExecutor::ExecuteShard is
//     the per-morsel kernel, which returns its sorted DISTINCT (tid,id)
//     rows. Every compiled step is tid-linked to its context, so a morsel
//     that clamps the root variable's trees clamps the output rows too:
//     morsel results are pairwise disjoint, and the merge is a plain
//     concatenation in (source, tid) order with no hashing and no
//     re-sort. Morsels share nothing but the read-only plan and relation:
//     each runs its EXISTS subqueries itself. Fan-out is adaptive: a
//     query whose root-variable cardinality estimate is tiny runs as one
//     morsel on the caller's thread instead. The decisions are visible as
//     ExecStats::shards / ::morsels / ::steal_count;
//   - aggregated executor work counters and a latency reservoir with
//     percentile summaries.
//
// Two entry points, both safe to call concurrently from many threads:
//   Query()   synchronous; returns the (source, tid)-ordered result.
//   Submit()  asynchronous; returns a future-like PendingQuery handle. With
//             a sink, each morsel's rows go to the sink as the morsel
//             finishes and are then dropped: the handle resolves to an
//             empty result. Without one, it resolves to the full result.

#ifndef LPATHDB_SERVICE_QUERY_SERVICE_H_
#define LPATHDB_SERVICE_QUERY_SERVICE_H_

#include <array>
#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "lpath/engine.h"
#include "plan/exec_plan.h"
#include "service/plan_cache.h"
#include "service/thread_pool.h"
#include "sql/executor.h"
#include "storage/snapshot.h"

namespace lpath {
namespace service {

struct QueryServiceOptions {
  /// Worker threads; also the fan-out of one query, so a 1-thread
  /// service runs every query as one morsel.
  int threads = 4;
  /// Prepared plans kept by each session's LRU cache.
  size_t plan_cache_capacity = 256;
  sql::ExecOptions exec;
  /// Unnest positive predicates into the main join (see plan/compile.h).
  bool unnest_predicates = true;
  /// Adaptive sharding: a query whose root-variable cardinality estimate
  /// falls below this many rows runs serially — fanning a tiny query out
  /// costs more than it saves. Also sizes the smallest morsel the planner
  /// will carve (adaptive_serial_rows / 4 rows, 4 being the morsels
  /// carved per worker). 0 disables both heuristics (always fan out when
  /// the pool allows, carve down to single-tree morsels).
  size_t adaptive_serial_rows = 4096;
};

/// Latency percentiles over the most recent queries (milliseconds).
struct LatencySummary {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  size_t samples = 0;
};

struct ServiceStats {
  uint64_t queries = 0;  ///< completed evaluations (Query and Submit)
  uint64_t errors = 0;
  uint64_t sharded_queries = 0;  ///< executed with fan-out > 1
  uint64_t serial_queries = 0;   ///< executed serially (incl. adaptive picks)
  uint64_t ingests = 0;          ///< append-publications noted (NoteIngest)
  uint64_t compactions = 0;      ///< delta merges noted (NoteCompaction)
  uint64_t wal_appends = 0;      ///< durable-ingest WAL records committed
  uint64_t wal_bytes = 0;        ///< payload bytes of those records
  uint64_t replayed_batches = 0; ///< WAL batches recovered on attach/open
  uint64_t checkpoints = 0;      ///< WAL truncations after compaction
  PlanCache::Stats cache;        ///< current session's cache (reset by swap)
  sql::ExecStats exec;           ///< summed over all queries and shards
  LatencySummary latency;
  double total_seconds = 0.0;  ///< summed per-query wall time
};

/// Batches of result rows, one per non-empty morsel, delivered as morsels
/// complete. Each batch is internally sorted; batches are disjoint and
/// their union is the query's DISTINCT result. Invocations are serialized (never
/// concurrent), but may come from pool threads. A sink that throws fails
/// the query: the exception becomes its Status (std::bad_alloc
/// ResourceExhausted, anything else Internal), and other morsels' batches
/// may still arrive.
using RowSink = std::function<void(std::span<const Hit>)>;

/// Streaming-submission hooks for a front end with its own transport (see
/// src/net/): best-effort cancellation plus a completion callback.
struct SubmitOptions {
  /// Checked at source/morsel boundaries while the query executes: once it
  /// reads true, remaining work is skipped and the query resolves to
  /// Status::Cancelled. Rows already streamed stay streamed — cancellation
  /// truncates a stream, it does not roll it back. Null disables the check.
  std::shared_ptr<const std::atomic<bool>> cancel;
  /// Invoked exactly once, on the evaluating pool thread, after the final
  /// sink delivery (or the failure) — the wire protocol's STREAM_END
  /// trigger. The PendingQuery handle resolves after it returns.
  std::function<void(const Status&)> done;
};

/// Future-like handle to a query submitted with QueryService::Submit.
class PendingQuery {
 public:
  PendingQuery() = default;

  bool valid() const { return future_.valid(); }
  /// Non-blocking completion poll.
  bool ready() const;
  /// Blocks until the query completes; repeatable (shared state).
  Result<QueryResult> Get() const;

 private:
  friend class QueryService;
  explicit PendingQuery(std::shared_future<Result<QueryResult>> future)
      : future_(std::move(future)) {}

  std::shared_future<Result<QueryResult>> future_;
};

class QueryService {
 public:
  /// Serves queries against `snapshot` (must be non-null). The service
  /// shares ownership: callers may drop their reference immediately.
  explicit QueryService(SnapshotPtr snapshot, QueryServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Atomically publishes a new snapshot (with a fresh plan cache).
  /// Queries in flight keep the old snapshot alive, never block on the
  /// publication and never observe a torn state; queries starting after
  /// the exchange see the new one. `snapshot` must be non-null.
  ///
  /// Returns an opaque keep-alive for the replaced session: if the caller
  /// holds a lock, it should drop the handle only after unlocking —
  /// releasing the last reference may tear down a whole corpus + relation.
  std::shared_ptr<const void> UpdateSnapshot(SnapshotPtr snapshot);

  /// The currently published snapshot.
  SnapshotPtr snapshot() const;

  /// Evaluates one LPath query, fanning its execution out across the pool
  /// (unless the adaptive heuristic picks serial).
  Result<QueryResult> Query(const std::string& query);

  /// Submits a query for asynchronous evaluation on the pool. A non-null
  /// `sink` takes the rows as morsels complete (see RowSink for the
  /// delivery contract) and the handle then resolves to an empty result
  /// after the final batch was delivered; rows may have been delivered
  /// even when the final status is an error (a late morsel can fail after
  /// earlier ones streamed). Without a sink the handle resolves to the
  /// full result. `opts.cancel` aborts the execution at the next
  /// morsel/source boundary, `opts.done` fires after the final delivery
  /// with the query's terminal status.
  PendingQuery Submit(const std::string& query, RowSink sink = {},
                      SubmitOptions opts = {});

  /// Parses/compiles/optimizes `query` into the current session's plan
  /// cache (or returns the cached plan). Exposed for warmup and for plan
  /// introspection.
  Result<std::shared_ptr<const sql::PreparedPlan>> GetPlan(
      const std::string& query);

  ServiceStats Stats() const;
  void ResetStats();

  /// Ingestion observability: the publisher (db::Database::Ingest /
  /// ::Compact, or any caller driving UpdateSnapshot with a chain) ticks
  /// these after the swap so :stats / monitoring see live-corpus traffic.
  void NoteIngest();
  void NoteCompaction();
  /// Durability observability, same publisher contract: one WAL commit of
  /// `payload_bytes`, `batches` records replayed on an attach, one
  /// post-compaction checkpoint.
  void NoteWalAppend(uint64_t payload_bytes);
  void NoteReplay(uint64_t batches);
  void NoteCheckpoint();

  int threads() const { return pool_->size(); }
  const QueryServiceOptions& options() const { return options_; }

 private:
  /// Everything one query needs, bundled so a hot swap replaces it as a
  /// unit: plans in `cache` resolve symbols against exactly `snapshot`'s
  /// chain-wide dictionary, and the session owns the snapshot that pins
  /// every source's relation.
  struct Session {
    /// One relation of the chain. Hits from a source are shifted by
    /// `tid_offset` into the chain tid space before they are streamed or
    /// merged, so the sources' rows never collide and the delta's sort
    /// after the base's.
    struct Source {
      sql::PlanExecutor executor;
      int32_t tid_offset;  ///< added to every hit tid (0 for the base)
    };

    SnapshotPtr snapshot;
    /// The base, then the delta when the snapshot is a chain.
    std::vector<Source> sources;
    mutable PlanCache cache;

    Session(SnapshotPtr snap, const QueryServiceOptions& options);
  };
  using SessionPtr = std::shared_ptr<const Session>;

  /// Plan lookup returning the shared cache entry; the entry is always
  /// positive — errors surface as the Status. A miss compiles and prepares
  /// under its text's stripe of prepare_mu_ and publishes via Put.
  Result<CachedPlanPtr> GetPlanIn(const Session& session,
                                  const std::string& query);
  /// Parse + compile of normalized text, then one sql::Prepare: literals
  /// resolve in the chain-wide dictionary, statistics come from the base.
  Result<CachedPlan> PrepareText(const Session& session,
                                 const std::string& normalized);
  /// The morsel runner: carves the session's sources into tid-range
  /// morsels and runs the one plan over them on the pool threads, the
  /// caller included. Serial execution is its one-morsel case: each
  /// source runs whole on the caller's thread — picked for a 1-thread
  /// pool, for a tiny root estimate (adaptive_serial_rows), or for a plan
  /// whose output is not tied to its root's tree
  /// (sql::PreparedPlan::OutputTiedToRoot).
  /// Morsel outputs are sorted and pairwise disjoint: with a `sink`, each
  /// goes to the sink as it finishes and is dropped, and the result is
  /// empty; without one, the result is their concatenation in (source,
  /// tid) order. `cancel` (nullable) is polled per morsel: set mid-flight,
  /// the remaining morsels are skipped and the query resolves to Cancelled.
  Result<QueryResult> RunMorsels(const Session& session, CachedPlanPtr planned,
                                 const RowSink* sink,
                                 const std::atomic<bool>* cancel);
  Result<QueryResult> QueryOnce(const std::string& query, const RowSink* sink,
                                const std::atomic<bool>* cancel);
  /// Records one completed query and its wall-clock time.
  void RecordQuery(double seconds, bool error);
  /// Runs fn(0..items-1, worker) across the pool: helper tasks are bulk-
  /// posted for the other pool workers while the calling thread (worker 0)
  /// drains the same claim counter, and the call returns once every item
  /// has finished. The shared counter is the morsel cursor: whichever
  /// worker is free claims the next item, so skew balances itself and a
  /// saturated pool degrades to serial execution instead of deadlocking.
  /// Called only with at least two items and at least two pool threads.
  void RunOnPool(int items, std::function<void(int, int)> fn);
  void RecordExec(const sql::ExecStats& exec, bool sharded);

  SessionPtr CurrentSession() const;

  const QueryServiceOptions options_;

  /// The one swap point. Readers copy the shared_ptr under a mutex held
  /// only for the pointer copy itself (tens of nanoseconds); UpdateSnapshot
  /// exchanges it and releases the old session outside the critical
  /// section. A query in flight holds its own session reference, so a swap
  /// never blocks it and it never observes a torn state.
  ///
  /// Not std::atomic<shared_ptr>: libstdc++'s _Sp_atomic unlocks its
  /// embedded spinlock with a relaxed RMW on the load path, which leaves
  /// the internal pointer read formally unordered against a concurrent
  /// store — ThreadSanitizer (correctly, per the model) reports it. The
  /// micro critical section has the same publication semantics and is
  /// provably clean under the tsan hot-swap hammer.
  mutable std::mutex session_mu_;
  SessionPtr session_;

  /// Cache misses prepare under the stripe of their normalized text (see
  /// GetPlanIn), so one text is prepared once however many clients miss
  /// it at the same time.
  std::array<std::mutex, 16> prepare_mu_;

  mutable std::mutex stats_mu_;
  uint64_t queries_ = 0;
  uint64_t errors_ = 0;
  uint64_t sharded_queries_ = 0;
  uint64_t serial_queries_ = 0;
  uint64_t ingests_ = 0;
  uint64_t compactions_ = 0;
  uint64_t wal_appends_ = 0;
  uint64_t wal_bytes_ = 0;
  uint64_t replayed_batches_ = 0;
  uint64_t checkpoints_ = 0;
  sql::ExecStats exec_;
  double total_seconds_ = 0.0;
  std::vector<double> latency_ring_ms_;  // bounded reservoir of recent queries
  size_t next_sample_ = 0;

  // Last member: its destructor drains and joins the workers while
  // everything the in-flight tasks touch (session_, stats) is still alive.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace service
}  // namespace lpath

#endif  // LPATHDB_SERVICE_QUERY_SERVICE_H_
