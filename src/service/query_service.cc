#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <limits>
#include <new>
#include <utility>

#include "common/timer.h"
#include "lpath/parser.h"
#include "plan/compile.h"

namespace lpath {
namespace service {

namespace {

/// Recent-query latencies kept for the percentile summary.
constexpr size_t kLatencySamples = 8192;

/// Morsels carved per worker. Over-decomposition is what makes the shared
/// claim cursor balance skew: with ~4 morsels per worker, a worker that
/// lands on a giant tree holds one morsel while the others pull the
/// remaining 4w-1. 1 would degenerate to static even-row shards.
constexpr int kMorselsPerThread = 4;

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// The Status for the exception being handled. Library code reports errors
/// through Status, but an allocation, a caller's sink or a caller's hook
/// may still throw; a query turns that into its result instead of letting
/// it escape a pool thread.
Status CurrentExceptionStatus() {
  try {
    throw;
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("out of memory while running the query");
  } catch (const std::exception& e) {
    return Status::Internal(std::string("exception while running the query: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("unknown exception while running the query");
  }
}

/// Rebases a source's hits into the chain tid space. Must happen before the
/// hits reach a sink or the merged result: delta tree 0 and base tree 0 are
/// different trees.
void ShiftTids(std::vector<Hit>& hits, int32_t offset) {
  if (offset == 0) return;
  for (Hit& h : hits) h.tid += offset;
}

}  // namespace

bool PendingQuery::ready() const {
  return future_.valid() &&
         future_.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
}

Result<QueryResult> PendingQuery::Get() const {
  if (!future_.valid()) {
    return Status::InvalidArgument("PendingQuery: empty handle");
  }
  return future_.get();
}

QueryService::Session::Session(SnapshotPtr snap,
                               const QueryServiceOptions& options)
    : snapshot(std::move(snap)), cache(options.plan_cache_capacity) {
  sources.reserve(2);
  sources.push_back(
      Source{sql::PlanExecutor(snapshot->relation(), options.exec), 0});
  if (const NodeRelation* delta = snapshot->delta_relation()) {
    sources.push_back(Source{sql::PlanExecutor(*delta, options.exec),
                             snapshot->base_tree_count()});
  }
}

QueryService::QueryService(SnapshotPtr snapshot, QueryServiceOptions options)
    : options_(options),
      session_(std::make_shared<const Session>(std::move(snapshot), options_)),
      pool_(std::make_unique<ThreadPool>(options.threads)) {
  latency_ring_ms_.reserve(kLatencySamples);
}

QueryService::~QueryService() = default;

QueryService::SessionPtr QueryService::CurrentSession() const {
  std::lock_guard<std::mutex> lock(session_mu_);
  return session_;
}

std::shared_ptr<const void> QueryService::UpdateSnapshot(SnapshotPtr snapshot) {
  // Building the session (executor + empty cache) happens before the
  // exchange; the exchange is the single publication point. Readers that
  // loaded the old session keep it alive through their own shared_ptr; the
  // old session goes back to the caller so its last reference (possibly
  // the teardown of a whole snapshot) is never dropped under session_mu_
  // — nor under whatever lock the caller holds.
  auto next = std::make_shared<const Session>(std::move(snapshot), options_);
  SessionPtr old;
  {
    std::lock_guard<std::mutex> lock(session_mu_);
    old = std::exchange(session_, std::move(next));
  }
  return old;
}

SnapshotPtr QueryService::snapshot() const { return CurrentSession()->snapshot; }

Result<CachedPlan> QueryService::PrepareText(const Session& session,
                                             const std::string& normalized) {
  const NodeRelation& relation = session.snapshot->relation();
  LPATH_ASSIGN_OR_RETURN(LocationPath path, ParseLPath(normalized));
  CompileOptions copts;
  copts.scheme = relation.scheme();
  copts.unnest_predicates = options_.unnest_predicates;
  LPATH_ASSIGN_OR_RETURN(ExecPlan compiled, CompileLPath(path, copts));
  // One plan for every source: the chain-wide dictionary is an overlay on
  // the base's, so an id means the same string in base and delta rows. A
  // literal only the delta knows resolves to an id the base lacks, and the
  // base's run and value-index lookups return nothing for it.
  LPATH_ASSIGN_OR_RETURN(
      std::unique_ptr<sql::PreparedPlan> prepared,
      sql::Prepare(compiled, relation, options_.exec,
                   &session.snapshot->interner()));
  CachedPlan entry;
  entry.plan = std::move(prepared);
  return entry;
}

Result<CachedPlanPtr> QueryService::GetPlanIn(const Session& session,
                                              const std::string& query) {
  const std::string key = NormalizeQueryText(query);
  CachedPlanPtr cached = session.cache.Get(key);
  if (cached == nullptr) {
    // Resolve under the text's stripe, so another client's racing miss of
    // the same text waits and then finds the entry published here instead
    // of preparing it again. The re-probe counts nothing: this query
    // already counted its miss.
    std::lock_guard<std::mutex> stripe(
        prepare_mu_[std::hash<std::string>{}(key) % prepare_mu_.size()]);
    cached = session.cache.Get(key, /*count=*/false);
    if (cached == nullptr) {
      Result<CachedPlan> prepared = PrepareText(session, key);
      if (!prepared.ok()) {
        // Negative entry: the same bad text will be answered from the cache.
        session.cache.PutNegative(key, prepared.status());
        return prepared.status();
      }
      cached = session.cache.Put(
          key, std::make_shared<const CachedPlan>(std::move(*prepared)));
    }
  }
  if (cached->negative()) return cached->error;
  return cached;
}

Result<std::shared_ptr<const sql::PreparedPlan>> QueryService::GetPlan(
    const std::string& query) {
  SessionPtr session = CurrentSession();
  LPATH_ASSIGN_OR_RETURN(CachedPlanPtr planned, GetPlanIn(*session, query));
  return planned->plan;
}

Result<QueryResult> QueryService::RunMorsels(const Session& session,
                                             CachedPlanPtr planned,
                                             const RowSink* sink,
                                             const std::atomic<bool>* cancel) {
  const sql::PreparedPlan& plan = *planned->plan;
  const int nsources = static_cast<int>(session.sources.size());
  const uint64_t base_rows = session.snapshot->relation().row_count();
  uint64_t chain_rows = 0;
  for (const Session::Source& src : session.sources) {
    chain_rows += src.executor.relation().row_count();
  }
  // Adaptive fan-out: when the optimizer expects the root variable to
  // enumerate only a handful of rows, the per-morsel setup (task posts,
  // binary-searched run cuts, result merge) costs more than it parallelizes.
  // The estimate comes from base statistics, so on a chain it is scaled by
  // chain rows / base rows. A plan whose output rows are not clamped by the
  // root's tid range would need a DISTINCT merge across morsels, so it runs
  // as one morsel instead.
  const uint64_t root_estimate =
      plan.root_cardinality * chain_rows / std::max<uint64_t>(1, base_rows);
  const int workers = pool_->size();
  bool serial = plan.always_empty || workers <= 1 || !plan.OutputTiedToRoot();
  if (!serial && options_.adaptive_serial_rows > 0 &&
      root_estimate < options_.adaptive_serial_rows) {
    serial = true;
  }
  // Morsel planning: ~kMorselsPerThread row-balanced tid slices per
  // worker, pulled from a shared claim cursor below. Over-decomposition is
  // the skew defence — a giant tree occupies one worker for one morsel
  // while the others drain the rest — and the minimum morsel size keeps
  // the per-morsel overhead amortized. On a chain, the budget is split
  // across sources proportionally to their row mass (every source gets at
  // least one morsel), so a small delta costs one extra morsel
  // instead of doubling the fan-out.
  struct Morsel {
    int source;
    TidRange range;
  };
  std::vector<Morsel> morsels;
  if (!serial) {
    const uint64_t min_rows =
        std::max<uint64_t>(1, options_.adaptive_serial_rows / kMorselsPerThread);
    const uint64_t budget = static_cast<uint64_t>(workers * kMorselsPerThread);
    for (int s = 0; s < nsources; ++s) {
      const NodeRelation& relation = session.sources[s].executor.relation();
      const int share = std::max<int>(
          1, static_cast<int>(budget * relation.row_count() /
                              std::max<uint64_t>(1, chain_rows)));
      for (const TidRange& r : relation.CarveTidRanges(share, min_rows)) {
        morsels.push_back(Morsel{s, r});
      }
    }
    if (morsels.size() <= 1) serial = true;
  }
  if (serial) {
    // The one-morsel case: every source runs whole, in order, on the
    // caller's thread.
    morsels.clear();
    for (int s = 0; s < nsources; ++s) {
      morsels.push_back(
          Morsel{s, TidRange{0, std::numeric_limits<int32_t>::max(), 0}});
    }
  }

  const int count = static_cast<int>(morsels.size());
  std::vector<Result<QueryResult>> results(count,
                                           Result<QueryResult>(QueryResult{}));
  std::vector<sql::ExecStats> stats(count);
  std::atomic<uint64_t> steals{0};
  std::mutex sink_mu;  // serializes sink calls
  // The item lambda owns the cache entry (the shared_ptr is copied into
  // RunOnPool's shared state), keeping its plan alive for helpers
  // scheduled after the query completes. The locals and the session
  // (`morsels`, `results`, ...) are captured by reference: a
  // late helper never claims an item, so it never dereferences them after
  // this frame returns.
  auto run = [planned, &session, &morsels, &results, &stats, &steals,
              &sink_mu, sink, cancel](int i, int worker) {
    // A cancelled query skips its remaining morsels (their result slots
    // keep the empty default); the terminal status is derived below.
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return;
    if (worker > 0) steals.fetch_add(1, std::memory_order_relaxed);
    // A throw (an allocation, the sink) becomes this morsel's error: it
    // must not escape a pool worker, nor unwind this frame while helpers
    // still run morsels over its locals.
    try {
      const Morsel& m = morsels[i];
      const Session::Source& src = session.sources[m.source];
      results[i] = src.executor.ExecuteShard(*planned->plan, m.range.tid_lo,
                                             m.range.tid_hi, &stats[i]);
      if (src.tid_offset != 0) {
        stats[i].delta_rows = stats[i].candidates;
        if (results[i].ok()) ShiftTids(results[i]->hits, src.tid_offset);
      }
      // Tid-disjoint morsels, sources rebased into disjoint tid ranges: the
      // sorted output goes to the sink as it is, and the sink keeps it.
      if (sink != nullptr && results[i].ok()) {
        if (!results[i]->hits.empty()) {
          std::lock_guard<std::mutex> lock(sink_mu);
          (*sink)(std::span<const Hit>(results[i]->hits));
        }
        results[i]->hits = {};
      }
    } catch (...) {
      results[i] = CurrentExceptionStatus();
    }
  };
  if (serial) {
    for (int i = 0; i < count; ++i) run(i, /*worker=*/0);
  } else {
    RunOnPool(count, run);
  }

  sql::ExecStats total;
  for (int i = 0; i < count; ++i) total.Add(stats[i]);
  total.morsels += serial ? 1 : static_cast<uint64_t>(count);
  total.steal_count += steals.load(std::memory_order_relaxed);
  total.sources = static_cast<uint64_t>(nsources);
  RecordExec(total, /*sharded=*/!serial);
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled("query cancelled");
  }
  // Morsels are in (source, tid) order, so their concatenation is the
  // sorted DISTINCT result.
  size_t rows = 0;
  for (int i = 0; i < count; ++i) {
    if (!results[i].ok()) return results[i].status();
    rows += results[i]->hits.size();
  }
  if (sink != nullptr) return QueryResult{};
  QueryResult merged = std::move(results[0]).value();
  merged.hits.reserve(rows);
  for (int i = 1; i < count; ++i) {
    merged.hits.insert(merged.hits.end(), results[i]->hits.begin(),
                       results[i]->hits.end());
  }
  return merged;
}

void QueryService::RunOnPool(int items, std::function<void(int, int)> fn) {
  const int helpers = std::min(pool_->size(), items) - 1;
  // Shared by the submitting thread and the pool helpers. Helpers hold the
  // state (and through it `fn` and whatever it owns) alive even if they
  // only get scheduled after the call has returned and claim no item.
  struct State {
    std::function<void(int, int)> fn;
    int items;
    std::atomic<int> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    int done = 0;
  };
  auto state = std::make_shared<State>();
  state->fn = std::move(fn);
  state->items = items;

  // `worker` identifies the participant (0 = the submitting thread), so
  // the caller can tell stolen claims from its own.
  auto drain = [state](int worker) {
    for (;;) {
      const int i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->items) return;
      state->fn(i, worker);
      std::lock_guard<std::mutex> lock(state->mu);
      if (++state->done == state->items) state->done_cv.notify_all();
    }
  };
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(helpers));
  for (int w = 1; w <= helpers; ++w) {
    tasks.push_back([drain, w] { drain(w); });
  }
  pool_->Post(std::move(tasks));  // one lock round-trip for the whole fan-out
  drain(0);  // the caller works too, so a busy pool cannot stall the call
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&state] { return state->done == state->items; });
}

Result<QueryResult> QueryService::QueryOnce(const std::string& query,
                                            const RowSink* sink,
                                            const std::atomic<bool>* cancel) {
  Timer timer;
  // One consistent session per query: plan lookup and execution see the
  // same snapshot even if a swap lands mid-query.
  SessionPtr session = CurrentSession();
  Result<QueryResult> r = [&]() -> Result<QueryResult> {
    try {
      LPATH_ASSIGN_OR_RETURN(CachedPlanPtr planned,
                             GetPlanIn(*session, query));
      return RunMorsels(*session, std::move(planned), sink, cancel);
    } catch (...) {
      return CurrentExceptionStatus();
    }
  }();
  RecordQuery(timer.ElapsedSeconds(), !r.ok());
  return r;
}

void QueryService::RecordQuery(double seconds, bool error) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  queries_ += 1;
  if (error) errors_ += 1;
  total_seconds_ += seconds;
  const double ms = seconds * 1e3;
  if (latency_ring_ms_.size() < kLatencySamples) {
    latency_ring_ms_.push_back(ms);
  } else {
    latency_ring_ms_[next_sample_ % kLatencySamples] = ms;
  }
  next_sample_ += 1;
}

Result<QueryResult> QueryService::Query(const std::string& query) {
  return QueryOnce(query, /*sink=*/nullptr, /*cancel=*/nullptr);
}

PendingQuery QueryService::Submit(const std::string& query, RowSink sink,
                                  SubmitOptions opts) {
  // The task owns query + sink + hooks; the packaged_task's shared state
  // feeds the caller's handle. Queued tasks are drained by the pool
  // destructor, so a handle outliving the service still resolves (and its
  // `done` hook still fires, exactly once).
  auto task = std::make_shared<std::packaged_task<Result<QueryResult>()>>(
      [this, query, sink = std::move(sink), opts = std::move(opts)]() {
        Result<QueryResult> r =
            QueryOnce(query, sink ? &sink : nullptr,
                      opts.cancel ? opts.cancel.get() : nullptr);
        if (opts.done) opts.done(r.status());
        return r;
      });
  PendingQuery handle(task->get_future().share());
  pool_->Post([task] { (*task)(); });
  return handle;
}

void QueryService::RecordExec(const sql::ExecStats& exec, bool sharded) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  exec_.Add(exec);
  if (sharded) {
    sharded_queries_ += 1;
  } else {
    serial_queries_ += 1;
  }
}

void QueryService::NoteIngest() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ingests_ += 1;
}

void QueryService::NoteCompaction() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  compactions_ += 1;
}

void QueryService::NoteWalAppend(uint64_t payload_bytes) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  wal_appends_ += 1;
  wal_bytes_ += payload_bytes;
}

void QueryService::NoteReplay(uint64_t batches) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  replayed_batches_ += batches;
}

void QueryService::NoteCheckpoint() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  checkpoints_ += 1;
}

ServiceStats QueryService::Stats() const {
  ServiceStats s;
  {
    SessionPtr session = CurrentSession();
    s.cache = session->cache.stats();
  }
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s.queries = queries_;
    s.errors = errors_;
    s.sharded_queries = sharded_queries_;
    s.serial_queries = serial_queries_;
    s.ingests = ingests_;
    s.compactions = compactions_;
    s.wal_appends = wal_appends_;
    s.wal_bytes = wal_bytes_;
    s.replayed_batches = replayed_batches_;
    s.checkpoints = checkpoints_;
    s.exec = exec_;
    s.total_seconds = total_seconds_;
    sorted = latency_ring_ms_;
  }
  std::sort(sorted.begin(), sorted.end());
  s.latency.samples = sorted.size();
  s.latency.p50_ms = Percentile(sorted, 0.50);
  s.latency.p90_ms = Percentile(sorted, 0.90);
  s.latency.p99_ms = Percentile(sorted, 0.99);
  s.latency.max_ms = sorted.empty() ? 0.0 : sorted.back();
  return s;
}

void QueryService::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  queries_ = 0;
  errors_ = 0;
  sharded_queries_ = 0;
  serial_queries_ = 0;
  ingests_ = 0;
  compactions_ = 0;
  wal_appends_ = 0;
  wal_bytes_ = 0;
  replayed_batches_ = 0;
  checkpoints_ = 0;
  exec_ = sql::ExecStats{};
  total_seconds_ = 0.0;
  latency_ring_ms_.clear();
  next_sample_ = 0;
}

}  // namespace service
}  // namespace lpath
