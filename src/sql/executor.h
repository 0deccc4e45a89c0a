// The index-nested-loop executor over storage::NodeRelation.
//
// Binds plan variables in the optimizer's order. Each position enumerates
// its candidates along the access path the optimizer chose for it at
// prepare time (sql::AccessPath) — the clustered tag runs, (tid,left)/
// (tid,right) ranges, the pid and value indexes, or direct (tid,id)
// lookup — evaluating only the path's bounds under the current bindings,
// then checks each candidate against the path's residual conjuncts and the
// boolean filters. Every tree-bound path searches inside one tree's slice
// of a tag run, which the relation's per-tree tag directory serves in
// O(1). EXISTS subplans run recursively, once per evaluation, with no
// memo: their probes stay inside the correlated tree, so rerunning one is
// cheaper than looking its answer up. Output is the DISTINCT (tid, id) set
// of the output variable.

#ifndef LPATHDB_SQL_EXECUTOR_H_
#define LPATHDB_SQL_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/result.h"
#include "lpath/engine.h"
#include "sql/optimizer.h"
#include "storage/snapshot.h"

namespace lpath {
namespace sql {

/// Work counters for ablation reports.
struct ExecStats {
  uint64_t candidates = 0;   ///< rows enumerated from access paths
  uint64_t bindings = 0;     ///< rows surviving conjuncts + filters
  uint64_t subqueries = 0;   ///< EXISTS evaluations
  // Always 0 (no EXISTS memo); wirebench reads them until its next
  // [benchmark] change retires them.
  uint64_t memo_hits = 0;
  uint64_t shared_memo_hits = 0;
  uint64_t subplan_memo_hits = 0;
  /// Plan executions: each ExecutePrepared/ExecuteShard call contributes 1,
  /// so rolled up per query this is the fan-out the service chose — 1 means
  /// the adaptive heuristic ran the query serially.
  uint64_t shards = 0;
  /// Morsels the service's scheduler carved the query into (1 = serial).
  /// Set by the scheduler, not by the executor: a raw ExecuteShard call is
  /// a kernel invocation, not a scheduling decision.
  uint64_t morsels = 0;
  /// Morsels claimed by pool helper threads rather than the submitting
  /// thread — the work-stealing share of the fan-out (also scheduler-set).
  uint64_t steal_count = 0;
  /// Relation sources the execution consulted: 1 for a plain snapshot, 2
  /// when a snapshot chain's delta ran alongside the base (scheduler-set).
  /// Rolls up as a maximum, so aggregated stats answer "was the chain ever
  /// two-source" rather than summing a meaningless total.
  uint64_t sources = 0;
  /// Candidate rows enumerated from the delta source (these also count
  /// into `candidates`) — how much of the work the unmerged tail carries.
  uint64_t delta_rows = 0;

  /// Accumulates another run's counters (per-shard stats roll up).
  void Add(const ExecStats& o) {
    candidates += o.candidates;
    bindings += o.bindings;
    subqueries += o.subqueries;
    shards += o.shards;
    morsels += o.morsels;
    steal_count += o.steal_count;
    sources = sources > o.sources ? sources : o.sources;
    delta_rows += o.delta_rows;
  }
};

/// Executes prepared plans. Stateless between calls; one executor can be
/// shared for many queries against the same relation.
class PlanExecutor {
 public:
  /// Borrowing executor: the caller guarantees `rel` outlives it (engines
  /// and tests with stack-scoped relations).
  explicit PlanExecutor(const NodeRelation& rel, ExecOptions options = {})
      : rel_(rel), options_(options) {}

  /// Snapshot-owning executor: shares ownership of the snapshot, so the
  /// relation it reads stays alive even after the snapshot is swapped out
  /// of its service — the hot-swap safety contract.
  explicit PlanExecutor(SnapshotPtr snapshot, ExecOptions options = {})
      : snapshot_(std::move(snapshot)),
        rel_(snapshot_->relation()),
        options_(options) {}

  /// Prepares and runs `plan`.
  Result<QueryResult> Execute(const ExecPlan& plan,
                              ExecStats* stats = nullptr) const;

  /// Runs an already prepared plan.
  Result<QueryResult> ExecutePrepared(const PreparedPlan& pp,
                                      ExecStats* stats = nullptr) const;

  /// Runs one shard of a prepared plan: the root frame's candidate
  /// enumeration is constrained to trees with tid in [tid_lo, tid_hi).
  /// Every complete binding is found by exactly one shard, so the union of
  /// the shard results over a partition of the tid space equals
  /// ExecutePrepared's result. When pp.OutputTiedToRoot(), every output
  /// row lies in its shard's tid range and the shard results are pairwise
  /// disjoint; otherwise the union needs deduplicating. Safe to call
  /// concurrently from many threads with one shared PreparedPlan: each
  /// call keeps its state to itself.
  Result<QueryResult> ExecuteShard(const PreparedPlan& pp, int32_t tid_lo,
                                   int32_t tid_hi,
                                   ExecStats* stats = nullptr) const;

  const ExecOptions& options() const { return options_; }
  const NodeRelation& relation() const { return rel_; }

 private:
  // Declared before rel_: the snapshot ctor binds rel_ to snapshot_'s
  // relation, so the snapshot must be initialized first.
  SnapshotPtr snapshot_;
  const NodeRelation& rel_;
  ExecOptions options_;
};

}  // namespace sql
}  // namespace lpath

#endif  // LPATHDB_SQL_EXECUTOR_H_
