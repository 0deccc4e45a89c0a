// The index-nested-loop executor over storage::NodeRelation.
//
// Binds plan variables in the optimizer's order; for each new variable it
// derives the best available access path from the conjuncts whose other
// side is already bound — the clustered tag runs, (tid,left)/(tid,right)
// ranges, the pid and value indexes, or direct (tid,id) lookup — then
// filters with the remaining conjuncts and boolean filters. EXISTS subplans
// run recursively with memoization on their correlation variable. Output is
// the DISTINCT (tid, id) set of the output variable.

#ifndef LPATHDB_SQL_EXECUTOR_H_
#define LPATHDB_SQL_EXECUTOR_H_

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "common/result.h"
#include "lpath/engine.h"
#include "sql/exists_memo.h"
#include "sql/optimizer.h"
#include "storage/snapshot.h"

namespace lpath {
namespace sql {

/// Work counters for ablation reports.
struct ExecStats {
  uint64_t candidates = 0;   ///< rows enumerated from access paths
  uint64_t bindings = 0;     ///< rows surviving conjuncts + filters
  uint64_t subqueries = 0;   ///< EXISTS evaluations (after memo hits)
  uint64_t memo_hits = 0;    ///< run-private EXISTS memo hits
  /// Hits in the *shared* EXISTS memo (see sql::ExistsMemo): subquery
  /// answers reused across the morsels of a query or across executions of
  /// one cached plan, rather than re-derived by this run.
  uint64_t shared_memo_hits = 0;
  /// Hits in the snapshot-scoped *subplan* memo (fingerprint-keyed; see
  /// service/subplan_memo.h): subquery answers derived by a *different*
  /// top-level plan sharing a structurally equal EXISTS subtree.
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
    memo_hits += o.memo_hits;
    shared_memo_hits += o.shared_memo_hits;
    subplan_memo_hits += o.subplan_memo_hits;
    shards += o.shards;
    morsels += o.morsels;
    steal_count += o.steal_count;
    sources = sources > o.sources ? sources : o.sources;
    delta_rows += o.delta_rows;
  }
};

/// Snapshot-scoped EXISTS memo attachment for one execution: `memo` is a
/// session-wide fingerprint-keyed table shared by every plan prepared
/// against one relation source, and `keys` maps this prepared plan's
/// memoizable EXISTS nodes (all nesting levels) to their registry-verified
/// subtree fingerprints. Nodes absent from `keys` — hash collisions the
/// registry refused to share, or non-memoizable subtrees — simply skip the
/// global level. A default-constructed value disables the feature.
struct GlobalExistsMemo {
  ExistsMemo* memo = nullptr;
  const std::unordered_map<const BoolExpr*, uint64_t>* keys = nullptr;
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

  /// Runs an already prepared plan. `shared_memo`, when non-null, is a
  /// cross-run EXISTS memo consulted before (and filled alongside) the
  /// run-private one; it must have been filled only against this (plan,
  /// relation) pair — see sql::ExistsMemo for the contract. `global`
  /// optionally adds the snapshot-scoped fingerprint-keyed memo level
  /// consulted last and filled alongside the others; it must be scoped to
  /// this relation source (see GlobalExistsMemo).
  Result<QueryResult> ExecutePrepared(const PreparedPlan& pp,
                                      ExecStats* stats = nullptr,
                                      ExistsMemo* shared_memo = nullptr,
                                      GlobalExistsMemo global = {}) const;

  /// Runs one shard of a prepared plan: the root frame's candidate
  /// enumeration is constrained to trees with tid in [tid_lo, tid_hi).
  /// Every complete binding is found by exactly one shard, so the union of
  /// the shard results over a partition of the tid space equals
  /// ExecutePrepared's result. When pp.OutputTiedToRoot(), every output
  /// row lies in its shard's tid range and the shard results are pairwise
  /// disjoint; otherwise the union needs deduplicating. Safe to call
  /// concurrently from many threads with one shared PreparedPlan (and one
  /// shared ExistsMemo — the morsel scheduler passes the same memo to
  /// every concurrent kernel invocation of a query).
  Result<QueryResult> ExecuteShard(const PreparedPlan& pp, int32_t tid_lo,
                                   int32_t tid_hi, ExecStats* stats = nullptr,
                                   ExistsMemo* shared_memo = nullptr,
                                   GlobalExistsMemo global = {}) const;

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
