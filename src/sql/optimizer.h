// Plan preparation: the statistics-driven join-order optimizer.
//
// Prepare() turns an ExecPlan into a PreparedPlan the executor can run. It
// copies the plan once and prepares it level by level, in one pass per
// level (an EXISTS subplan is a level of its own):
//   1. each top-level conjunct is normalized once: oriented column-first
//      and its string literals resolved against the relation's or the
//      snapshot chain's dictionary (an unknown tag/word in a top-level
//      equality of the top-level plan short-circuits the plan to empty;
//      elsewhere it resolves to an unsatisfiable sentinel instead);
//   2. each variable gets, once, the list of the conjuncts that name it;
//   3. a variable evaluation order is chosen from those lists — greedy by
//      estimated cardinality (tag-run and value-index sizes, exactly the
//      statistics the paper's §5.2 discussion turns on), or left-to-right
//      for the ablation benchmark — and each conjunct is oriented
//      (later-bound variable on the left) and scheduled at the position
//      where it first becomes checkable;
//   4. each filter tree is walked once: its comparisons are normalized,
//      its EXISTS subplans are moved out and prepared recursively, each
//      reporting the variables of this level it reads, and the filter is
//      scheduled where the last variable it reads is bound;
//   5. each position's access path is chosen once (an AccessPath): the
//      variables bound before it are fixed by the order, so which index
//      serves it is a static choice. The path keeps the conjuncts it
//      searches by (`bounds`) apart from the ones it leaves for the
//      executor to check per candidate (`residual`).

#ifndef LPATHDB_SQL_OPTIMIZER_H_
#define LPATHDB_SQL_OPTIMIZER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "plan/exec_plan.h"
#include "storage/relation.h"

namespace lpath {
namespace sql {

/// Executor tuning knobs (ablation benchmarks flip these).
struct ExecOptions {
  enum class JoinOrder {
    kGreedy,       ///< cheapest-first by estimated cardinality (default)
    kLeftToRight,  ///< plan order, i.e. query-step order
  };
  JoinOrder join_order = JoinOrder::kGreedy;

  /// Once a complete binding extends a given output row, stop exploring
  /// alternatives that cannot change the DISTINCT result. Disabling this
  /// reproduces the "materialize all intermediate results, deduplicate at
  /// the end" behaviour of a naive RDBMS plan.
  bool distinct_early_exit = true;
};

/// How the executor enumerates the candidate rows of one plan position,
/// chosen at prepare time. Paths that need a tree (every kind but kRun and
/// kFullScan, and kValueIndex optionally) read it from `tid`.
struct AccessPath {
  enum class Kind : uint8_t {
    kIdLookup,      ///< (tid, id) lookup: the element and its attribute rows
    kValueIndex,    ///< value index, inside one tree when the tid is known
    kPidInRun,      ///< pid search inside one tree's slice of the tag's run
    kPidWildcard,   ///< children of one element (pid 0: the root), any tag
    kRightRange,    ///< right range inside one tree's slice, by-right order
    kLeftRange,     ///< left range inside one tree's slice
    kTreeSlice,     ///< one tree's whole slice of the tag's run
    kRun,           ///< the tag's run, clamped to a shard's tids at the root
    kTreeWildcard,  ///< one tree's elements (+ attributes), maybe left-ranged
    kFullScan,      ///< every row of the relation
  };
  /// Where the path's tree comes from.
  enum class TidSource : uint8_t {
    kNone,         ///< no tree: kRun, kFullScan or a corpus-wide kValueIndex
    kConjunct,     ///< a tid equality at this position (implied by the path)
    kClassMember,  ///< an earlier-bound variable of the same tid class
    kClassOuter,   ///< the tid class's outer reference (correlated subplan)
  };

  Kind kind = Kind::kFullScan;
  Symbol tag = kNoSymbol;  ///< literal name equality, else kNoSymbol
  int node_kind = -1;      ///< literal kind equality (0/1), else -1
  TidSource tid_source = TidSource::kNone;
  Operand tid;  ///< the tree's operand, unless tid_source is kNone
  /// The id / value / pid equality, or the left or right comparisons, the
  /// path searches by; their other sides are bound by this position.
  std::vector<Conjunct> bounds;
  /// This position's conjuncts the path does not imply, checked for each
  /// candidate. Implied, and so absent: the tag and tid equalities a path
  /// enforces, and every bound except on kTreeWildcard.
  std::vector<Conjunct> residual;
};

/// Stable name of an access kind ("run", "left-range", ...).
std::string_view AccessKindName(AccessPath::Kind kind);

/// A plan ready for execution against any NodeRelation whose symbol ids
/// its dictionary defines (see Prepare). Owns a rewritten copy of the
/// plan, so it is independent of the original ExecPlan.
struct PreparedPlan {
  /// Literals resolved to symbol ids (numbers). Its EXISTS nodes hold no
  /// subplan: each `sub` was moved into `subs`, which the node reaches
  /// only through its `sub_slot`.
  ExecPlan plan;

  std::vector<int> order;  ///< position -> variable
  int output_pos = 0;

  /// Position p's access path. Its bounds and residual split the
  /// conjuncts checkable once the variable at p is bound (oriented:
  /// lhs.var is that variable whenever a local var is involved).
  std::vector<AccessPath> access;

  /// Filters evaluable once position p is bound.
  std::vector<std::vector<const BoolExpr*>> filters_at;

  /// Prepared subplans, one per kExists node of the filters, in the
  /// left-to-right order of those nodes; each node's BoolExpr::sub_slot
  /// indexes its entry.
  std::vector<std::unique_ptr<PreparedPlan>> subs;

  /// True if some conjunct can never hold (e.g. name = unknown tag).
  bool always_empty = false;

  /// The optimizer's cardinality estimate for the root (first-bound)
  /// variable — the number of rows a shard partition would split. The
  /// service's adaptive heuristic runs the query serially when this is
  /// small (fan-out overhead would dominate).
  size_t root_cardinality = 0;

  /// tid equivalence classes: variables linked (transitively) by tid
  /// equality conjuncts share a class, so an access path can take a
  /// variable's tree from *any* earlier-bound variable in its class — not
  /// only from the variable its tid conjunct happens to mention. Every
  /// variable has a class: its entry is the id of the class's
  /// representative variable (in [0, num_vars)), and a variable with no
  /// local tid link is its own singleton class.
  std::vector<int> tid_class;

  /// True when the output variable shares the root (first-bound)
  /// variable's tid class. A shard clamps the root's tids, so it then
  /// clamps the output rows too: shards over disjoint tid ranges return
  /// disjoint results. The LPath compiler links every step to its context
  /// by tid, so every compiled plan qualifies.
  bool OutputTiedToRoot() const {
    return !order.empty() &&
           tid_class[order[0]] == tid_class[plan.output_var];
  }
};

/// Most variables a plan may hold, its subplans' included. Larger plans
/// fail Prepare with InvalidArgument instead of exhausting the stack of
/// the executor, which recurses a few frames per variable, or spending
/// seconds in the greedy join order, which is quadratic in a level's
/// variables. A flat path has one variable per step.
inline constexpr int kMaxPlanVars = 4096;

/// Prepares `plan` for execution against `rel`: statistics come from
/// `rel`, literals resolve in `dictionary` (null: rel.interner()). A
/// snapshot chain passes its chain-wide dictionary, an overlay whose ids
/// mean the same string in every relation of the chain, so the one plan
/// runs over each of them; an id a relation lacks enumerates nothing there.
/// A plan of more than kMaxPlanVars variables is InvalidArgument.
Result<std::unique_ptr<PreparedPlan>> Prepare(
    const ExecPlan& plan, const NodeRelation& rel, const ExecOptions& options,
    const Interner* dictionary = nullptr);

/// One line per position of `pp` and, indented below, of its subplans:
/// the variable, its access kind, its tag (by name when `names` is given,
/// else by symbol id), the number of bound conjuncts and the residual
/// conjuncts rendered. The groundwork of an EXPLAIN.
std::string ExplainAccess(const PreparedPlan& pp,
                          const Interner* names = nullptr);

/// Process-wide count of top-level Prepare() calls — a test witness for
/// prepare dedup (one call per plan-cache miss, however many clients miss
/// the same text at once and however many relations the snapshot chains).
uint64_t PrepareCallCount();

}  // namespace sql
}  // namespace lpath

#endif  // LPATHDB_SQL_OPTIMIZER_H_
