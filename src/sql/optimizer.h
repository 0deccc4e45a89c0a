// Plan preparation: the statistics-driven join-order optimizer.
//
// Prepare() turns an ExecPlan into a PreparedPlan the executor can run:
//   1. comparisons are oriented column-first and string literals resolved
//      against the relation's dictionary (an unknown tag/word in a
//      top-level equality short-circuits the plan to empty; inside OR/NOT
//      filter trees it resolves to an unsatisfiable sentinel instead);
//   2. a variable evaluation order is chosen — greedy by estimated
//      cardinality (tag-run and value-index sizes, exactly the statistics
//      the paper's §5.2 discussion turns on), or left-to-right for the
//      ablation benchmark;
//   3. conjuncts are oriented (later-bound variable on the left) and
//      scheduled at the position where they first become checkable;
//   4. EXISTS subplans are prepared recursively.

#ifndef LPATHDB_SQL_OPTIMIZER_H_
#define LPATHDB_SQL_OPTIMIZER_H_

#include <memory>
#include <unordered_map>
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

/// A plan ready for execution against one NodeRelation. Owns a rewritten
/// copy of the plan, so it must not outlive the relation (symbols) but is
/// independent of the original ExecPlan.
struct PreparedPlan {
  ExecPlan plan;  // literals resolved to symbol ids (numbers)

  std::vector<int> order;   ///< position -> variable
  std::vector<int> pos_of;  ///< variable -> position
  int output_pos = 0;

  /// Conjuncts checkable once the variable at position p is bound
  /// (oriented: lhs.var is that variable whenever a local var is involved).
  std::vector<std::vector<Conjunct>> conjuncts_at;

  /// Filters evaluable once position p is bound.
  std::vector<std::vector<const BoolExpr*>> filters_at;

  /// Prepared subplans for every kExists node in the filters.
  std::unordered_map<const BoolExpr*, std::unique_ptr<PreparedPlan>> subs;

  /// True if some conjunct can never hold (e.g. name = unknown tag).
  bool always_empty = false;

  /// The optimizer's cardinality estimate for the root (first-bound)
  /// variable — the number of rows a shard partition would split. The
  /// service's adaptive heuristic runs the query serially when this is
  /// small (fan-out overhead would dominate).
  size_t root_cardinality = 0;

  /// tid equivalence classes: variables linked (transitively) by tid
  /// equality conjuncts share a class, so the executor can derive a
  /// variable's tree from *any* bound variable in its class — not only
  /// from the variable its tid conjunct happens to mention. Every variable
  /// has a class: its entry is the id of the class's representative
  /// variable (in [0, num_vars)), and a variable with no local tid link is
  /// its own singleton class.
  std::vector<int> tid_class;
  /// Per class: an outer-reference operand whose tid the class equals
  /// (correlated subplans), or a literal-free invalid operand.
  std::vector<Operand> class_outer_tid;  ///< indexed by class id
  std::vector<uint8_t> class_has_outer;

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

/// Prepares `plan` for execution against `rel`.
Result<std::unique_ptr<PreparedPlan>> Prepare(const ExecPlan& plan,
                                              const NodeRelation& rel,
                                              const ExecOptions& options);

/// Process-wide count of top-level Prepare() calls — a test witness for
/// prepare dedup (N spellings of one structure must prepare once per
/// relation source, not once per spelling).
uint64_t PrepareCallCount();

}  // namespace sql
}  // namespace lpath

#endif  // LPATHDB_SQL_OPTIMIZER_H_
