// Axis → conjunct mapping (Table 2 of the paper) for the LPath → plan
// compiler. Given an edge "candidate var `to` is on `axis` of the context
// variable `from` references" (a variable of the same plan or, marked
// outer, of the parent plan; its column is unused), emits the label
// comparisons of the axis table (label/axes.h) that decide it under the
// chosen labeling scheme, one conjunct per comparison in the table's order.

#ifndef LPATHDB_PLAN_AXIS_MAP_H_
#define LPATHDB_PLAN_AXIS_MAP_H_

#include <vector>

#include "common/result.h"
#include "label/labeler.h"
#include "plan/exec_plan.h"

namespace lpath {

/// Appends the conjuncts for `axis(from → to)` to `out` (tid equality is
/// NOT included; the caller links tids once per variable).
///
/// Or-self axes cannot be expressed conjunctively; they are returned as a
/// disjunctive BoolExpr via AxisFilter below — this function rejects them.
/// The XPath labeling scheme rejects the immediate-* axes (Lemma 3.1 /
/// Section 4: tag positions cannot decide adjacency).
Status AppendAxisConjuncts(LabelScheme scheme, Axis axis, const Operand& from,
                           int to, std::vector<Conjunct>* out);

/// Builds the disjunctive filter for an or-self axis:
/// (base-axis conjuncts) OR (to.id = from.id).
Result<std::unique_ptr<BoolExpr>> AxisFilter(LabelScheme scheme, Axis axis,
                                             const Operand& from, int to);

}  // namespace lpath

#endif  // LPATHDB_PLAN_AXIS_MAP_H_
