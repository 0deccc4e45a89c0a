// ExecPlan → SQL text. The emitted dialect is exactly what the sql module
// parses back (round-trip tested), closing the paper's LPath → SQL → RDBMS
// loop:
//
//   SELECT DISTINCT a1.tid, a1.id
//   FROM nodes AS a0, nodes AS a1
//   WHERE a0.name = 'VP' AND a1.tid = a0.tid AND a1.pid = a0.id AND ...
//     AND EXISTS (SELECT 1 FROM nodes AS b0 WHERE ...)
//
// Alias prefixes encode nesting depth (a, b, c, ...), so correlated
// subqueries reference their parent's aliases unambiguously.

#ifndef LPATHDB_PLAN_SQL_GEN_H_
#define LPATHDB_PLAN_SQL_GEN_H_

#include <string>

#include "plan/exec_plan.h"

namespace lpath {

/// Renders a top-level plan as a one-line SELECT DISTINCT statement over
/// the `nodes` table.
std::string GenerateSql(const ExecPlan& plan);

}  // namespace lpath

#endif  // LPATHDB_PLAN_SQL_GEN_H_
