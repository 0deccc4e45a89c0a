// ExecPlan: the conjunctive-query IR that both front ends lower to.
//
//   LPath AST ──compile──► ExecPlan ──sql_gen──► SQL text
//                                                    │ sql::ParseSql
//                                                    ▼
//                           ExecPlan ◄────────────────
//
// The paper's engine stores labeled nodes in an RDBMS and translates LPath
// to SQL (one self-join of the node relation per step, EXISTS / NOT EXISTS
// for predicates). We reproduce that loop in-process: the generated SQL is
// parsed back by the sql module and executed by a statistics-driven
// index-nested-loop executor over storage::NodeRelation. Compiling the AST
// straight to an ExecPlan (skipping the text round-trip) yields an identical
// plan — a property the tests check.
//
// A plan is:
//   - variables (aliases of the node relation), one per location step;
//   - conjuncts: column comparisons between two variables or a variable and
//     a literal (axis predicates per Table 2, scope containment, alignment);
//   - filters: boolean trees (AND/OR/NOT/EXISTS subplans) attached to the
//     plan, evaluated once all their variables are bound;
//   - the output variable, projected DISTINCT (tid, id).

#ifndef LPATHDB_PLAN_EXEC_PLAN_H_
#define LPATHDB_PLAN_EXEC_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lpath/ast.h"

namespace lpath {

/// Columns of the node relation.
enum class PlanCol : uint8_t {
  kTid,
  kLeft,
  kRight,
  kDepth,
  kId,
  kPid,
  kName,
  kValue,
  kKind,
};

/// SQL column name ("left", "pid", ...).
std::string_view PlanColName(PlanCol col);

/// One side of a comparison: a variable's column, or a literal. A column
/// names variable `var` of the enclosing plan (Column) or, an outer
/// reference, variable `var` of the *parent* plan (Outer; correlated
/// subqueries). The `outer` marker, not the number, tells the two apart,
/// so a plan may have any number of variables.
struct Operand {
  static constexpr int kLiteral = -1;

  int var = kLiteral;
  bool outer = false;  ///< `var` indexes the parent plan's variables
  PlanCol col = PlanCol::kTid;
  // Literal payload (var == kLiteral): either a number (kind/depth/position
  // columns) or a string (name/value columns).
  int64_t num = 0;
  std::string str;
  bool is_string = false;

  static Operand Column(int var, PlanCol col) {
    Operand op;
    op.var = var;
    op.col = col;
    return op;
  }
  static Operand Outer(int var, PlanCol col) {
    Operand op = Column(var, col);
    op.outer = true;
    return op;
  }
  static Operand Number(int64_t v) {
    Operand op;
    op.num = v;
    return op;
  }
  static Operand String(std::string s) {
    Operand op;
    op.str = std::move(s);
    op.is_string = true;
    return op;
  }
  bool is_literal() const { return var == kLiteral; }
  bool is_outer() const { return outer; }
  /// The same reference (or literal) with column `c`.
  Operand WithCol(PlanCol c) const {
    Operand op = *this;
    op.col = c;
    return op;
  }
};

/// lhs op rhs. At least one side is a column reference. In a prepared plan
/// (sql::Prepare) the lhs is a column: a literal-first comparison is
/// mirrored there.
struct Conjunct {
  Operand lhs;
  CmpOp op = CmpOp::kEq;
  Operand rhs;
};

/// Debug rendering of a comparison, as DebugString prints it
/// ("v1.left > v0.left").
std::string ConjunctString(const Conjunct& c);

struct ExecPlan;

/// Boolean filter tree: comparisons, EXISTS subplans, AND/OR/NOT.
struct BoolExpr {
  enum class Kind { kAnd, kOr, kNot, kCmp, kExists };
  Kind kind;
  std::unique_ptr<BoolExpr> lhs, rhs;  // kAnd/kOr (both), kNot (lhs)
  Conjunct cmp;                        // kCmp
  std::unique_ptr<ExecPlan> sub;       // kExists (moved out once prepared)
  /// kExists inside a sql::PreparedPlan's plan: the index of the node's
  /// prepared subplan in PreparedPlan::subs, its only link to it (`sub`
  /// is null there). -1 elsewhere (Clone resets).
  int sub_slot = -1;

  explicit BoolExpr(Kind k) : kind(k) {}
};

/// A conjunctive query over aliases of the node relation.
///
/// Subplans (EXISTS) reference parent variables through Operand outer
/// references; one level of nesting is generated by the compiler (inner
/// predicates nest further, each relative to its own parent).
struct ExecPlan {
  /// Number of variables (aliases). Variable metadata lives entirely in the
  /// conjuncts (e.g. a name-equality conjunct on var 2); the optimizer
  /// derives per-variable access information from them.
  int num_vars = 0;

  /// Top-level AND conjuncts.
  std::vector<Conjunct> conjuncts;

  /// Non-conjunctive residue: OR groups, NOT EXISTS, EXISTS.
  std::vector<std::unique_ptr<BoolExpr>> filters;

  /// Output variable (ignored in subplans — they test existence).
  int output_var = 0;

  ExecPlan() = default;
  ExecPlan(ExecPlan&&) = default;
  ExecPlan& operator=(ExecPlan&&) = default;

  /// Deep copy (plans own subplans through unique_ptr).
  ExecPlan Clone() const;

  /// Debug rendering (stable, used in golden tests).
  std::string DebugString() const;
};

/// Deep copy helpers.
std::unique_ptr<BoolExpr> CloneBoolExpr(const BoolExpr& e);

}  // namespace lpath

#endif  // LPATHDB_PLAN_EXEC_PLAN_H_
