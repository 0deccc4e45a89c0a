#include "plan/compile.h"

#include "plan/axis_map.h"

namespace lpath {

namespace {

/// True if the predicate can be unnested into the enclosing join graph:
/// a positive path existence, an attribute '=' comparison, or a
/// conjunction of unnestable parts. (An '!=' comparison is also a positive
/// existential — "some attribute with another value exists".)
bool IsUnnestable(const PredExpr& e) {
  switch (e.kind) {
    case PredExpr::Kind::kAnd:
      return IsUnnestable(*e.lhs) && IsUnnestable(*e.rhs);
    case PredExpr::Kind::kPath:
    case PredExpr::Kind::kCompare:
      return true;
    default:
      return false;
  }
}

class Compiler {
 public:
  explicit Compiler(const CompileOptions& options) : options_(options) {}

  Result<ExecPlan> CompileQuery(const LocationPath& query) {
    if (!query.absolute || query.steps.empty()) {
      return Status::InvalidArgument(
          "top-level queries must be absolute and non-empty");
    }
    ExecPlan plan;
    LPATH_ASSIGN_OR_RETURN(
        int last_var,
        AppendPath(query, /*anchor=*/-1, &plan));
    plan.output_var = last_var;
    return plan;
  }

 private:
  const CompileOptions& options_;

  static Conjunct VarLit(int var, PlanCol col, CmpOp op, Operand lit) {
    return Conjunct{Operand::Column(var, col), op, std::move(lit)};
  }
  static Conjunct VarVar(int a, PlanCol ca, CmpOp op, int b, PlanCol cb) {
    return Conjunct{Operand::Column(a, ca), op, Operand::Column(b, cb)};
  }

  /// Appends the steps of `path` to `plan`, allocating fresh variables.
  /// `anchor` is the context variable the first step's axis relates to:
  ///   -1                      — top-level absolute path;
  ///   v >= 0                  — a variable of this plan (unnested paths);
  ///   kOuterVarBase + v       — a parent-plan variable (EXISTS subplans).
  /// Returns the variable of the final step.
  Result<int> AppendPath(const LocationPath& path, int anchor,
                         ExecPlan* plan) {
    const bool absolute = anchor < 0;

    // Innermost open scope; leading '{' scopes to the anchor.
    int scope_var = -1;
    if (!absolute && path.leading_scopes > 0) scope_var = anchor;

    int prev_var = anchor;
    int last_var = -1;
    for (size_t i = 0; i < path.steps.size(); ++i) {
      const Step& step = path.steps[i];
      const bool is_attr = step.axis == Axis::kAttribute;
      const int var = plan->num_vars++;

      // --- tid link + axis edge -------------------------------------------
      if (i == 0 && absolute) {
        switch (step.axis) {
          case Axis::kDescendant:
          case Axis::kDescendantOrSelf:
            break;  // any node of any tree
          case Axis::kChild:
            plan->conjuncts.push_back(
                VarLit(var, PlanCol::kPid, CmpOp::kEq, Operand::Number(0)));
            break;
          default:
            return Status::NotSupported(
                "absolute queries must start with '/' or '//'");
        }
      } else {
        plan->conjuncts.push_back(
            VarVar(var, PlanCol::kTid, CmpOp::kEq, prev_var, PlanCol::kTid));
        LPATH_RETURN_IF_ERROR(AddAxis(step.axis, prev_var, var, plan));
      }

      // --- node test --------------------------------------------------------
      if (step.test.is_wildcard()) {
        plan->conjuncts.push_back(VarLit(var, PlanCol::kKind, CmpOp::kEq,
                                         Operand::Number(is_attr ? 1 : 0)));
      } else {
        const std::string name =
            is_attr ? "@" + step.test.name : step.test.name;
        plan->conjuncts.push_back(
            VarLit(var, PlanCol::kName, CmpOp::kEq, Operand::String(name)));
      }

      // --- scope containment -------------------------------------------------
      if (scope_var >= 0 && !is_attr) {
        plan->conjuncts.push_back(
            VarVar(var, PlanCol::kLeft, CmpOp::kGe, scope_var,
                   PlanCol::kLeft));
        plan->conjuncts.push_back(VarVar(var, PlanCol::kRight, CmpOp::kLe,
                                         scope_var, PlanCol::kRight));
        if (options_.scheme == LabelScheme::kLPath) {
          // Depth resolves unary chains (a same-interval ancestor of the
          // scope node must not pass). Tag positions nest strictly, so the
          // XPath scheme needs no depth column.
          plan->conjuncts.push_back(VarVar(var, PlanCol::kDepth, CmpOp::kGe,
                                           scope_var, PlanCol::kDepth));
        }
      }

      // --- edge alignment -----------------------------------------------------
      if (step.left_align || step.right_align) {
        if (options_.scheme == LabelScheme::kXPath) {
          return Status::NotSupported(
              "edge alignment requires the LPath labeling scheme");
        }
        int target = scope_var;
        if (target < 0) {
          LPATH_ASSIGN_OR_RETURN(target, EnsureRootVar(plan, var));
        }
        if (step.left_align) {
          plan->conjuncts.push_back(
              VarVar(var, PlanCol::kLeft, CmpOp::kEq, target, PlanCol::kLeft));
        }
        if (step.right_align) {
          plan->conjuncts.push_back(VarVar(var, PlanCol::kRight, CmpOp::kEq,
                                           target, PlanCol::kRight));
        }
      }

      // --- predicates -------------------------------------------------------------
      for (const PredExprPtr& pred : step.predicates) {
        if (options_.unnest_predicates && IsUnnestable(*pred)) {
          LPATH_RETURN_IF_ERROR(Unnest(*pred, var, plan));
        } else {
          LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> filter,
                                 CompilePred(*pred, var, plan));
          plan->filters.push_back(std::move(filter));
        }
      }

      // --- scope opening ------------------------------------------------------------
      if (step.opens_scopes > 0) scope_var = var;
      prev_var = var;
      last_var = var;
    }
    return last_var;
  }

  /// Unnests a positive predicate into `plan` as extra join variables
  /// anchored at `context_var` (a semi-join; sound under DISTINCT output).
  Status Unnest(const PredExpr& e, int context_var, ExecPlan* plan) {
    switch (e.kind) {
      case PredExpr::Kind::kAnd:
        LPATH_RETURN_IF_ERROR(Unnest(*e.lhs, context_var, plan));
        return Unnest(*e.rhs, context_var, plan);
      case PredExpr::Kind::kPath: {
        LPATH_ASSIGN_OR_RETURN(int last, AppendPath(e.path, context_var, plan));
        (void)last;  // existence only; the variable's bindings are the join
        return Status::OK();
      }
      case PredExpr::Kind::kCompare: {
        LPATH_ASSIGN_OR_RETURN(int attr_var,
                               AppendPath(e.path, context_var, plan));
        plan->conjuncts.push_back(VarLit(
            attr_var, PlanCol::kValue,
            e.cmp == CmpOp::kEq ? CmpOp::kEq : CmpOp::kNe,
            Operand::String(e.literal)));
        return Status::OK();
      }
      default:
        return Status::Internal("predicate is not unnestable");
    }
  }

  Status AddAxis(Axis axis, int from, int to, ExecPlan* plan) {
    if (AxisBase(axis) != axis) {
      LPATH_ASSIGN_OR_RETURN(std::unique_ptr<BoolExpr> filter,
                             AxisFilter(options_.scheme, axis, from, to));
      plan->filters.push_back(std::move(filter));
      return Status::OK();
    }
    return AppendAxisConjuncts(options_.scheme, axis, from, to,
                               &plan->conjuncts);
  }

  /// Adds (once per plan) a variable bound to the tree root, used as the
  /// alignment target when no scope is open. The root is the row with
  /// pid = 0.
  Result<int> EnsureRootVar(ExecPlan* plan, int tid_link) {
    if (root_var_ >= 0) return root_var_;
    root_var_ = plan->num_vars++;
    plan->conjuncts.push_back(VarVar(root_var_, PlanCol::kTid, CmpOp::kEq,
                                     tid_link, PlanCol::kTid));
    plan->conjuncts.push_back(
        VarLit(root_var_, PlanCol::kPid, CmpOp::kEq, Operand::Number(0)));
    plan->conjuncts.push_back(
        VarLit(root_var_, PlanCol::kKind, CmpOp::kEq, Operand::Number(0)));
    return root_var_;
  }

  Result<std::unique_ptr<BoolExpr>> CompilePred(const PredExpr& e,
                                                int context_var,
                                                ExecPlan* plan) {
    switch (e.kind) {
      case PredExpr::Kind::kAnd:
      case PredExpr::Kind::kOr: {
        auto node = std::make_unique<BoolExpr>(
            e.kind == PredExpr::Kind::kAnd ? BoolExpr::Kind::kAnd
                                           : BoolExpr::Kind::kOr);
        LPATH_ASSIGN_OR_RETURN(node->lhs,
                               CompilePred(*e.lhs, context_var, plan));
        LPATH_ASSIGN_OR_RETURN(node->rhs,
                               CompilePred(*e.rhs, context_var, plan));
        return node;
      }
      case PredExpr::Kind::kNot: {
        auto node = std::make_unique<BoolExpr>(BoolExpr::Kind::kNot);
        LPATH_ASSIGN_OR_RETURN(node->lhs,
                               CompilePred(*e.lhs, context_var, plan));
        return node;
      }
      case PredExpr::Kind::kPath: {
        return CompileExists(e.path, context_var, /*compare=*/nullptr);
      }
      case PredExpr::Kind::kCompare: {
        return CompileExists(e.path, context_var, &e);
      }
      case PredExpr::Kind::kPosition:
      case PredExpr::Kind::kLast:
      case PredExpr::Kind::kNumber:
        return Status::NotSupported(
            "position()/last() predicates are not supported by the "
            "relational translation; use the navigational engine");
    }
    return Status::Internal("unhandled predicate kind");
  }

  /// Builds EXISTS(subplan) for a relative predicate path. When `compare`
  /// is set, the path's final attribute step carries a value comparison.
  Result<std::unique_ptr<BoolExpr>> CompileExists(const LocationPath& path,
                                                  int context_var,
                                                  const PredExpr* compare) {
    if (path.steps.empty()) {
      return Status::InvalidArgument("empty predicate path");
    }
    Compiler sub_compiler(options_);
    ExecPlan sub;
    LPATH_ASSIGN_OR_RETURN(
        int attr_var,
        sub_compiler.AppendPath(path, Operand::kOuterVarBase + context_var,
                                &sub));
    if (compare != nullptr) {
      // The parser guarantees the final step is an attribute step.
      sub.conjuncts.push_back(VarLit(
          attr_var, PlanCol::kValue,
          compare->cmp == CmpOp::kEq ? CmpOp::kEq : CmpOp::kNe,
          Operand::String(compare->literal)));
    }
    sub.output_var = 0;  // EXISTS subplans test existence; normalize so the
                         // SQL round trip is structurally exact.
    auto node = std::make_unique<BoolExpr>(BoolExpr::Kind::kExists);
    node->sub = std::make_unique<ExecPlan>(std::move(sub));
    return node;
  }

  int root_var_ = -1;
};

}  // namespace

Result<ExecPlan> CompileLPath(const LocationPath& query,
                              const CompileOptions& options) {
  Compiler compiler(options);
  return compiler.CompileQuery(query);
}

}  // namespace lpath
